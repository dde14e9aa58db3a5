(* Tests for Vartune_util.Pool (ordered deterministic parallel map) and
   the pairwise Welford merge of Vartune_util.Kernel that underpins the
   parallel statistical library builder. *)

module Pool = Vartune_util.Pool
module Rng = Vartune_util.Rng
module Stat = Vartune_util.Stat
module Kernel = Vartune_util.Kernel

let with_pool jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_map_ordering () =
  let xs = List.init 500 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "ordered at jobs=%d" jobs)
            expected
            (Pool.map pool (fun x -> x * x) xs)))
    [ 1; 2; 7 ]

let test_map_empty_and_singleton () =
  with_pool 3 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 4 ] (Pool.map pool (( * ) 2) [ 2 ]))

let test_exception_propagation () =
  (* the lowest-index failure wins, deterministically, and the pool
     survives for later use *)
  with_pool 4 (fun pool ->
      let boom x = if x = 17 || x = 42 then failwith (Printf.sprintf "boom%d" x) else x in
      let observed =
        try
          ignore (Pool.map pool boom (List.init 100 Fun.id));
          "no exception"
        with Failure m -> m
      in
      Alcotest.(check string) "lowest index re-raised" "boom17" observed;
      Alcotest.(check (list int)) "pool still usable" [ 0; 1; 2 ]
        (Pool.map pool Fun.id [ 0; 1; 2 ]))

let test_init_chunking () =
  let f i = (i * 31) mod 97 in
  let expected = Array.init 1000 f in
  List.iter
    (fun (jobs, chunk) ->
      with_pool jobs (fun pool ->
          Alcotest.(check (array int))
            (Printf.sprintf "init jobs=%d chunk=%d" jobs chunk)
            expected
            (Pool.init pool ~chunk 1000 f)))
    [ (1, 1); (2, 16); (5, 7); (3, 1000); (4, 1500) ]

let test_jobs_accessor_and_serial_fallback () =
  with_pool 1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
      (* serial pool must run tasks in the calling domain *)
      let self = Domain.self () in
      let domains = Pool.map pool (fun _ -> Domain.self ()) (List.init 8 Fun.id) in
      Alcotest.(check bool) "all in caller" true (List.for_all (( = ) self) domains))

let test_create_rejects_bad_jobs () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d rejected" jobs)
        (Invalid_argument
           (Printf.sprintf "Pool.create: jobs must be a positive integer (got %d)" jobs))
        (fun () -> ignore (Pool.create ~jobs ())))
    [ 0; -1; -3 ];
  Alcotest.check_raises "zero stall timeout rejected"
    (Invalid_argument "Pool.create: stall timeout 0 must be > 0") (fun () ->
      ignore (Pool.create ~jobs:1 ~stall_timeout_s:0.0 ()));
  (* set_default_jobs validates before touching the existing default *)
  (match Pool.set_default_jobs 0 with
  | () -> Alcotest.fail "set_default_jobs 0 should raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list int)) "default pool survives the rejection" [ 0; 1; 2 ]
    (Pool.map (Pool.default ()) Fun.id [ 0; 1; 2 ])

(* --------------------- pairwise Welford merge ----------------------- *)

let test_welford_merge_matches_streaming =
  (* partials over fixed blocks, merged left-to-right by the kernel,
     must agree with the streaming update that saw every sample in
     order *)
  Helpers.qtest ~count:200 "pairwise merge = streaming oracle"
    QCheck2.Gen.(pair int (int_range 1 200))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let xs = Array.init n (fun _ -> 1.0 +. Rng.normal rng) in
      let streaming = Helpers.welford_of xs in
      (* deterministic but irregular block sizes *)
      let block_rng = Rng.create (seed lxor 0x55) in
      let merged = ref (Helpers.welford_of [||]) in
      let i = ref 0 in
      while !i < n do
        let len = min (n - !i) (1 + Rng.int block_rng 7) in
        merged := Helpers.welford_merge !merged (Helpers.welford_of (Array.sub xs !i len));
        i := !i + len
      done;
      let close a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a) in
      let count_m, mean_m, _ = !merged and count_s, mean_s, _ = streaming in
      count_m = count_s
      && close mean_m.(0) mean_s.(0)
      && close (Helpers.welford_sigma !merged) (Helpers.welford_sigma streaming))

let test_welford_merge_empty_sides () =
  (* the kernel never sees an empty partial: a non-positive count on
     either side is rejected before any array is touched *)
  List.iter
    (fun (na, nb) ->
      let mean_a = [| 2.0 |] and m2_a = [| 1.0 |] in
      Alcotest.check_raises
        (Printf.sprintf "merge na=%d nb=%d rejected" na nb)
        (Invalid_argument "Kernel.Welford.merge: counts must be positive")
        (fun () ->
          Kernel.Welford.merge ~na ~nb ~mean_a ~m2_a ~mean_b:[| 5.0 |] ~m2_b:[| 3.0 |]);
      Alcotest.(check (array (float 0.0))) "mean untouched" [| 2.0 |] mean_a;
      Alcotest.(check (array (float 0.0))) "m2 untouched" [| 1.0 |] m2_a)
    [ (0, 3); (3, 0); (0, 0); (-1, 3); (3, -2) ];
  (* so the caller's empty side is a copy: the identity in both
     directions, bit for bit *)
  let w = Helpers.welford_of [| 1.0; 2.0; 4.0 |] in
  let bits = Int64.bits_of_float in
  let count, mean, m2 = w in
  List.iter
    (fun (side, ((count', mean', m2') as m)) ->
      Alcotest.(check int) (side ^ " count") count count';
      Alcotest.(check int64) (side ^ " mean bits") (bits mean.(0)) (bits mean'.(0));
      Alcotest.(check int64) (side ^ " m2 bits") (bits m2.(0)) (bits m2'.(0));
      Alcotest.(check int64) (side ^ " sigma bits")
        (bits (Helpers.welford_sigma w))
        (bits (Helpers.welford_sigma m)))
    [
      ("left identity", Helpers.welford_merge (Helpers.welford_of [||]) w);
      ("right identity", Helpers.welford_merge w (Helpers.welford_of [||]));
    ]

let test_welford_empty_blocks () =
  (* fewer than two observations have no spread: sigma_into writes
     zeros over whatever [dst] held, whatever [m2] says *)
  List.iter
    (fun n ->
      let dst = [| Float.nan; 7.0; -1.0 |] in
      Kernel.Welford.sigma_into ~n ~m2:[| 3.0; Float.nan; -5.0 |] ~dst;
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "sigma at n=%d is all zero" n)
        [| 0.0; 0.0; 0.0 |] dst)
    [ 0; 1 ];
  (* the first update from zeroed surfaces lands the sample exactly,
     and later updates behave like a fresh accumulator *)
  let one = Helpers.welford_of [| 2.5 |] in
  let _, mean, m2 = one in
  Helpers.check_float ~eps:0.0 "first update sets the mean" 2.5 mean.(0);
  Helpers.check_float ~eps:0.0 "first update leaves m2 zero" 0.0 m2.(0);
  let two = Helpers.welford_of [| 2.0; 4.0 |] in
  let _, mean, _ = two in
  Helpers.check_float "mean after two" 3.0 mean.(0);
  Helpers.check_float "sigma after two" (sqrt 2.0) (Helpers.welford_sigma two)

let test_welford_against_stat () =
  let rng = Rng.create 77 in
  let xs = Array.init 500 (fun _ -> Rng.gaussian rng ~mean:4.0 ~sigma:0.3) in
  let w = Helpers.welford_of xs in
  let _, mean, _ = w in
  Helpers.check_float ~eps:1e-9 "mean" (Stat.mean xs) mean.(0);
  Helpers.check_float ~eps:1e-9 "stddev" (Stat.stddev xs) (Helpers.welford_sigma w)

(* VARTUNE_JOBS precedence: explicit ~jobs wins, a well-formed env value
   is honoured, and zero/negative/garbage values are rejected (with a
   Logs warning) in favour of the recommended domain count — never
   silently clamped to 1. *)
(* ------------------------- chunked submission ---------------------- *)

(* Chunking is granularity only: any chunk size, any job count, same
   ordered result as List.map. *)
let test_map_chunked_matches_map () =
  let xs = List.init 101 (fun i -> i - 7) in
  let expect = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          List.iter
            (fun chunk ->
              Alcotest.(check (list int))
                (Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
                expect
                (Pool.map_chunked pool ~chunk (fun x -> x * x) xs))
            [ 1; 2; 7; 64; 1000 ];
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d auto chunk" jobs)
            expect
            (Pool.map_chunked pool (fun x -> x * x) xs);
          Alcotest.(check (list int)) "empty" []
            (Pool.map_chunked pool (fun x -> x * x) [])))
    [ 1; 2; 7 ]

exception Boom of int

(* The lowest-index exception contract survives batching: items inside a
   chunk run in ascending order, chunks settle in input order. *)
let test_map_chunked_exception () =
  with_pool 4 (fun pool ->
      let xs = List.init 50 Fun.id in
      List.iter
        (fun chunk ->
          match
            Pool.map_chunked pool ~chunk
              (fun x -> if x mod 7 = 3 then raise (Boom x) else x)
              xs
          with
          | _ -> Alcotest.fail "expected Boom"
          | exception Boom x ->
            Alcotest.(check int) (Printf.sprintf "chunk=%d lowest index" chunk) 3 x)
        [ 1; 8; 100 ])

let test_chunk_resolution () =
  with_pool 2 (fun pool ->
      (* automatic: ~8 tasks per worker, floored at 1 *)
      Alcotest.(check int) "auto" 10 (Pool.chunk_for pool ~items:160);
      Alcotest.(check int) "auto floor" 1 (Pool.chunk_for pool ~items:5))

let test_env_jobs_precedence () =
  let original = Sys.getenv_opt "VARTUNE_JOBS" in
  let set v = Unix.putenv "VARTUNE_JOBS" v in
  Fun.protect
    ~finally:(fun () -> set (Option.value original ~default:""))
    (fun () ->
      set "3";
      with_pool 2 (fun pool ->
          Alcotest.(check int) "explicit ~jobs beats env" 2 (Pool.jobs pool));
      let pool = Pool.create () in
      Alcotest.(check int) "valid env honoured" 3 (Pool.jobs pool);
      Pool.shutdown pool;
      let recommended = Domain.recommended_domain_count () in
      List.iter
        (fun bad ->
          set bad;
          let pool = Pool.create () in
          Alcotest.(check int)
            (Printf.sprintf "VARTUNE_JOBS=%S rejected" bad)
            recommended (Pool.jobs pool);
          Pool.shutdown pool)
        [ "0"; "-2"; "garbage"; "" ])

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "env jobs precedence" `Quick test_env_jobs_precedence;
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "map empty/singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "init chunking" `Quick test_init_chunking;
          Alcotest.test_case "serial fallback" `Quick test_jobs_accessor_and_serial_fallback;
          Alcotest.test_case "bad jobs rejected" `Quick test_create_rejects_bad_jobs;
          Alcotest.test_case "map_chunked ordering" `Quick test_map_chunked_matches_map;
          Alcotest.test_case "map_chunked exception" `Quick test_map_chunked_exception;
          Alcotest.test_case "chunk resolution" `Quick test_chunk_resolution;
        ] );
      ( "welford",
        [
          test_welford_merge_matches_streaming;
          Alcotest.test_case "merge with empty" `Quick test_welford_merge_empty_sides;
          Alcotest.test_case "empty blocks" `Quick test_welford_empty_blocks;
          Alcotest.test_case "matches Stat" `Quick test_welford_against_stat;
        ] );
    ]
