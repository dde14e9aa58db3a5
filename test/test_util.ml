(* Tests for Vartune_util: Rng, Stat, Grid, Vec, Floatfmt. *)

module Rng = Vartune_util.Rng
module Stat = Vartune_util.Stat
module Grid = Vartune_util.Grid
module Vec = Vartune_util.Vec
module Pool = Vartune_util.Pool
module Floatfmt = Vartune_util.Floatfmt

let check_float = Helpers.check_float

(* ------------------------------- Rng ------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 17 and b = Rng.create 17 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 17 and b = Rng.create 18 in
  Alcotest.(check bool) "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_copy () =
  let a = Rng.create 3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let xs = Array.init 50 (fun _ -> Rng.bits64 a) in
  let ys = Array.init 50 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_rng_stream_matches_split =
  (* the O(1) closed form must stay in lock-step with repeated split *)
  Helpers.qtest ~count:50 "stream k = k-th split"
    QCheck2.Gen.(pair int (int_range 0 200))
    (fun (seed, k) ->
      let by_split =
        let g = Rng.create seed in
        let rec go i = let s = Rng.split g in if i = k then s else go (i + 1) in
        go 0
      in
      let by_stream = Rng.stream (Rng.create seed) k in
      Array.init 20 (fun _ -> Rng.bits64 by_split)
      = Array.init 20 (fun _ -> Rng.bits64 by_stream))

let test_rng_stream_pure () =
  let a = Rng.create 11 in
  ignore (Rng.stream a 5);
  let b = Rng.create 11 in
  Alcotest.(check int64) "stream does not advance" (Rng.bits64 b) (Rng.bits64 a);
  Alcotest.(check bool) "negative index rejected" true
    (try ignore (Rng.stream a (-1)); false with Invalid_argument _ -> true)

let test_rng_uniform_range =
  Helpers.qtest "uniform in [0,1)" QCheck2.Gen.int (fun seed ->
      let rng = Rng.create seed in
      let u = Rng.uniform rng in
      u >= 0.0 && u < 1.0)

let test_rng_int_range =
  Helpers.qtest "int in [0,bound)" QCheck2.Gen.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_normal_moments () =
  let rng = Rng.create 4 in
  let n = 20000 in
  let samples = Array.init n (fun _ -> Rng.normal rng) in
  let mean = Stat.mean samples in
  let sd = Stat.stddev samples in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.03);
  Alcotest.(check bool) "stddev near 1" true (Float.abs (sd -. 1.0) < 0.03)

let test_rng_gaussian_scaling () =
  let rng = Rng.create 5 in
  let samples = Array.init 20000 (fun _ -> Rng.gaussian rng ~mean:3.0 ~sigma:0.5) in
  Alcotest.(check bool) "mean near 3" true (Float.abs (Stat.mean samples -. 3.0) < 0.02);
  Alcotest.(check bool) "sd near 0.5" true (Float.abs (Stat.stddev samples -. 0.5) < 0.02)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 6 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------- Stat ------------------------------ *)

let test_stat_mean () = check_float "mean" 2.5 (Stat.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_stat_mean_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stat.mean: empty array") (fun () ->
      ignore (Stat.mean [||]))

let test_stat_variance () =
  (* sample variance of 2,4,4,4,5,5,7,9 is 32/7 *)
  check_float "variance" (32.0 /. 7.0)
    (Stat.variance [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]);
  check_float "population variance" 4.0
    (Stat.population_variance [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |])

let test_stat_variance_singleton () = check_float "n<2 variance" 0.0 (Stat.variance [| 42.0 |])

let test_stat_cov_metric () =
  (* the paper's Fig 1: same variability, different sigma *)
  let rng = Rng.create 12 in
  let left = Array.init 4000 (fun _ -> Rng.gaussian rng ~mean:0.5 ~sigma:0.01) in
  let right = Array.init 4000 (fun _ -> Rng.gaussian rng ~mean:5.0 ~sigma:0.1) in
  let cv_l = Stat.coefficient_of_variation left in
  let cv_r = Stat.coefficient_of_variation right in
  Alcotest.(check bool) "equal variability" true (Float.abs (cv_l -. cv_r) < 0.002);
  Alcotest.(check bool) "different sigma" true
    (Stat.stddev right > 5.0 *. Stat.stddev left)

let test_stat_min_max () =
  Alcotest.(check (pair (float 0.0) (float 0.0))) "min max" (-3.0, 9.0)
    (Stat.min_max [| 1.0; -3.0; 9.0; 0.0 |])

let test_stat_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Stat.percentile a 0.0);
  check_float "p50" 3.0 (Stat.percentile a 0.5);
  check_float "p100" 5.0 (Stat.percentile a 1.0);
  check_float "p25" 2.0 (Stat.percentile a 0.25)

let test_stat_percentile_unsorted () =
  check_float "median of unsorted" 3.0 (Stat.percentile [| 5.0; 1.0; 3.0; 2.0; 4.0 |] 0.5)

let test_stat_percentile_total_order () =
  (* the internal sort uses Float.compare (a total order), so -0.0 ranks
     strictly below 0.0; with 4 elements, p = 1/3 lands exactly on the
     second order statistic, and dividing exposes the zero's sign *)
  let a = [| 0.0; -0.0; -1.0; 1.0 |] in
  check_float "signed zero ordering" neg_infinity (1.0 /. Stat.percentile a (1.0 /. 3.0));
  check_float "min" (-1.0) (Stat.percentile a 0.0);
  check_float "max" 1.0 (Stat.percentile a 1.0)

let test_stat_percentile_monotone =
  Helpers.qtest "percentile monotone in p"
    QCheck2.Gen.(pair (array_size (int_range 1 40) (float_range (-100.) 100.))
                   (pair (float_range 0. 1.) (float_range 0. 1.)))
    (fun (a, (p, q)) ->
      let lo = Float.min p q and hi = Float.max p q in
      Stat.percentile a lo <= Stat.percentile a hi +. 1e-9)

let test_stat_histogram () =
  let h = Stat.histogram ~bins:4 [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "bins" 4 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 5 total

let test_stat_histogram_conserves =
  Helpers.qtest "histogram conserves count"
    QCheck2.Gen.(array_size (int_range 1 200) (float_range (-5.) 5.))
    (fun a ->
      let h = Stat.histogram ~bins:7 a in
      Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h = Array.length a)

let test_stat_covariance () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 2.0; 4.0; 6.0 |] in
  check_float "cov" 2.0 (Stat.covariance a b);
  check_float "corr" 1.0 (Stat.correlation a b);
  check_float "anti corr" (-1.0) (Stat.correlation a [| 3.0; 2.0; 1.0 |]);
  check_float "constant corr" 0.0 (Stat.correlation a [| 7.0; 7.0; 7.0 |])

(* ------------------------------- Grid ------------------------------ *)

let test_grid_create_get_set () =
  let g = Grid.create ~rows:3 ~cols:4 1.5 in
  Alcotest.(check int) "rows" 3 (Grid.rows g);
  Alcotest.(check int) "cols" 4 (Grid.cols g);
  check_float "fill" 1.5 (Grid.get g 2 3);
  Grid.set g 1 2 9.0;
  check_float "set" 9.0 (Grid.get g 1 2)

let test_grid_bounds () =
  let g = Grid.create ~rows:2 ~cols:2 0.0 in
  Alcotest.check_raises "oob" (Invalid_argument "Grid: index out of bounds") (fun () ->
      ignore (Grid.get g 2 0))

let test_grid_init_layout () =
  let g = Grid.init ~rows:2 ~cols:3 (fun i j -> float_of_int ((10 * i) + j)) in
  check_float "0,0" 0.0 (Grid.get g 0 0);
  check_float "0,2" 2.0 (Grid.get g 0 2);
  check_float "1,1" 11.0 (Grid.get g 1 1)

let test_grid_of_arrays () =
  let g = Grid.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "roundtrip" true
    (Grid.to_arrays g = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |])

let test_grid_of_arrays_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Grid.of_arrays: ragged") (fun () ->
      ignore (Grid.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_grid_map_map2 () =
  let g = Grid.init ~rows:2 ~cols:2 (fun i j -> float_of_int (i + j)) in
  let doubled = Grid.map (fun v -> 2.0 *. v) g in
  check_float "map" 4.0 (Grid.get doubled 1 1);
  let sum = Grid.map2 ( +. ) g doubled in
  check_float "map2" 6.0 (Grid.get sum 1 1);
  let other = Grid.create ~rows:3 ~cols:2 0.0 in
  Alcotest.check_raises "map2 dims" (Invalid_argument "Grid.map2: dimension mismatch")
    (fun () -> ignore (Grid.map2 ( +. ) g other))

let test_grid_minmax_fold () =
  let g = Grid.of_arrays [| [| 1.0; -2.0 |]; [| 5.0; 0.0 |] |] in
  check_float "max" 5.0 (Grid.max_value g);
  check_float "min" (-2.0) (Grid.min_value g);
  check_float "fold sum" 4.0 (Grid.fold ( +. ) 0.0 g)

let test_grid_equal () =
  let g = Grid.create ~rows:2 ~cols:2 1.0 in
  let h = Grid.map (fun v -> v +. 1e-13) g in
  Alcotest.(check bool) "within eps" true (Grid.equal g h);
  Alcotest.(check bool) "beyond eps" false (Grid.equal ~eps:1e-14 g h)

(* The unsafe accessors must agree bit-for-bit with the checked ones on
   every in-bounds index — they may only ever differ by skipping the
   bounds check. *)
let test_grid_unsafe_agrees =
  Helpers.qtest ~count:200 "unsafe_get/unsafe_set agree with get/set"
    QCheck2.Gen.(
      let* rows = int_range 1 8 and* cols = int_range 1 8 in
      let* cells = list_size (return (rows * cols)) (float_range (-1e6) 1e6) in
      let* i = int_range 0 (rows - 1) and* j = int_range 0 (cols - 1) in
      let* v = float_range (-1e6) 1e6 in
      return (rows, cols, Array.of_list cells, i, j, v))
    (fun (rows, cols, cells, i, j, v) ->
      let g = Grid.init ~rows ~cols (fun i j -> cells.((i * cols) + j)) in
      let all_agree g =
        let ok = ref true in
        Grid.iteri
          (fun i j x ->
            if Int64.bits_of_float (Grid.unsafe_get g i j) <> Int64.bits_of_float x then
              ok := false)
          g;
        !ok
      in
      let reads_agree = all_agree g in
      Grid.unsafe_set g i j v;
      reads_agree
      && Int64.bits_of_float (Grid.get g i j) = Int64.bits_of_float v
      && all_agree g)

(* ------------------------------- Vec ------------------------------- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Alcotest.(check int) "index" i (Vec.push v (i * 2))
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 84 (Vec.get v 42)

let test_vec_set () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Vec.set v 1 20;
  Alcotest.(check (list int)) "after set" [ 1; 20; 3 ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 1))

let test_vec_iter_fold () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold" 10 (Vec.fold ( + ) 0 v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check int) "iteri count" 4 (List.length !seen);
  Alcotest.(check (array int)) "to_array" [| 1; 2; 3; 4 |] (Vec.to_array v)

(* ------------------------- Welford clamp --------------------------- *)

(* Streaming updates and pairwise merges over near-constant data can
   cancel to a tiny negative M2; sigma must come out 0.0, never NaN. *)
let welford_of array =
  let w = Stat.Welford.create () in
  Array.iter (Stat.Welford.add w) array;
  w

let test_welford_sigma_never_nan =
  QCheck.Test.make ~count:500 ~name:"welford sigma never NaN on near-constant data"
    QCheck.(
      triple (float_range 1e-9 1e9) (int_range 2 64) (int_range 0 1000))
    (fun (base, n, split) ->
      let data = Array.init n (fun i -> base *. (1.0 +. (float_of_int i *. 1e-16))) in
      let direct = welford_of data in
      (* also exercise the pairwise merge at an arbitrary split point *)
      let k = split mod n in
      let merged =
        Stat.Welford.merge
          (welford_of (Array.sub data 0 k))
          (welford_of (Array.sub data k (n - k)))
      in
      List.for_all
        (fun w ->
          let sigma = Stat.Welford.stddev w in
          Stat.Welford.variance w >= 0.0 && (not (Float.is_nan sigma)) && sigma >= 0.0)
        [ direct; merged ])

let test_welford_clamp_only_negatives () =
  (* clamping is for cancellation noise only: a genuine NaN input must
     still propagate rather than be laundered into 0 *)
  let w = welford_of [| 1.0; Float.nan; 2.0 |] in
  Alcotest.(check bool) "NaN data keeps NaN variance" true
    (Float.is_nan (Stat.Welford.variance w));
  let ok = welford_of [| 5.0; 5.0; 5.0 |] in
  Alcotest.(check (float 0.0)) "constant data has zero sigma" 0.0 (Stat.Welford.stddev ok)

(* ------------------------ Pool env parsing ------------------------- *)

let test_parse_stall_timeout () =
  let ok v = match Pool.parse_stall_timeout v with Ok s -> Some s | Error _ -> None in
  Alcotest.(check (option (float 0.0))) "plain seconds" (Some 2.5) (ok "2.5");
  Alcotest.(check (option (float 0.0))) "integer seconds" (Some 30.0) (ok "30");
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected with a named token" v)
        true
        (match Pool.parse_stall_timeout v with
        | Ok _ -> false
        | Error msg -> String.length msg > 0))
    [ "-3"; "0"; "nan"; "-nan"; "garbage"; "" ]

let test_stall_env_rejected () =
  (* OCaml cannot unset an env var; an empty value means unset, which
     lets this test restore the environment afterwards *)
  let set v = Unix.putenv "VARTUNE_POOL_STALL_S" v in
  Fun.protect ~finally:(fun () -> set "")
    (fun () ->
      set "-7";
      Alcotest.check_raises "negative stall timeout raises"
        (Invalid_argument
           "VARTUNE_POOL_STALL_S: stall timeout -7 is not a positive number of seconds")
        (fun () -> ignore (Pool.create ~jobs:1 ()));
      set "";
      let pool = Pool.create ~jobs:1 () in
      Alcotest.(check int) "empty value means unset" 1 (Pool.jobs pool);
      Pool.shutdown pool)

(* ----------------------------- Floatfmt ----------------------------- *)

(* The rule Floatfmt implements, written out with libc: %.12g when it
   parses back to the same float, else %.17g.  Deliberately shares no
   code with lib/, so it is an independent oracle. *)
let sprintf_rule f =
  let short = Printf.sprintf "%.12g" f in
  if float_of_string short = f then short else Printf.sprintf "%.17g" f

let rec ipow10 k = if k = 0 then 1 else 10 * ipow10 (k - 1)

(* The float nearest the decimal [m]e[e] and its two neighbours: the
   neighbours of 12- and 17-digit decimals sit right at the tail bound
   that decides between the two renderings, and those of powers of ten
   at the digit carry. *)
let decimal_neighbour_gen =
  QCheck2.Gen.(
    let* digits = oneofl [ 1; 12; 17 ] in
    let* m = int_range (ipow10 (digits - 1)) (ipow10 digits - 1) in
    let* e = int_range (-30) 30 in
    let x = float_of_string (Printf.sprintf "%de%d" m e) in
    oneofl [ x; Float.pred x; Float.succ x ])

(* Exact halfway cases: u * 2^-(k+1) with u odd, so that scaled by 10^k
   it ends in exactly .5 — a tie at the 17th digit when it lands in
   [1e16, 1e17), and short dyadics whose ties sit at earlier digits. *)
let tie_gen =
  QCheck2.Gen.(
    let* short = bool in
    if short then
      let* v = int_range 0 (1 lsl 20) in
      let* s = int_range 1 40 in
      return (Float.ldexp (Float.of_int ((2 * v) + 1)) (-s))
    else
      let* k = int_range 2 22 in
      let lo = 2e16 /. (5.0 ** Float.of_int k) in
      let* u = int_range (int_of_float lo) (int_of_float (10.0 *. lo)) in
      return (Float.ldexp (Float.of_int (u lor 1)) (-(k + 1))))

let special_gen =
  QCheck2.Gen.oneofl
    [ 0.0; -0.0; infinity; neg_infinity; nan; max_float; -.max_float; min_float;
      Float.pred min_float; Float.succ 0.0; 4.9e-324; 1e-310; -2.5e-320; 1e16; 1e17;
      Float.pred 1e17; 1e-6; Float.pred 1e-6; 0.1; 0.5; 2.5; 1e22; 1e23 ]

let floatfmt_gen =
  QCheck2.Gen.(
    let* sign = oneofl [ 1.0; -1.0 ] in
    let* x =
      frequency
        [
          (3, map Int64.float_of_bits int64);
          (3, map (fun l -> 10.0 ** l) (float_range (-8.0) 18.0));
          (4, decimal_neighbour_gen);
          (2, tie_gen);
          (1, special_gen);
        ]
    in
    return (sign *. x))

let test_floatfmt_matches_sprintf =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100_000 ~long_factor:100 ~print:(Printf.sprintf "%h")
       ~name:"repr = sprintf rule; add_buffer = repr" floatfmt_gen (fun f ->
         let expected = sprintf_rule f in
         let buf = Buffer.create 8 in
         Buffer.add_string buf "x=";
         Floatfmt.add_buffer buf f;
         let got = Floatfmt.repr f in
         if got <> expected then QCheck2.Test.fail_reportf "repr %S, sprintf rule %S" got expected;
         Buffer.contents buf = "x=" ^ got))

(* Every float within a few ulps of a power of ten, where a 17- or
   12-digit rounding could carry into the next decade. *)
let test_floatfmt_powers_of_ten () =
  for k = -12 to 24 do
    let x = float_of_string (Printf.sprintf "1e%d" k) in
    let near = ref [ x ] in
    let lo = ref x and hi = ref x in
    for _ = 1 to 16 do
      lo := Float.pred !lo;
      hi := Float.succ !hi;
      near := !lo :: !hi :: !near
    done;
    List.iter
      (fun f ->
        Alcotest.(check string) (Printf.sprintf "%h" f) (sprintf_rule f) (Floatfmt.repr f);
        Alcotest.(check string) (Printf.sprintf "%h" (-.f)) (sprintf_rule (-.f)) (Floatfmt.repr (-.f)))
      !near
  done

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          test_rng_stream_matches_split;
          Alcotest.test_case "stream purity" `Quick test_rng_stream_pure;
          test_rng_uniform_range;
          test_rng_int_range;
          Alcotest.test_case "normal moments" `Slow test_rng_normal_moments;
          Alcotest.test_case "gaussian scaling" `Slow test_rng_gaussian_scaling;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stat",
        [
          Alcotest.test_case "mean" `Quick test_stat_mean;
          Alcotest.test_case "mean empty" `Quick test_stat_mean_empty;
          Alcotest.test_case "variance" `Quick test_stat_variance;
          Alcotest.test_case "variance singleton" `Quick test_stat_variance_singleton;
          Alcotest.test_case "variability metric (Fig 1)" `Slow test_stat_cov_metric;
          Alcotest.test_case "min max" `Quick test_stat_min_max;
          Alcotest.test_case "percentile" `Quick test_stat_percentile;
          Alcotest.test_case "percentile unsorted" `Quick test_stat_percentile_unsorted;
          Alcotest.test_case "percentile total order" `Quick test_stat_percentile_total_order;
          test_stat_percentile_monotone;
          Alcotest.test_case "histogram" `Quick test_stat_histogram;
          test_stat_histogram_conserves;
          Alcotest.test_case "covariance/correlation" `Quick test_stat_covariance;
        ] );
      ( "grid",
        [
          Alcotest.test_case "create/get/set" `Quick test_grid_create_get_set;
          Alcotest.test_case "bounds" `Quick test_grid_bounds;
          Alcotest.test_case "init layout" `Quick test_grid_init_layout;
          Alcotest.test_case "of_arrays" `Quick test_grid_of_arrays;
          Alcotest.test_case "of_arrays ragged" `Quick test_grid_of_arrays_ragged;
          Alcotest.test_case "map/map2" `Quick test_grid_map_map2;
          Alcotest.test_case "minmax/fold" `Quick test_grid_minmax_fold;
          Alcotest.test_case "equal" `Quick test_grid_equal;
          test_grid_unsafe_agrees;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "set" `Quick test_vec_set;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iter/fold" `Quick test_vec_iter_fold;
        ] );
      ( "welford",
        [
          QCheck_alcotest.to_alcotest test_welford_sigma_never_nan;
          Alcotest.test_case "clamp spares genuine NaN" `Quick
            test_welford_clamp_only_negatives;
        ] );
      ( "pool-env",
        [
          Alcotest.test_case "parse_stall_timeout" `Quick test_parse_stall_timeout;
          Alcotest.test_case "malformed env rejected" `Quick test_stall_env_rejected;
        ] );
      ( "floatfmt",
        [
          test_floatfmt_matches_sprintf;
          Alcotest.test_case "powers of ten and neighbours" `Quick test_floatfmt_powers_of_ten;
        ] );
    ]
