(* Tests for Vartune_store — codec round-trips, key sensitivity,
   corruption recovery, concurrent writers and end-to-end cold/warm
   bit-identity of the experiment flow. *)

module Store = Vartune_store.Store
module Key = Vartune_store.Store.Key
module Codec = Vartune_store.Codec
module Printer = Vartune_liberty.Printer
module Characterize = Vartune_charlib.Characterize
module Statistical = Vartune_statlib.Statistical
module Mismatch = Vartune_process.Mismatch
module Synthesis = Vartune_synth.Synthesis
module Constraints = Vartune_synth.Constraints
module Netlist = Vartune_netlist.Netlist
module Design_sigma = Vartune_stats.Design_sigma
module Dist = Vartune_stats.Dist
module Experiment = Vartune_flow.Experiment
module Tuning_method = Vartune_tuning.Tuning_method
module Mcu = Vartune_rtl.Microcontroller
module Pool = Vartune_util.Pool

(* every store in this suite lives under one per-process temp root *)
let temp_root =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "vartune_test_store_%d" (Unix.getpid ()))

let with_store name f =
  let t = Store.open_dir (Filename.concat temp_root name) in
  Store.wipe t;
  Fun.protect ~finally:(fun () -> Store.wipe t) (fun () -> f t)

let encode w x =
  let b = Buffer.create 4096 in
  w b x;
  Buffer.contents b

let decode r s =
  let reader = Codec.reader s in
  let v = r reader in
  Alcotest.(check bool) "payload fully consumed" true (Codec.at_end reader);
  v

let bits = Int64.bits_of_float
let check_bits msg a b = Alcotest.(check int64) msg (bits a) (bits b)

(* ------------------------------------------------------------------ *)
(* Shared tiny flow fixture (no store attached)                        *)
(* ------------------------------------------------------------------ *)

let tiny_config =
  { Mcu.xlen = 32; reg_count = 8; mul_width = 4; irq_lines = 2; bus_slaves = 2 }

let tiny_setup =
  lazy
    (Experiment.prepare_request ~mcu_config:tiny_config
       (Vartune_flow.Request.Min_period { seed = 7; samples = 2 }))

let tiny_run =
  lazy
    (let setup = Lazy.force tiny_setup in
     Experiment.baseline setup ~period:(setup.Experiment.min_period *. 1.5))

let run_scalars (r : Experiment.run) =
  ( r.Experiment.label,
    bits r.period,
    bits r.result.Synthesis.worst_slack,
    bits r.result.Synthesis.area,
    r.result.Synthesis.feasible,
    r.result.Synthesis.instances,
    List.length (Experiment.paths r),
    bits r.design_sigma.Design_sigma.dist.Dist.mean,
    bits r.design_sigma.Design_sigma.dist.Dist.sigma,
    bits r.design_sigma.Design_sigma.worst_path_3sigma )

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let test_library_roundtrip () =
  List.iter
    (fun (label, lib) ->
      let back = decode Codec.r_library (encode Codec.w_library lib) in
      Alcotest.(check string)
        (label ^ " prints identically")
        (Printer.to_string lib) (Printer.to_string back))
    [
      ("nominal", Lazy.force Helpers.nominal_small);
      ("statistical", Lazy.force Helpers.small_statlib);
    ]

let test_result_roundtrip () =
  let run = Lazy.force tiny_run in
  let cons = Constraints.make ~clock_period:run.Experiment.period () in
  let timing_config = Constraints.timing_config cons in
  let library = (Lazy.force tiny_setup).Experiment.statlib in
  let back =
    decode (Codec.r_result ~library ~timing_config)
      (encode Codec.w_result run.Experiment.result)
  in
  let r = run.Experiment.result in
  check_bits "worst slack" r.Synthesis.worst_slack back.Synthesis.worst_slack;
  check_bits "area" r.Synthesis.area back.Synthesis.area;
  Alcotest.(check bool) "feasible" r.Synthesis.feasible back.Synthesis.feasible;
  Alcotest.(check int) "instances" r.Synthesis.instances back.Synthesis.instances;
  Alcotest.(check bool) "netlist image identical" true
    (Netlist.export r.Synthesis.netlist = Netlist.export back.Synthesis.netlist)

(* The tiny flow's baseline, fetched through [store]. *)
let stored_run store =
  let setup =
    Experiment.prepare_request ~mcu_config:tiny_config ~specs:Helpers.small_specs ~store
      (Vartune_flow.Request.Min_period { seed = 7; samples = 2 })
  in
  Experiment.baseline setup ~period:(setup.Experiment.min_period *. 1.5)

(* A run entry holds no paths: a run read back on a cold handle derives
   the same paths from its rebuilt timing, and the same design sigma. *)
let test_decoded_run_paths () =
  with_store "derive" (fun t ->
      let computed = stored_run t in
      let cold = Store.open_dir (Store.dir t) in
      let decoded = stored_run cold in
      let stats = Store.stats cold in
      Alcotest.(check (pair int int)) "library, period and run read from disk" (3, 0)
        (stats.Store.hits, stats.Store.misses);
      Alcotest.(check bool) "derived paths identical" true
        (Experiment.paths computed = Experiment.paths decoded);
      let ds = computed.Experiment.design_sigma in
      List.iter
        (fun (what, (got : Design_sigma.t)) ->
          check_bits (what ^ ": mean") ds.dist.Dist.mean got.dist.Dist.mean;
          check_bits (what ^ ": sigma") ds.dist.Dist.sigma got.dist.Dist.sigma;
          Alcotest.(check int) (what ^ ": paths") ds.paths got.paths;
          check_bits (what ^ ": worst 3-sigma") ds.worst_path_3sigma got.worst_path_3sigma)
        [
          ("decoded", decoded.Experiment.design_sigma);
          ("of the derived paths", Design_sigma.of_paths (Experiment.paths decoded));
        ])

let test_design_sigma_roundtrip () =
  let ds = (Lazy.force tiny_run).Experiment.design_sigma in
  let back = decode Codec.r_design_sigma (encode Codec.w_design_sigma ds) in
  check_bits "mean" ds.Design_sigma.dist.Dist.mean back.Design_sigma.dist.Dist.mean;
  check_bits "sigma" ds.Design_sigma.dist.Dist.sigma back.Design_sigma.dist.Dist.sigma;
  Alcotest.(check int) "paths" ds.Design_sigma.paths back.Design_sigma.paths;
  check_bits "worst 3-sigma" ds.Design_sigma.worst_path_3sigma
    back.Design_sigma.worst_path_3sigma

(* ------------------------------------------------------------------ *)
(* Key discipline                                                      *)
(* ------------------------------------------------------------------ *)

let test_key_sensitivity () =
  let hex ?(seed = 1) ?(n = 4) ?(mismatch = Mismatch.default) () =
    Key.hex
      (Statistical.store_key Characterize.default_config ~mismatch ~seed ~n
         ~specs:Helpers.small_specs ())
  in
  let base = hex () in
  let variants =
    [
      ("seed", hex ~seed:2 ());
      ("samples", hex ~n:5 ());
      ( "mismatch",
        hex
          ~mismatch:
            {
              Mismatch.default with
              sigma_resistance = Mismatch.default.sigma_resistance *. 2.0;
            }
          () );
    ]
  in
  List.iter
    (fun (what, h) ->
      Alcotest.(check bool) (what ^ " changes the key") true (h <> base))
    variants;
  Alcotest.(check string) "same recipe, same key" base (hex ())

let test_key_no_aliasing () =
  (* length-prefixed strings: concatenation cannot fabricate a recipe *)
  let a = Key.(hex (str (v "s") "l" "ab")) in
  let b = Key.(hex (str (str (v "s") "l" "a") "l" "b")) in
  Alcotest.(check bool) "split string differs" true (a <> b);
  (* float ingredients are bit-exact: -0.0 and 0.0 are different recipes *)
  let pz = Key.(hex (float (v "f") "x" 0.0)) in
  let nz = Key.(hex (float (v "f") "x" (-0.0))) in
  Alcotest.(check bool) "signed zero distinguished" true (pz <> nz)

(* The published FNV-1a 64 test vectors (standard offset basis), and
   hashing that allocates the same few words whatever the length. *)
let test_fnv1a64 () =
  let fnv s = Printf.sprintf "%016Lx" (Key.fnv1a64 0xcbf29ce484222325L s) in
  Alcotest.(check string) "empty" "cbf29ce484222325" (fnv "");
  Alcotest.(check string) "a" "af63dc4c8601ec8c" (fnv "a");
  Alcotest.(check string) "foobar" "85944171f73967e8" (fnv "foobar");
  let big = String.make 1_000_000 'x' in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Key.fnv1a64 0xcbf29ce484222325L big));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f words for 1 MB" words) true (words < 100.0)

(* ------------------------------------------------------------------ *)
(* Corruption recovery                                                 *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let test_corruption_recovery () =
  with_store "corrupt" (fun t ->
      let key = Key.(int (v "corrupt_probe") "x" 42) in
      let payload b =
        Codec.w_string b "hello";
        Codec.w_float b 3.25
      in
      let dec r =
        let s = Codec.r_string r in
        let f = Codec.r_float r in
        (s, f)
      in
      let expect_hit what =
        match Store.load t key dec with
        | Some ("hello", 3.25) -> ()
        | _ -> Alcotest.fail (what ^ ": expected a clean hit")
      in
      Store.save t key payload;
      expect_hit "initial";
      let path = Store.entry_path t key in
      let original = read_file path in
      (* truncation: the entry is evicted and reported as a miss *)
      write_file path (String.sub original 0 (String.length original - 4));
      Alcotest.(check bool) "truncated -> miss" true (Store.load t key dec = None);
      Alcotest.(check bool) "truncated entry evicted" false (Sys.file_exists path);
      (* recompute-and-save works after eviction *)
      Store.save t key payload;
      expect_hit "after truncation";
      (* bit flip in the payload: checksum rejects it *)
      let flipped = Bytes.of_string original in
      let last = Bytes.length flipped - 1 in
      Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 0x40));
      write_file path (Bytes.to_string flipped);
      Alcotest.(check bool) "bit flip -> miss" true (Store.load t key dec = None);
      Alcotest.(check bool) "flipped entry evicted" false (Sys.file_exists path);
      Store.save t key payload;
      expect_hit "after bit flip";
      let stats = Store.stats t in
      Alcotest.(check int) "two evictions recorded" 2 stats.Store.evictions;
      Alcotest.(check int) "two misses recorded" 2 stats.Store.misses;
      Alcotest.(check int) "three hits recorded" 3 stats.Store.hits)

let test_wrong_version_is_miss () =
  with_store "version" (fun t ->
      let key = Key.(int (v "corrupt_probe") "x" 7) in
      Store.save t key (fun b -> Codec.w_int b 123);
      (* rewrite the version byte right after the 8-byte magic *)
      let path = Store.entry_path t key in
      let raw = Bytes.of_string (read_file path) in
      Bytes.set raw 8 (Char.chr (Char.code (Bytes.get raw 8) lxor 0xFF));
      write_file path (Bytes.to_string raw);
      Alcotest.(check bool) "foreign version -> miss" true
        (Store.load t key Codec.r_int = None);
      Alcotest.(check bool) "foreign version evicted" false (Sys.file_exists path))

(* A synthesis-run entry corrupted behind a valid checksum: truncated,
   or one byte changed, and reframed with the checksum of the new
   payload, so only the decoder's own checks stand between it and the
   flow.  A cold handle must then miss, evict the entry and recompute
   the run, which lands the original bytes again; no exception may
   escape.  The only changes a decoder can let through are in the
   fields nothing else in the entry or its key determines: the
   design, net and instance names, the name counter and the sizer's
   activity counts.  A run accepted with such a change must equal the
   computed one in everything else, derived paths included. *)
(* An entry file: magic, then version, recipe id, checksum, payload. *)
let entry_fields contents =
  let r = Codec.reader (String.sub contents 8 (String.length contents - 8)) in
  let version = Codec.r_int r in
  let id = Codec.r_string r in
  ignore (Codec.r_int r);
  (version, id, Codec.r_string r)

let reframe contents payload =
  let version, id, _ = entry_fields contents in
  let b = Buffer.create (String.length payload + 256) in
  Buffer.add_string b (String.sub contents 0 8);
  Codec.w_int b version;
  Codec.w_string b id;
  Codec.w_int b (Int64.to_int (Key.fnv1a64 0xcbf29ce484222325L payload));
  Codec.w_string b payload;
  Buffer.contents b

(* the computed run, with its entry's path and bytes *)
let boundary_fixture =
  lazy
    (let t = Store.open_dir (Filename.concat temp_root "boundary") in
     Store.wipe t;
     let run = stored_run t in
     let prefix = Printf.sprintf "v%d|synth_run" Codec.version in
     let objects = Filename.concat (Store.dir t) "objects" in
     let entries =
       List.concat_map
         (fun sub ->
           List.filter_map
             (fun name ->
               let path = Filename.concat (Filename.concat objects sub) name in
               let contents = read_file path in
               let _, id, _ = entry_fields contents in
               if String.starts_with ~prefix id then Some (path, contents) else None)
             (Array.to_list (Sys.readdir (Filename.concat objects sub))))
         (Array.to_list (Sys.readdir objects))
     in
     match entries with
     | [ (path, contents) ] -> (t, run, path, contents)
     | l -> Alcotest.failf "expected one run entry, found %d" (List.length l))

let unnamed nl =
  let r = Netlist.export nl in
  {
    r with
    Netlist.repr_name = "";
    repr_name_counter = 0;
    repr_nets = Array.map (fun (_, driver, sinks) -> ("", driver, sinks)) r.Netlist.repr_nets;
    repr_instances =
      Array.map (Option.map (fun (_, cell, i, o) -> ("", cell, i, o))) r.Netlist.repr_instances;
  }

let test_run_entry_boundary =
  Helpers.qtest ~count:30 ~long_factor:20 "corrupt run entry behind a valid checksum"
    QCheck2.Gen.(triple bool (float_bound_exclusive 1.0) (int_range 1 255))
    (fun (truncate, at, mask) ->
      let t, reference, path, contents = Lazy.force boundary_fixture in
      let _, _, payload = entry_fields contents in
      let pos = int_of_float (at *. float_of_int (String.length payload)) in
      let bad =
        if truncate then String.sub payload 0 pos
        else
          String.mapi
            (fun i c -> if i = pos then Char.chr (Char.code c lxor mask) else c)
            payload
      in
      write_file path (reframe contents bad);
      let what = if truncate then "truncated" else "changed" in
      let cold = Store.open_dir (Store.dir t) in
      let run =
        try stored_run cold
        with e ->
          QCheck2.Test.fail_reportf "%s at %d: %s escaped" what pos (Printexc.to_string e)
      in
      let stats = Store.stats cold in
      let same_run () =
        run_scalars run = run_scalars reference
        && unnamed run.Experiment.result.Synthesis.netlist
           = unnamed reference.Experiment.result.Synthesis.netlist
        && Experiment.paths run = Experiment.paths reference
      in
      if stats.Store.evictions = 1 then begin
        let r = run.Experiment.result and want = reference.Experiment.result in
        if
          not
            (same_run ()
            && Netlist.export r.Synthesis.netlist = Netlist.export want.Synthesis.netlist
            && r.Synthesis.sizer = want.Synthesis.sizer)
        then
          QCheck2.Test.fail_reportf "%s at %d: evicted, but the recomputed run differs" what pos;
        if read_file path <> contents then
          QCheck2.Test.fail_reportf "%s at %d: the recomputed entry differs" what pos
      end
      else if truncate then QCheck2.Test.fail_reportf "truncated at %d: entry accepted" pos
      else if not (same_run ()) then
        QCheck2.Test.fail_reportf "byte %d ^ %d: a different run came back" pos mask;
      true)

(* ------------------------------------------------------------------ *)
(* Writer lock discipline                                              *)
(* ------------------------------------------------------------------ *)

exception Encoder_died

let test_lock_released_when_encoder_dies () =
  (* a writer killed mid-critical-section (here: its encoder raising
     inside the locked region) must not leave the entry lock behind *)
  with_store "lock_encoder" (fun t ->
      let key = Key.(int (v "lock_probe") "x" 1) in
      let lock = Store.entry_path t key ^ ".lock" in
      (match Store.save t key (fun _ -> raise Encoder_died) with
      | () -> Alcotest.fail "encoder exception must propagate"
      | exception Encoder_died -> ());
      Alcotest.(check bool) "lock released after encoder death" false
        (Sys.file_exists lock);
      Alcotest.(check int) "nothing landed" 0 (Store.entry_count t);
      (* the entry is immediately writable again *)
      Store.save t key (fun b -> Codec.w_int b 9);
      Alcotest.(check (option int)) "subsequent save lands" (Some 9)
        (Store.load t key Codec.r_int))

let test_stale_lock_broken_live_lock_respected () =
  with_store "lock_stale" (fun t ->
      let key = Key.(int (v "lock_probe") "x" 2) in
      let lock = Store.entry_path t key ^ ".lock" in
      (* a live writer's lock defers the save (content addressing makes
         that benign) *)
      let rec mkdir_p d =
        if not (Sys.file_exists d) then begin
          mkdir_p (Filename.dirname d);
          try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        end
      in
      mkdir_p (Filename.dirname lock);
      close_out (open_out lock);
      Store.save t key (fun b -> Codec.w_int b 1);
      Alcotest.(check bool) "live lock respected" true (Sys.file_exists lock);
      Alcotest.(check (option int)) "save deferred" None (Store.load t key Codec.r_int);
      (* the same lock left by a crashed writer (old mtime) is broken *)
      let ancient = Unix.time () -. 3600.0 in
      Unix.utimes lock ancient ancient;
      Store.save t key (fun b -> Codec.w_int b 2);
      Alcotest.(check (option int)) "stale lock broken, save lands" (Some 2)
        (Store.load t key Codec.r_int);
      Alcotest.(check bool) "stale lock removed" false (Sys.file_exists lock))

(* ------------------------------------------------------------------ *)
(* Concurrent writers                                                  *)
(* ------------------------------------------------------------------ *)

let test_concurrent_writers () =
  List.iter
    (fun jobs ->
      with_store (Printf.sprintf "conc%d" jobs) (fun t ->
          let pool = Pool.create ~jobs () in
          Fun.protect
            ~finally:(fun () -> Pool.shutdown pool)
            (fun () ->
              let tasks = 24 in
              let shared = Key.(int (v "conc_shared") "jobs" jobs) in
              let own i = Key.(int (int (v "conc_own") "jobs" jobs) "i" i) in
              (* all workers hammer the shared key with identical bytes and
                 land their own entry; own save-then-load must always hit *)
              let results =
                Pool.map pool
                  (fun i ->
                    Store.save t shared (fun b -> Codec.w_int b (-1));
                    Store.save t (own i) (fun b -> Codec.w_int b (i * i));
                    Store.load t (own i) Codec.r_int)
                  (List.init tasks Fun.id)
              in
              List.iteri
                (fun i r ->
                  Alcotest.(check (option int))
                    (Printf.sprintf "jobs=%d own entry %d" jobs i)
                    (Some (i * i))
                    r)
                results;
              Alcotest.(check (option int))
                (Printf.sprintf "jobs=%d shared entry" jobs)
                (Some (-1))
                (Store.load t shared Codec.r_int);
              Alcotest.(check int)
                (Printf.sprintf "jobs=%d entry count" jobs)
                (tasks + 1) (Store.entry_count t);
              (* no writer litter survives the run *)
              Alcotest.(check int)
                (Printf.sprintf "jobs=%d no evictions" jobs)
                0 (Store.stats t).Store.evictions)))
    [ 1; 2; 7 ]

(* ------------------------------------------------------------------ *)
(* Tiered fetch                                                        *)
(* ------------------------------------------------------------------ *)

let int_kind : int Store.kind = Store.kind ()

(* Two stores in probe order.  [fetch] counts [compute]'s calls so each
   case can tell a served artifact from a recomputed one. *)
let with_two_stores f =
  with_store "fetch_first" (fun first ->
      with_store "fetch_second" (fun second ->
          let calls = ref 0 in
          let fetch ?(compute = fun () -> 41 + !calls) key =
            Store.fetch ~kind:int_kind [ first; second ] key Codec.r_int
              (fun v b -> Codec.w_int b v)
              (fun () ->
                incr calls;
                compute ())
          in
          f first second fetch calls))

let probes t =
  let s = Store.stats t in
  s.Store.hits + s.Store.misses

let test_fetch_miss_writes_all () =
  with_two_stores (fun first second fetch calls ->
      let key = Key.(int (v "fetch_probe") "case" 1) in
      Alcotest.(check (pair int bool)) "computed" (42, false) (fetch key);
      Alcotest.(check int) "compute ran once" 1 !calls;
      List.iter
        (fun (name, t) ->
          Alcotest.(check (option int)) (name ^ " written") (Some 42)
            (Store.load t key Codec.r_int))
        [ ("first", first); ("second", second) ])

let test_fetch_first_hit_skips_second () =
  with_two_stores (fun first second fetch calls ->
      let key = Key.(int (v "fetch_probe") "case" 2) in
      Store.save first key (fun b -> Codec.w_int b 7);
      Alcotest.(check (pair int bool)) "served by first" (7, true) (fetch key);
      Alcotest.(check int) "no compute" 0 !calls;
      Alcotest.(check int) "second never probed" 0 (probes second))

let test_fetch_second_hit_not_written_back () =
  with_two_stores (fun first second fetch calls ->
      let key = Key.(int (v "fetch_probe") "case" 3) in
      Store.save second key (fun b -> Codec.w_int b 9);
      Alcotest.(check (pair int bool)) "served by second" (9, true) (fetch key);
      Alcotest.(check int) "no compute" 0 !calls;
      Alcotest.(check int) "first not written" 0 (Store.stats first).Store.writes;
      Alcotest.(check int) "first still empty" 0 (Store.entry_count first))

let test_fetch_corrupt_first_falls_through () =
  with_two_stores (fun first second fetch calls ->
      let key = Key.(int (v "fetch_probe") "case" 4) in
      Store.save first key (fun b -> Codec.w_int b 5);
      Store.save second key (fun b -> Codec.w_int b 5);
      let path = Store.entry_path first key in
      let original = read_file path in
      write_file path (String.sub original 0 (String.length original - 3));
      Alcotest.(check (pair int bool)) "served by second" (5, true) (fetch key);
      Alcotest.(check int) "no compute" 0 !calls;
      Alcotest.(check int) "corrupt entry evicted" 1 (Store.stats first).Store.evictions;
      Alcotest.(check bool) "evicted file gone" false (Sys.file_exists path))

exception Compute_died

let test_fetch_compute_raises () =
  with_two_stores (fun first second fetch _ ->
      let key = Key.(int (v "fetch_probe") "case" 5) in
      (match fetch ~compute:(fun () -> raise Compute_died) key with
      | _ -> Alcotest.fail "compute exception must propagate"
      | exception Compute_died -> ());
      Alcotest.(check int) "first not written" 0 (Store.entry_count first);
      Alcotest.(check int) "second not written" 0 (Store.entry_count second))

(* The in-process tier.  [counting] fetches string artifacts through
   the given stores and counts every decode, encode and compute, so a
   case can tell a memory hit from a disk hit from a recomputation. *)
type counts = { decodes : int ref; encodes : int ref; computes : int ref }

let string_kind : string Store.kind = Store.kind ()

let counting () =
  let c = { decodes = ref 0; encodes = ref 0; computes = ref 0 } in
  let fetch ?(kind = string_kind) ?scope ?(compute = fun () -> "computed") stores key =
    Store.fetch ~kind ?scope stores key
      (fun r ->
        incr c.decodes;
        Codec.r_string r)
      (fun v b ->
        incr c.encodes;
        Codec.w_string b v)
      (fun () ->
        incr c.computes;
        compute ())
  in
  (c, fetch)

let check_counts what c ~decodes ~encodes ~computes =
  Alcotest.(check (list int))
    (what ^ ": decodes, encodes, computes")
    [ decodes; encodes; computes ]
    [ !(c.decodes); !(c.encodes); !(c.computes) ]

let read_bytes t = (Store.stats t).Store.read_bytes

let test_memory_hit_skips_decode () =
  with_store "memory_hit" (fun t ->
      let c, fetch = counting () in
      let computed = Key.(int (v "memory_probe") "case" 1) in
      let on_disk = Key.(int (v "memory_probe") "case" 2) in
      Alcotest.(check (pair string bool)) "computed" ("computed", false) (fetch [ t ] computed);
      Store.save t on_disk (fun b -> Codec.w_string b "saved");
      Alcotest.(check (pair string bool)) "disk hit" ("saved", true) (fetch [ t ] on_disk);
      check_counts "cold" c ~decodes:1 ~encodes:1 ~computes:1;
      let hits = (Store.stats t).Store.hits and bytes = read_bytes t in
      Alcotest.(check (pair string bool)) "computed, remembered" ("computed", true)
        (fetch [ t ] computed);
      Alcotest.(check (pair string bool)) "decoded, remembered" ("saved", true)
        (fetch [ t ] on_disk);
      check_counts "warm" c ~decodes:1 ~encodes:1 ~computes:1;
      Alcotest.(check int) "memory hits count as hits" (hits + 2) (Store.stats t).Store.hits;
      Alcotest.(check int) "read_bytes unchanged" bytes (read_bytes t))

let test_memory_fresh_handle_cold () =
  with_store "memory_fresh" (fun t ->
      let c, fetch = counting () in
      let key = Key.(int (v "memory_probe") "case" 3) in
      ignore (fetch [ t ] key);
      ignore (fetch [ t ] key);
      check_counts "first handle" c ~decodes:0 ~encodes:1 ~computes:1;
      let fresh = Store.open_dir (Store.dir t) in
      Alcotest.(check (pair string bool)) "fresh handle hits disk" ("computed", true)
        (fetch [ fresh ] key);
      ignore (fetch [ fresh ] key);
      check_counts "fresh handle decodes once" c ~decodes:1 ~encodes:1 ~computes:1;
      Alcotest.(check bool) "fresh handle read the entry" true (read_bytes fresh > 0))

let test_memory_kinds_disjoint () =
  with_store "memory_kinds" (fun t ->
      let c, fetch = counting () in
      let key = Key.(int (v "memory_probe") "case" 4) in
      ignore (fetch [ t ] key);
      let other : string Store.kind = Store.kind () in
      Alcotest.(check (pair string bool)) "other kind decodes" ("computed", true)
        (fetch ~kind:other [ t ] key);
      check_counts "other kind" c ~decodes:1 ~encodes:1 ~computes:1)

(* A string of [n] bytes encodes to a payload a little over [n]. *)
let blob n tag = String.make n tag

(* Half the budget is the admission limit: an artifact between half and
   the whole budget would fit alone, but keeping it would flush every
   smaller entry, so it is not kept either. *)
let test_memory_over_budget_not_kept () =
  List.iter
    (fun (label, size) ->
      with_store (Printf.sprintf "memory_big_%d" size) (fun t ->
          let c, fetch = counting () in
          let small = Key.(int (v "memory_probe") "case" 5) in
          let key = Key.(int (v "memory_probe") "case" 6) in
          let big = blob size 'b' in
          ignore (fetch [ t ] small);
          ignore (fetch ~compute:(fun () -> big) [ t ] key);
          Alcotest.(check bool) (label ^ ": second fetch served") true
            (fetch [ t ] key = (big, true));
          check_counts label c ~decodes:1 ~encodes:2 ~computes:2;
          Alcotest.(check (pair string bool)) (label ^ ": small entry kept") ("computed", true)
            (fetch [ t ] small);
          check_counts (label ^ ": small entry not evicted for it") c ~decodes:1 ~encodes:2
            ~computes:2))
    [ ("over budget", Store.memory_budget); ("over half the budget", Store.memory_budget * 3 / 5) ]

let test_memory_lru_order () =
  with_store "memory_lru" (fun t ->
      let c, fetch = counting () in
      (* two entries fit the budget, three do not *)
      let size = Store.memory_budget * 2 / 5 in
      let key i = Key.(int (v "memory_probe") "lru" i) in
      let put i tag = ignore (fetch ~compute:(fun () -> blob size tag) [ t ] (key i)) in
      let served i = snd (fetch [ t ] (key i)) in
      put 1 'a';
      put 2 'b';
      Alcotest.(check bool) "1 used again" true (served 1);
      put 3 'c';
      check_counts "three computed" c ~decodes:0 ~encodes:3 ~computes:3;
      Alcotest.(check bool) "1 kept" true (served 1);
      Alcotest.(check bool) "3 kept" true (served 3);
      check_counts "1 and 3 from memory" c ~decodes:0 ~encodes:3 ~computes:3;
      Alcotest.(check bool) "2 read back" true (served 2);
      check_counts "2, least recently used, was evicted" c ~decodes:1 ~encodes:3 ~computes:3;
      (* reading 2 back evicted 1, now the least recently used *)
      Alcotest.(check bool) "3 still kept" true (served 3);
      Alcotest.(check bool) "1 read back" true (served 1);
      check_counts "1 evicted by 2" c ~decodes:2 ~encodes:3 ~computes:3)

let test_memory_compute_raises () =
  with_store "memory_raise" (fun t ->
      let c, fetch = counting () in
      let key = Key.(int (v "memory_probe") "case" 7) in
      (match fetch ~compute:(fun () -> raise Compute_died) [ t ] key with
      | _ -> Alcotest.fail "compute exception must propagate"
      | exception Compute_died -> ());
      Alcotest.(check (pair string bool)) "recomputed" ("computed", false) (fetch [ t ] key);
      check_counts "nothing remembered" c ~decodes:0 ~encodes:1 ~computes:2)

let test_fetch_encodes_once () =
  with_store "encode_first" (fun first ->
      with_store "encode_second" (fun second ->
          let c, fetch = counting () in
          let key = Key.(int (v "memory_probe") "case" 8) in
          ignore (fetch ~compute:(fun () -> blob 100_000 'e') [ first; second ] key);
          check_counts "one encode for two stores" c ~decodes:0 ~encodes:1 ~computes:1;
          Alcotest.(check bool) "entries byte-identical" true
            (String.equal
               (read_file (Store.entry_path first key))
               (read_file (Store.entry_path second key)))))

(* A scope answers before every store: its hits touch no handle. *)
let test_scope_hit_touches_no_store () =
  with_store "scope_hit" (fun t ->
      let c, fetch = counting () in
      let scope = Store.scope () in
      let computed = Key.(int (v "scope_probe") "case" 1) in
      let on_disk = Key.(int (v "scope_probe") "case" 2) in
      Store.save t on_disk (fun b -> Codec.w_string b "saved");
      Alcotest.(check (pair string bool)) "computed" ("computed", false)
        (fetch ~scope [ t ] computed);
      Alcotest.(check (pair string bool)) "disk hit" ("saved", true) (fetch ~scope [ t ] on_disk);
      check_counts "cold" c ~decodes:1 ~encodes:1 ~computes:1;
      let before = Store.stats t in
      Alcotest.(check (pair string bool)) "computed, held" ("computed", true)
        (fetch ~scope [ t ] computed);
      Alcotest.(check (pair string bool)) "decoded, held" ("saved", true)
        (fetch ~scope [ t ] on_disk);
      check_counts "scope hits" c ~decodes:1 ~encodes:1 ~computes:1;
      Alcotest.(check bool) "store stats untouched" true (Store.stats t = before);
      Alcotest.(check (pair string bool)) "another scope asks the store" ("computed", true)
        (fetch ~scope:(Store.scope ()) [ t ] computed);
      Alcotest.(check int) "one more store hit" (before.Store.hits + 1) (Store.stats t).Store.hits)

(* A scoped value is its scope's to hold: neither a computed nor a
   decoded one enters the handle's memory, so a later fetch without
   the scope decodes it from disk. *)
let test_scope_skips_memory () =
  with_store "scope_memory" (fun t ->
      let c, fetch = counting () in
      let computed = Key.(int (v "scope_probe") "case" 4) in
      let on_disk = Key.(int (v "scope_probe") "case" 5) in
      Store.save t on_disk (fun b -> Codec.w_string b "saved");
      ignore (fetch ~scope:(Store.scope ()) [ t ] computed);
      ignore (fetch ~scope:(Store.scope ()) [ t ] on_disk);
      check_counts "scoped" c ~decodes:1 ~encodes:1 ~computes:1;
      Alcotest.(check (pair string bool))
        "computed, saved" ("computed", true) (fetch [ t ] computed);
      Alcotest.(check (pair string bool)) "decoded, saved" ("saved", true) (fetch [ t ] on_disk);
      check_counts "both read from disk" c ~decodes:3 ~encodes:1 ~computes:1)

(* With no store a scope still holds what it computed, at any size, and
   nothing is encoded. *)
let test_scope_without_store () =
  let c, fetch = counting () in
  let scope = Store.scope () in
  let key = Key.(int (v "scope_probe") "case" 3) in
  let big = blob Store.memory_budget 's' in
  Alcotest.(check bool) "computed" true
    (fetch ~scope ~compute:(fun () -> big) [] key = (big, false));
  Alcotest.(check bool) "held" true (fetch ~scope [] key = (big, true));
  check_counts "one compute, no encode" c ~decodes:0 ~encodes:0 ~computes:1;
  Alcotest.(check bool) "no scope recomputes" true (fetch [] key = ("computed", false))

(* A stored library whose cell count contradicts the specs in its key
   passed the checksum but is logically corrupt: it must be evicted and
   recomputed, never served. *)
let test_nominal_rejects_wrong_cell_count () =
  with_store "nominal_cells" (fun t ->
      let config = Characterize.default_config in
      let specs = Helpers.small_specs in
      let key =
        Characterize.add_specs_to_key
          (Characterize.add_config_to_key (Key.v "nominal") config)
          specs
      in
      let short = Characterize.library config (List.tl specs) in
      Store.save t key (fun b -> Codec.w_library b short);
      let reference = encode Codec.w_library (Characterize.nominal ~specs config) in
      let lib = Characterize.nominal ~specs ~store:t config in
      Alcotest.(check int) "expected cell count"
        (Characterize.expected_cells specs)
        (Vartune_liberty.Library.size lib);
      Alcotest.(check string) "bit-identical to a store-less run" reference
        (encode Codec.w_library lib);
      Alcotest.(check int) "bad entry evicted" 1 (Store.stats t).Store.evictions;
      match Store.load t key Codec.r_library with
      | Some stored ->
        Alcotest.(check string) "entry now holds the correct library" reference
          (encode Codec.w_library stored)
      | None -> Alcotest.fail "recomputed library was not saved")

(* ------------------------------------------------------------------ *)
(* End-to-end: cold, warm and store-less runs are bit-identical        *)
(* ------------------------------------------------------------------ *)

let test_flow_cold_warm_identical () =
  with_store "flow" (fun t ->
      let prepare ?store () =
        Experiment.prepare_request ~mcu_config:tiny_config ?store
          (Vartune_flow.Request.Min_period { seed = 7; samples = 2 })
      in
      let tuning =
        {
          Tuning_method.population = Vartune_tuning.Cluster.Per_cell;
          criterion = Vartune_tuning.Threshold.Sigma_ceiling 0.02;
        }
      in
      let observe ?pool setup =
        let period = setup.Experiment.min_period *. 1.5 in
        let base = Experiment.baseline setup ~period in
        let points =
          Experiment.sweep ?pool setup ~baseline:base ~tuning ~parameters:[ 0.01; 0.05 ]
        in
        ( bits setup.Experiment.min_period,
          run_scalars base,
          List.map
            (fun (p : Experiment.sweep_point) ->
              (bits p.parameter, run_scalars p.run, bits p.reduction,
               bits p.area_delta))
            points )
      in
      let cold = observe (prepare ~store:t ()) in
      let after_cold = Store.stats t in
      Alcotest.(check bool) "cold run writes entries" true
        (after_cold.Store.writes > 0);
      let warm_setup = prepare ~store:t () in
      let pool = Pool.create ~jobs:4 () in
      let warm =
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () -> observe ~pool warm_setup)
      in
      let after_warm = Store.stats t in
      Alcotest.(check bool) "warm run hits the store" true
        (after_warm.Store.hits > after_cold.Store.hits);
      Alcotest.(check bool) "warm == cold (bitwise)" true (warm = cold);
      (* the shared store-less fixture is the reference *)
      let bare =
        observe (Experiment.fresh_cache (Lazy.force tiny_setup))
      in
      Alcotest.(check bool) "store-less == cold (bitwise)" true (bare = cold))

(* The restriction table is built only when a tuned run is computed:
   neither a second fetch in the same setup nor a warm store builds it. *)
let test_restrictions_built_on_compute () =
  with_store "restrictions" (fun t ->
      let prepare () =
        Experiment.prepare_request ~mcu_config:tiny_config ~store:t
          (Vartune_flow.Request.Min_period { seed = 7; samples = 2 })
      in
      let tuning =
        {
          Tuning_method.population = Vartune_tuning.Cluster.Per_cell;
          criterion = Vartune_tuning.Threshold.Sigma_ceiling 0.02;
        }
      in
      let module Obs = Vartune_obs.Obs in
      let opened () =
        List.length (List.filter (fun e -> e.Obs.name = "tuning.restrictions") (Obs.events ()))
      in
      let tables setup =
        let was = Obs.enabled () and before = opened () in
        Obs.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Obs.set_enabled was)
          (fun () ->
            ignore
              (Experiment.tuned setup ~period:(setup.Experiment.min_period *. 1.5) ~tuning));
        opened () - before
      in
      let cold = prepare () in
      Alcotest.(check int) "computed run builds the table" 1 (tables cold);
      Alcotest.(check int) "scope hit builds none" 0 (tables cold);
      Alcotest.(check int) "warm store builds none" 0 (tables (prepare ())))

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          Alcotest.test_case "library roundtrip" `Quick test_library_roundtrip;
          Alcotest.test_case "result roundtrip" `Slow test_result_roundtrip;
          Alcotest.test_case "decoded run derives the computed paths" `Slow
            test_decoded_run_paths;
          Alcotest.test_case "design sigma roundtrip" `Slow test_design_sigma_roundtrip;
        ] );
      ( "keys",
        [
          Alcotest.test_case "sensitivity" `Quick test_key_sensitivity;
          Alcotest.test_case "no aliasing" `Quick test_key_no_aliasing;
          Alcotest.test_case "fnv1a64 vectors" `Quick test_fnv1a64;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "evict and recompute" `Quick test_corruption_recovery;
          Alcotest.test_case "foreign version" `Quick test_wrong_version_is_miss;
          test_run_entry_boundary;
        ] );
      ( "locking",
        [
          Alcotest.test_case "encoder death releases lock" `Quick
            test_lock_released_when_encoder_dies;
          Alcotest.test_case "stale vs live locks" `Quick
            test_stale_lock_broken_live_lock_respected;
        ] );
      ( "concurrency",
        [ Alcotest.test_case "writers at 1/2/7" `Quick test_concurrent_writers ] );
      ( "fetch",
        [
          Alcotest.test_case "miss computes and writes all" `Quick
            test_fetch_miss_writes_all;
          Alcotest.test_case "first hit skips second" `Quick
            test_fetch_first_hit_skips_second;
          Alcotest.test_case "second hit not written back" `Quick
            test_fetch_second_hit_not_written_back;
          Alcotest.test_case "corrupt first falls through" `Quick
            test_fetch_corrupt_first_falls_through;
          Alcotest.test_case "compute raises, nothing saved" `Quick
            test_fetch_compute_raises;
          Alcotest.test_case "memory hit skips decode and compute" `Quick
            test_memory_hit_skips_decode;
          Alcotest.test_case "fresh handle is cold" `Quick test_memory_fresh_handle_cold;
          Alcotest.test_case "kinds never alias" `Quick test_memory_kinds_disjoint;
          Alcotest.test_case "over-budget artifact not kept" `Quick
            test_memory_over_budget_not_kept;
          Alcotest.test_case "LRU evicts least recently used" `Quick test_memory_lru_order;
          Alcotest.test_case "compute raises, nothing remembered" `Quick
            test_memory_compute_raises;
          Alcotest.test_case "one encode for every store" `Quick test_fetch_encodes_once;
          Alcotest.test_case "scope hit touches no store" `Quick
            test_scope_hit_touches_no_store;
          Alcotest.test_case "scope without store" `Quick test_scope_without_store;
          Alcotest.test_case "scoped values stay out of memory" `Quick test_scope_skips_memory;
          Alcotest.test_case "nominal rejects wrong cell count" `Quick
            test_nominal_rejects_wrong_cell_count;
        ] );
      ( "flow",
        [
          Alcotest.test_case "cold/warm/no-store identical" `Slow
            test_flow_cold_warm_identical;
          Alcotest.test_case "restrictions built on compute only" `Slow
            test_restrictions_built_on_compute;
        ] );
    ]
