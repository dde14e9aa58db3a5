(* Tests for Vartune_journal and the checkpoint/resume machinery it
   drives: step-record round-trips through the checksummed file format,
   corruption detection (truncation, bit flips, torn records), append
   degradation under injected faults, and interrupted-and-resumed
   statistical-library builds that must be bit-identical to
   uninterrupted ones at any pool size — with fewer samples recomputed,
   asserted via telemetry counters. *)

module Journal = Vartune_journal.Journal
module Fault = Vartune_fault.Fault
module Store = Vartune_store.Store
module Obs = Vartune_obs.Obs
module Pool = Vartune_util.Pool
module Statistical = Vartune_statlib.Statistical
module Characterize = Vartune_charlib.Characterize
module Catalog = Vartune_stdcell.Catalog
module Mismatch = Vartune_process.Mismatch
module Printer = Vartune_liberty.Printer
module Request = Vartune_flow.Request
module Tuning_method = Vartune_tuning.Tuning_method

let temp_root =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "vartune_test_journal_%d" (Unix.getpid ()))

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_path name =
  mkdir_p temp_root;
  let path = Filename.concat temp_root name in
  if Sys.file_exists path then Sys.remove path;
  path

let all_steps =
  [
    Journal.Run_started
      {
        request =
          Request.to_line
            (Request.Sweep
               {
                 base = { seed = 42; samples = 50 };
                 tuning = Option.get (Tuning_method.of_string "cell/ceiling=0.02");
                 period = Some 4.08;
                 parameters = [ 0.01; 0.02; 0.05 ];
                 mc_samples = Some 2000;
               });
        output = Some "out.lib";
      };
    Journal.Run_started
      { request = Request.to_line (Request.Statlib { seed = 1; samples = 8 }); output = None };
    Journal.Block_done { statlib = "statlib(n=8)"; lo = 0; hi = 4 };
    Journal.Checkpoint
      { statlib = "statlib(n=8)"; blocks = 1; samples_done = 4; key = "partial(blocks=1)" };
    Journal.Statlib_built { key = "statlib(n=8)" };
    Journal.Min_period { key = "min_period(...)"; period = 4.08 };
    Journal.Synthesis_done { key = "synth_run(...)"; label = "baseline"; period = 4.08 };
    Journal.Sweep_done { tuning = "cell/ceiling=0.02"; period = 4.08; points = 3 };
    Journal.Resumed { replayed = 7 };
    Journal.Sealed { reason = "completed" };
  ]

let step = Alcotest.testable (fun ppf s -> Fmt.string ppf (Journal.step_to_string s)) ( = )

(* ------------------------------------------------------------------ *)
(* File format                                                         *)
(* ------------------------------------------------------------------ *)

let test_round_trip () =
  let path = fresh_path "round_trip.vtj" in
  let j = Journal.create path in
  List.iter (Journal.append j) all_steps;
  Journal.close j;
  Alcotest.(check (list step)) "replay returns every step" all_steps (Journal.replay path)

let test_append_after_seal () =
  let path = fresh_path "sealed.vtj" in
  let j = Journal.create path in
  Journal.append j (Journal.Resumed { replayed = 0 });
  Journal.seal j ~reason:"completed";
  (* sealing closes the handle; later appends are silent no-ops *)
  Journal.append j (Journal.Resumed { replayed = 1 });
  Alcotest.(check (list step))
    "nothing lands after seal"
    [ Journal.Resumed { replayed = 0 }; Journal.Sealed { reason = "completed" } ]
    (Journal.replay path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let check_corrupt name path =
  match Journal.replay path with
  | _ -> Alcotest.failf "%s: replay accepted a damaged journal" name
  | exception Journal.Corrupt _ -> ()

let test_truncation_detected () =
  let path = fresh_path "truncated.vtj" in
  let j = Journal.create path in
  List.iter (Journal.append j) all_steps;
  Journal.close j;
  let contents = read_file path in
  (* chop a few bytes off the tail: the final record is torn *)
  write_file path (String.sub contents 0 (String.length contents - 3));
  check_corrupt "truncated tail" path;
  (* chop into the header *)
  write_file path (String.sub contents 0 4);
  check_corrupt "truncated header" path

let test_bit_flip_detected () =
  let path = fresh_path "bitflip.vtj" in
  let j = Journal.create path in
  List.iter (Journal.append j) all_steps;
  Journal.close j;
  let pristine = read_file path in
  (* flip one bit at several positions across the file: header damage,
     checksum damage and payload damage must all be caught *)
  List.iter
    (fun pos ->
      let damaged = Bytes.of_string pristine in
      Bytes.set damaged pos (Char.chr (Char.code (Bytes.get damaged pos) lxor 0x10));
      write_file path (Bytes.to_string damaged);
      check_corrupt (Printf.sprintf "bit flip at %d" pos) path)
    [ 0; 9; 30; String.length pristine / 2; String.length pristine - 2 ]

let test_write_fault_degrades () =
  let path = fresh_path "degrade.vtj" in
  let j = Journal.create path in
  Journal.append j (Journal.Resumed { replayed = 1 });
  Fault.with_spec "write=#1" (fun () ->
      Journal.append j (Journal.Resumed { replayed = 2 });
      Alcotest.(check bool) "handle degraded after write fault" true (Journal.degraded j);
      (* degraded handles swallow later appends instead of raising *)
      Journal.append j (Journal.Resumed { replayed = 3 }));
  Journal.close j;
  Alcotest.(check (list step))
    "the pre-fault prefix replays cleanly"
    [ Journal.Resumed { replayed = 1 } ]
    (Journal.replay path)

let test_partial_write_torn_record () =
  let path = fresh_path "torn.vtj" in
  let j = Journal.create path in
  Journal.append j (Journal.Resumed { replayed = 1 });
  Fault.with_spec "partial_write=#1" (fun () ->
      Journal.append j (Journal.Resumed { replayed = 2 }));
  Alcotest.(check bool) "handle degraded after torn write" true (Journal.degraded j);
  Journal.close j;
  (* the torn record is on disk; replay must refuse the whole file
     rather than hand back a guessed prefix *)
  check_corrupt "torn record" path

(* A journal written under the previous layout (version 2, whose
   run-started record held loose parameter fields) is refused by the
   header check before any record is decoded. *)
let test_old_version_refused () =
  let path = fresh_path "v2.vtj" in
  Helpers.journal_with_version path ~version:2 [ Journal.Resumed { replayed = 0 } ];
  match Journal.replay path with
  | _ -> Alcotest.fail "replay accepted a version-2 journal"
  | exception Journal.Corrupt msg ->
    List.iter
      (fun v ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names version %d" msg v)
          true
          (Helpers.contains msg (string_of_int v)))
      [ 2; Journal.version ]

(* ------------------------------------------------------------------ *)
(* Checkpointed builds: interrupt, resume, bit-identity                *)
(* ------------------------------------------------------------------ *)

let config = Characterize.default_config
let mismatch = Mismatch.default
let inv_only = List.filter_map Catalog.find [ "INV" ]

let with_run name f =
  let dir = Filename.concat temp_root name in
  mkdir_p dir;
  let state = Store.open_dir (Filename.concat dir "state") in
  Store.wipe state;
  Fun.protect ~finally:(fun () -> Store.wipe state) (fun () -> f dir state)

(* A ctx built by hand so the stop-after-N-blocks hook is per-test
   state, not process environment. *)
let ctx ~journal ~state ?(replayed = []) ?stop_after () =
  {
    Journal.journal;
    state;
    stop = Atomic.make false;
    every_blocks = 1;
    replayed;
    stop_after_blocks = stop_after;
    blocks_recorded = Atomic.make 0;
  }

let counter name = Obs.counter_value name

let with_counters f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

let build ?ckpt ~pool ~n () =
  Statistical.build ~pool ?ckpt config ~mismatch ~seed:7 ~n ~specs:inv_only ()

(* Interrupt a checkpointed build after its first block round, resume
   it from the journal, and require the resumed library to be
   byte-identical to an uninterrupted build — while recomputing
   strictly fewer samples, measured via the statlib.samples counter. *)
let test_interrupt_resume_bit_identical jobs () =
  with_counters @@ fun () ->
  with_run (Printf.sprintf "resume_j%d" jobs) @@ fun dir state ->
  let n = 24 in
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let reference = build ~pool ~n () in
  let jpath = Filename.concat dir "journal.vtj" in
  let j = Journal.create jpath in
  let c = ctx ~journal:j ~state ~stop_after:1 () in
  let checkpoints_before = counter "journal.checkpoints" in
  (match build ~ckpt:c ~pool ~n () with
  | _ -> Alcotest.fail "build ignored the stop request"
  | exception Journal.Interrupted _ -> ());
  Journal.seal j ~reason:"interrupted";
  Alcotest.(check bool)
    "at least one checkpoint journaled" true
    (counter "journal.checkpoints" > checkpoints_before);
  Alcotest.(check int) "no tasks in flight after the interrupt" 0 (Pool.in_flight pool);
  Alcotest.(check int) "no tasks queued after the interrupt" 0 (Pool.queued pool);
  let replayed = Journal.replay jpath in
  let j2 = Journal.open_append jpath in
  let c2 = ctx ~journal:j2 ~state ~replayed () in
  let samples_before = counter "statlib.samples" in
  let resumed = build ~ckpt:c2 ~pool ~n () in
  let recomputed = counter "statlib.samples" - samples_before in
  Journal.seal j2 ~reason:"completed";
  Alcotest.(check string)
    "resumed library bit-identical to uninterrupted"
    (Printer.to_string reference) (Printer.to_string resumed);
  Alcotest.(check bool)
    (Printf.sprintf "resume recomputed fewer samples (%d < %d)" recomputed n)
    true
    (recomputed > 0 && recomputed < n)

(* A corrupt checkpoint must never poison the result: the resuming
   build detects it (the store evicts the entry), falls back to a cold
   start, and still produces the uninterrupted bytes. *)
let test_corrupt_checkpoint_falls_back () =
  with_counters @@ fun () ->
  with_run "corrupt_ckpt" @@ fun dir state ->
  let n = 16 in
  let pool = Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let reference = build ~pool ~n () in
  let jpath = Filename.concat dir "journal.vtj" in
  let j = Journal.create jpath in
  let c = ctx ~journal:j ~state ~stop_after:1 () in
  (match build ~ckpt:c ~pool ~n () with
  | _ -> Alcotest.fail "build ignored the stop request"
  | exception Journal.Interrupted _ -> ());
  Journal.close j;
  (* flip a byte inside every checkpointed partial on disk *)
  let replayed = Journal.replay jpath in
  let statlib_id, blocks =
    match
      List.find_map
        (function
          | Journal.Checkpoint { statlib; blocks; _ } -> Some (statlib, blocks) | _ -> None)
        replayed
    with
    | Some found -> found
    | None -> Alcotest.fail "interrupted build journaled no checkpoint"
  in
  let path = Store.entry_path state (Statistical.checkpoint_key ~id:statlib_id ~blocks) in
  let contents = read_file path in
  let damaged = Bytes.of_string contents in
  let pos = Bytes.length damaged / 2 in
  Bytes.set damaged pos (Char.chr (Char.code (Bytes.get damaged pos) lxor 0x20));
  write_file path (Bytes.to_string damaged);
  let j2 = Journal.open_append jpath in
  let c2 = ctx ~journal:j2 ~state ~replayed () in
  let samples_before = counter "statlib.samples" in
  let resumed = build ~ckpt:c2 ~pool ~n () in
  let recomputed = counter "statlib.samples" - samples_before in
  Journal.close j2;
  Alcotest.(check string)
    "fallback result bit-identical to uninterrupted"
    (Printer.to_string reference) (Printer.to_string resumed);
  Alcotest.(check int) "corrupt checkpoint forced a full recompute" n recomputed

let () =
  Alcotest.run "journal"
    [
      ( "format",
        [
          Alcotest.test_case "steps round-trip" `Quick test_round_trip;
          Alcotest.test_case "append after seal" `Quick test_append_after_seal;
          Alcotest.test_case "truncation detected" `Quick test_truncation_detected;
          Alcotest.test_case "bit flips detected" `Quick test_bit_flip_detected;
          Alcotest.test_case "write fault degrades" `Quick test_write_fault_degrades;
          Alcotest.test_case "torn record refused" `Quick test_partial_write_torn_record;
          Alcotest.test_case "version 2 refused" `Quick test_old_version_refused;
        ] );
      ( "resume",
        [
          Alcotest.test_case "bit-identical at jobs=1" `Slow
            (test_interrupt_resume_bit_identical 1);
          Alcotest.test_case "bit-identical at jobs=2" `Slow
            (test_interrupt_resume_bit_identical 2);
          Alcotest.test_case "bit-identical at jobs=4" `Slow
            (test_interrupt_resume_bit_identical 4);
          Alcotest.test_case "corrupt checkpoint falls back" `Slow
            test_corrupt_checkpoint_falls_back;
        ] );
    ]
