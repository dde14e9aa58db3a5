(* Tests for Vartune_fault.Fault and the failure paths it drives: the
   deterministic schedule engine, store retry/degradation, pool crash
   recovery and stall detection, CLI error classification, and
   end-to-end fault sweeps of the experiment flow at pool sizes 1/2/7
   asserting bit-identical completion or clean typed failure with an
   uncorrupted store. *)

module Fault = Vartune_fault.Fault
module Pool = Vartune_util.Pool
module Store = Vartune_store.Store
module Key = Vartune_store.Store.Key
module Codec = Vartune_store.Codec
module Experiment = Vartune_flow.Experiment
module Synthesis = Vartune_synth.Synthesis
module Design_sigma = Vartune_stats.Design_sigma
module Dist = Vartune_stats.Dist
module Tuning_method = Vartune_tuning.Tuning_method
module Mcu = Vartune_rtl.Microcontroller

let temp_root =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "vartune_test_fault_%d" (Unix.getpid ()))

let with_store name f =
  let t = Store.open_dir (Filename.concat temp_root name) in
  Store.wipe t;
  Fun.protect ~finally:(fun () -> Store.wipe t) (fun () -> f t)

let all_points =
  [
    Fault.Read; Fault.Write; Fault.Rename; Fault.Lock; Fault.Fsync;
    Fault.Worker_crash; Fault.Enospc; Fault.Partial_write; Fault.Delay;
  ]

(* ------------------------------------------------------------------ *)
(* Schedule engine                                                     *)
(* ------------------------------------------------------------------ *)

let decisions spec n =
  Fault.with_spec spec (fun () ->
      List.init n (fun _ -> Fault.fires Fault.Write ~site:"test"))

let test_determinism () =
  let a = decisions "write=0.5:42" 200 in
  let b = decisions "write=0.5:42" 200 in
  Alcotest.(check (list bool)) "same seed, same decisions" a b;
  let c = decisions "write=0.5:43" 200 in
  Alcotest.(check bool) "different seed, different decisions" true (a <> c);
  let fired = List.length (List.filter Fun.id a) in
  Alcotest.(check bool) "rate 0.5 fires a plausible fraction" true
    (fired > 50 && fired < 150)

let test_rate_extremes () =
  Fault.with_spec "read=1.0,write=0.0:9" (fun () ->
      for _ = 1 to 50 do
        Alcotest.(check bool) "read always fires" true
          (Fault.fires Fault.Read ~site:"test");
        Alcotest.(check bool) "write never fires" false
          (Fault.fires Fault.Write ~site:"test")
      done;
      Alcotest.(check int) "injected read" 50 (Fault.injected Fault.Read);
      Alcotest.(check int) "injected write" 0 (Fault.injected Fault.Write);
      Alcotest.(check int) "occurrences write" 50 (Fault.occurrences Fault.Write);
      Alcotest.(check int) "total" 50 (Fault.total_injected ()))

let test_nth_occurrence () =
  Fault.with_spec "rename=#3:0" (fun () ->
      let hits = List.init 10 (fun _ -> Fault.fires Fault.Rename ~site:"test") in
      Alcotest.(check (list bool)) "only the 3rd occurrence"
        [ false; false; true; false; false; false; false; false; false; false ]
        hits;
      Alcotest.(check int) "exactly one injection" 1 (Fault.injected Fault.Rename))

let test_check_raises () =
  Fault.with_spec "fsync=#1:0" (fun () ->
      (match Fault.check Fault.Fsync ~site:"unit.check" with
      | () -> Alcotest.fail "expected Injected"
      | exception Fault.Injected { point; site; seq } ->
        Alcotest.(check string) "site" "unit.check" site;
        Alcotest.(check int) "seq" 1 seq;
        Alcotest.(check bool) "point" true (point = Fault.Fsync));
      (* points the schedule does not mention never fire *)
      Fault.check Fault.Read ~site:"unit.check")

let test_parse_errors () =
  Fault.clear ();
  List.iter
    (fun spec ->
      match Fault.configure spec with
      | Error _ -> ()
      | Ok () ->
        Fault.clear ();
        Alcotest.failf "spec %S should be rejected" spec)
    [
      ""; "bogus=0.5"; "write=1.5"; "write=-0.1"; "write=#0"; "write=#x"; "write";
      "write=0.5:notaseed";
    ];
  Alcotest.(check bool) "bad specs leave injection inactive" false (Fault.active ());
  (* a bad spec must not clobber an active schedule *)
  Fault.with_spec "write=1.0:1" (fun () ->
      (match Fault.configure "bogus=1" with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "bogus spec parsed");
      Alcotest.(check bool) "previous schedule still active" true
        (Fault.fires Fault.Write ~site:"test"))

let test_point_string_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (Fault.point_to_string p) true
        (Fault.point_of_string (Fault.point_to_string p) = Some p))
    all_points;
  Alcotest.(check bool) "unknown name" true (Fault.point_of_string "nope" = None)

let test_with_spec_restores () =
  Fault.clear ();
  (match Fault.with_spec "read=1.0:0" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  Alcotest.(check bool) "cleared after exception" false (Fault.active ());
  (match Fault.with_spec "bogus=1" (fun () -> ()) with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_disabled_probe_allocates_nothing () =
  Fault.clear ();
  ignore (Fault.fires Fault.Read ~site:"warmup");
  let baseline = minor_delta (fun () -> for _ = 1 to 10_000 do () done) in
  let probes =
    minor_delta (fun () ->
        for _ = 1 to 10_000 do
          Fault.check Fault.Read ~site:"probe"
        done)
  in
  Alcotest.(check (float 0.0)) "no allocation per disabled probe" baseline probes

(* ------------------------------------------------------------------ *)
(* Pool crash recovery and stall detection                             *)
(* ------------------------------------------------------------------ *)

let test_worker_crash_restart () =
  let pool = Pool.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let xs = List.init 8 Fun.id in
      let results =
        Fault.with_spec "worker_crash=#1:0" (fun () ->
            Pool.map pool
              (fun x ->
                Unix.sleepf 0.02;
                x * x)
              xs)
      in
      Alcotest.(check (list int)) "results intact after a crash"
        (List.map (fun x -> x * x) xs)
        results;
      Alcotest.(check int) "one restart" 1 (Pool.restarts pool))

let test_worker_crash_storm () =
  let pool = Pool.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let xs = List.init 24 Fun.id in
      let outcome =
        Fault.with_spec "worker_crash=1.0:13" (fun () ->
            match Pool.map pool (fun x -> Unix.sleepf 0.002; x + 1) xs with
            | ys -> Ok ys
            | exception Pool.Worker_failure _ -> Error ())
      in
      (match outcome with
      | Ok ys ->
        Alcotest.(check (list int)) "completed despite crashes" (List.map succ xs) ys
      | Error () -> (* clean typed failure is the other legal outcome *) ());
      Alcotest.(check bool) "restarts recorded" true (Pool.restarts pool > 0);
      Alcotest.(check (list int)) "pool usable afterwards" [ 1; 2; 3 ]
        (Pool.map pool Fun.id [ 1; 2; 3 ]))

let test_stall_watchdog () =
  let pool = Pool.create ~jobs:2 ~stall_timeout_s:0.3 () in
  let release = Atomic.make false in
  let caller = Domain.self () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Pool.shutdown pool)
    (fun () ->
      (* tasks landing on worker domains wedge until released; the
         caller's own share completes, so only the watchdog can end the
         wait *)
      let task _ =
        Unix.sleepf 0.02;
        if Domain.self () <> caller then
          while not (Atomic.get release) do
            Unix.sleepf 0.005
          done
      in
      match Pool.map pool task (List.init 8 Fun.id) with
      | _ -> Alcotest.fail "expected Worker_failure from the stall watchdog"
      | exception Pool.Worker_failure _ -> ())

(* ------------------------------------------------------------------ *)
(* Store hardening                                                     *)
(* ------------------------------------------------------------------ *)

let payload b =
  Codec.w_string b "payload";
  Codec.w_float b 1.5

let decode_payload r =
  let s = Codec.r_string r in
  let f = Codec.r_float r in
  (s, f)

let expect_hit what t key =
  match Store.load t key decode_payload with
  | Some ("payload", 1.5) -> ()
  | _ -> Alcotest.fail (what ^ ": expected a clean hit")

let test_store_retries_transients () =
  with_store "retry" (fun t ->
      let key = Key.(int (v "fault_retry") "x" 1) in
      Fault.with_spec "write=#1,read=#1:0" (fun () ->
          Store.save t key payload;
          expect_hit "save/load under faults" t key);
      expect_hit "fault-free reload" t key;
      let stats = Store.stats t in
      Alcotest.(check bool) "retries recorded" true (stats.Store.retries >= 2);
      Alcotest.(check int) "no exhausted failures" 0 stats.Store.errors;
      Alcotest.(check bool) "not degraded" false stats.Store.degraded)

let test_store_enospc_degrades () =
  with_store "enospc" (fun t ->
      let key = Key.(int (v "fault_enospc") "x" 2) in
      Fault.with_spec "enospc=1.0:0" (fun () ->
          Store.save t key payload;
          Alcotest.(check bool) "degraded after ENOSPC" true (Store.degraded t);
          (match Store.load_result t key decode_payload with
          | Error Store.Disabled -> ()
          | _ -> Alcotest.fail "expected Error Disabled");
          (* a degraded handle swallows saves and misses loads, never
             raises *)
          Store.save t key payload;
          Alcotest.(check bool) "load misses" true
            (Store.load t key decode_payload = None));
      Alcotest.(check int) "nothing landed" 0 (Store.entry_count t);
      Alcotest.(check bool) "degraded stat" true (Store.stats t).Store.degraded;
      (* a fresh handle on the same directory is healthy *)
      let fresh = Store.open_dir (Store.dir t) in
      Store.save fresh key payload;
      expect_hit "fresh handle works" fresh key)

let test_store_save_result_io_error () =
  with_store "exhaust" (fun t ->
      let key = Key.(int (v "fault_exhaust") "x" 3) in
      Fault.with_spec "rename=1.0:0" (fun () ->
          match Store.save_result t key payload with
          | Error (Store.Io _) -> ()
          | Ok () -> Alcotest.fail "expected Error Io"
          | Error e -> Alcotest.failf "unexpected error %s" (Store.error_to_string e));
      Alcotest.(check int) "no entry landed" 0 (Store.entry_count t);
      Alcotest.(check bool) "lock released" false
        (Sys.file_exists (Store.entry_path t key ^ ".lock"));
      (* plain save swallows the same failure, then recovers *)
      Fault.with_spec "rename=1.0:0" (fun () -> Store.save t key payload);
      Store.save t key payload;
      expect_hit "store recovers" t key)

let test_store_partial_write_evicted () =
  with_store "partial" (fun t ->
      let key = Key.(int (v "fault_partial") "x" 4) in
      Fault.with_spec "partial_write=1.0:0" (fun () -> Store.save t key payload);
      (* the truncated entry landed silently; the reader detects and
         evicts it rather than serving corrupt bytes *)
      Alcotest.(check int) "truncated entry landed" 1 (Store.entry_count t);
      Alcotest.(check bool) "truncated -> miss" true
        (Store.load t key decode_payload = None);
      Alcotest.(check bool) "evicted" false (Sys.file_exists (Store.entry_path t key));
      Alcotest.(check int) "eviction recorded" 1 (Store.stats t).Store.evictions;
      Store.save t key payload;
      expect_hit "recompute and land" t key)

let test_store_degrades_after_repeated_failures () =
  with_store "degrade" (fun t ->
      Fault.with_spec "write=1.0:0" (fun () ->
          for i = 1 to Store.retry_attempts * 10 do
            Store.save t Key.(int (v "fault_degrade") "i" i) payload
          done;
          Alcotest.(check bool) "degraded after repeated failures" true
            (Store.degraded t));
      Alcotest.(check int) "nothing landed" 0 (Store.entry_count t))

(* ------------------------------------------------------------------ *)
(* CLI error classification                                            *)
(* ------------------------------------------------------------------ *)

let test_classify_exn () =
  let check name expected exn =
    match Experiment.classify_exn exn with
    | Some f -> Alcotest.(check int) name expected (Experiment.exit_code f)
    | None -> Alcotest.fail (name ^ ": expected a classification")
  in
  check "lexer error" 65 (Vartune_liberty.Lexer.Error { line = 3; message = "bad" });
  check "sys error" 74 (Sys_error "disk gone");
  check "unix error" 74 (Unix.Unix_error (Unix.EIO, "read", "f"));
  check "worker failure" 75 (Pool.Worker_failure "stalled");
  check "escaped injection" 70
    (Fault.Injected { point = Fault.Read; site = "x"; seq = 1 });
  Alcotest.(check bool) "unrelated exceptions stay unclassified" true
    (Experiment.classify_exn (Failure "x") = None)

(* ------------------------------------------------------------------ *)
(* End-to-end fault schedule sweep                                     *)
(* ------------------------------------------------------------------ *)

(* smaller than test_store's tiny fixture: this suite re-runs the whole
   flow once per (schedule, pool-size) pair, so every run must be cheap *)
let tiny_config =
  { Mcu.xlen = 32; reg_count = 4; mul_width = 2; irq_lines = 2; bus_slaves = 2 }

let tuning =
  {
    Tuning_method.population = Vartune_tuning.Cluster.Per_cell;
    criterion = Vartune_tuning.Threshold.Sigma_ceiling 0.02;
  }

let bits = Int64.bits_of_float

let run_scalars (r : Experiment.run) =
  ( r.Experiment.label,
    bits r.period,
    bits r.result.Synthesis.worst_slack,
    bits r.result.Synthesis.area,
    r.result.Synthesis.feasible,
    r.result.Synthesis.instances,
    List.length r.paths,
    bits r.design_sigma.Design_sigma.dist.Dist.mean,
    bits r.design_sigma.Design_sigma.dist.Dist.sigma,
    bits r.design_sigma.Design_sigma.worst_path_3sigma )

let observe ?store () =
  let setup =
    Experiment.prepare_request ~mcu_config:tiny_config ~specs:Helpers.small_specs
      ?store
      (Vartune_flow.Request.Min_period { seed = 7; samples = 2 })
  in
  let period = setup.Experiment.min_period *. 1.5 in
  let base = Experiment.baseline setup ~period in
  let points = Experiment.sweep setup ~baseline:base ~tuning ~parameters:[ 0.01 ] in
  ( bits setup.Experiment.min_period,
    run_scalars base,
    List.map
      (fun (p : Experiment.sweep_point) ->
        (bits p.parameter, run_scalars p.run, bits p.reduction, bits p.area_delta))
      points )

(* the fault-free, store-less run every schedule is measured against *)
let reference = lazy (observe ())

type expect = Must_complete | May_fail

(* Runs the whole flow under [spec] against a fresh store.  The run must
   either complete bit-identically to the fault-free reference or fail
   with an error the CLI maps to a typed exit code; either way, a
   fault-free warm run over the surviving store must reproduce the
   reference, proving no corrupt artifact survived. *)
let sweep_case ~jobs ~spec ~expect ~name ?(warm = true) () =
  Pool.set_default_jobs jobs;
  with_store name (fun t ->
      let outcome =
        match Fault.with_spec spec (fun () -> observe ~store:t ()) with
        | obs -> Ok obs
        | exception exn -> Error exn
      in
      (match (outcome, expect) with
      | Ok obs, _ ->
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d %s bit-identical" jobs spec)
          true
          (obs = Lazy.force reference)
      | Error exn, May_fail ->
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d %s failed cleanly (%s)" jobs spec
             (Printexc.to_string exn))
          true
          (Experiment.classify_exn exn <> None)
      | Error exn, Must_complete ->
        Alcotest.failf "jobs=%d %s: expected completion, got %s" jobs spec
          (Printexc.to_string exn));
      if warm then begin
        let fresh = Store.open_dir (Store.dir t) in
        let warm_obs = observe ~store:fresh () in
        Alcotest.(check bool)
          (Printf.sprintf "jobs=%d %s warm store intact" jobs spec)
          true
          (warm_obs = Lazy.force reference)
      end)

let test_schedule_sweep_at jobs () =
  sweep_case ~jobs ~spec:"write=0.6,fsync=0.4,rename=0.4,lock=0.5:7"
    ~expect:Must_complete
    ~name:(Printf.sprintf "e2e_mixed_%d" jobs)
    ();
  sweep_case ~jobs ~spec:"enospc=1.0:3" ~expect:Must_complete
    ~name:(Printf.sprintf "e2e_enospc_%d" jobs)
    ();
  sweep_case ~jobs ~spec:"worker_crash=0.4:9" ~expect:May_fail
    ~name:(Printf.sprintf "e2e_crash_%d" jobs)
    ~warm:false ();
  Pool.set_default_jobs 1

let test_schedule_sweep_deep () =
  sweep_case ~jobs:2 ~spec:"read=0.7,lock=0.5:11" ~expect:Must_complete
    ~name:"e2e_read" ();
  sweep_case ~jobs:2 ~spec:"partial_write=0.8:5" ~expect:Must_complete
    ~name:"e2e_partial" ();
  sweep_case ~jobs:2 ~spec:"write=#1,read=#2:0" ~expect:Must_complete ~name:"e2e_nth"
    ();
  sweep_case ~jobs:2 ~spec:"worker_crash=1.0:13" ~expect:May_fail
    ~name:"e2e_crash_storm" ~warm:false ();
  Pool.set_default_jobs 1

(* -------------------- spec print/parse round-trip ------------------ *)

(* Generator of structured schedules in canonical form: distinct points
   (spec order = the de-duplicated order parse_spec returns), rates kept
   exactly representable through %.17g (any float in [0,1] is), Nth
   indices >= 1, at least one item. *)
let spec_gen =
  let open QCheck.Gen in
  let trigger =
    oneof
      [
        map (fun r -> Fault.Rate r) (float_bound_inclusive 1.0);
        map (fun n -> Fault.Nth n) (int_range 1 1_000_000);
      ]
  in
  let* points = shuffle_l all_points in
  let* count = int_range 1 (List.length points) in
  let points = List.filteri (fun i _ -> i < count) points in
  let* triggers = flatten_l (List.map (fun _ -> trigger) points) in
  let* seed = map Int64.of_int int in
  return (List.combine points triggers, seed)

let spec_print s = Fault.print_spec s

let test_spec_round_trip =
  QCheck.Test.make ~count:500 ~name:"parse_spec inverts print_spec"
    (QCheck.make ~print:spec_print spec_gen)
    (fun spec ->
      match Fault.parse_spec (Fault.print_spec spec) with
      | Ok reparsed -> reparsed = spec
      | Error msg -> QCheck.Test.fail_reportf "round-trip failed to parse: %s" msg)

let () =
  Alcotest.run "fault"
    [
      ( "schedule",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          QCheck_alcotest.to_alcotest test_spec_round_trip;
          Alcotest.test_case "rate extremes" `Quick test_rate_extremes;
          Alcotest.test_case "nth occurrence" `Quick test_nth_occurrence;
          Alcotest.test_case "check raises" `Quick test_check_raises;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "point names roundtrip" `Quick test_point_string_roundtrip;
          Alcotest.test_case "with_spec restores" `Quick test_with_spec_restores;
          Alcotest.test_case "disabled probes allocate nothing" `Quick
            test_disabled_probe_allocates_nothing;
        ] );
      ( "pool",
        [
          Alcotest.test_case "crash restarts worker" `Quick test_worker_crash_restart;
          Alcotest.test_case "crash storm" `Quick test_worker_crash_storm;
          Alcotest.test_case "stall watchdog" `Quick test_stall_watchdog;
        ] );
      ( "store",
        [
          Alcotest.test_case "transients retried" `Quick test_store_retries_transients;
          Alcotest.test_case "enospc degrades" `Quick test_store_enospc_degrades;
          Alcotest.test_case "exhausted retries surface" `Quick
            test_store_save_result_io_error;
          Alcotest.test_case "partial write evicted" `Quick
            test_store_partial_write_evicted;
          Alcotest.test_case "repeated failures degrade" `Quick
            test_store_degrades_after_repeated_failures;
        ] );
      ( "cli", [ Alcotest.test_case "classify_exn" `Quick test_classify_exn ] );
      ( "e2e",
        [
          Alcotest.test_case "schedules at jobs=1" `Slow (test_schedule_sweep_at 1);
          Alcotest.test_case "schedules at jobs=2" `Slow (test_schedule_sweep_at 2);
          Alcotest.test_case "schedules at jobs=7" `Slow (test_schedule_sweep_at 7);
          Alcotest.test_case "deep schedules" `Slow test_schedule_sweep_deep;
        ] );
    ]
