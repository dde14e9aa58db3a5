(* Tests for Vartune_flow: Report rendering and Experiment plumbing that
   doesn't need a full-size setup. *)

module Report = Vartune_flow.Report
module Experiment = Vartune_flow.Experiment
module Lut = Vartune_liberty.Lut
module Ir = Vartune_rtl.Ir
module Mcu = Vartune_rtl.Microcontroller
module Pool = Vartune_util.Pool

let check_float = Helpers.check_float

let capture f =
  (* Report prints to stdout; capture via a temp file redirect *)
  let path = Filename.temp_file "vartune_test" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    f;
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  s

let test_pct_ns () =
  Alcotest.(check string) "pct" "37.1%" (Report.pct 0.371);
  Alcotest.(check string) "negative pct" "-5.0%" (Report.pct (-0.05));
  Alcotest.(check string) "ns" "2.410 ns" (Report.ns 2.41)

let test_table_rendering () =
  let out =
    capture (fun () ->
        Report.table ~header:[ "name"; "value" ]
          ~rows:[ [ "alpha"; "1" ]; [ "longer-name"; "22" ] ])
  in
  Alcotest.(check bool) "header present" true
    (String.length out > 0
    && Option.is_some (String.index_opt out 'n')
    &&
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    contains out "alpha" && contains out "longer-name" && contains out "22")

let test_bar_chart () =
  let out =
    capture (fun () -> Report.bar_chart ~width:10 [ ("a", 10.0); ("b", 5.0); ("c", 0.0) ])
  in
  let lines = String.split_on_char '\n' out in
  let count_hash line = String.fold_left (fun acc ch -> if ch = '#' then acc + 1 else acc) 0 line in
  match List.filter (fun l -> String.length l > 0) lines with
  | [ la; lb; lc ] ->
    Alcotest.(check int) "full bar" 10 (count_hash la);
    Alcotest.(check int) "half bar" 5 (count_hash lb);
    Alcotest.(check int) "zero bar" 0 (count_hash lc)
  | _ -> Alcotest.fail "expected three lines"

let test_surface_rendering () =
  let lut =
    Lut.of_fn ~slews:[| 0.0; 1.0 |] ~loads:[| 0.0; 1.0 |] (fun ~slew ~load -> slew +. load)
  in
  let out = capture (fun () -> Report.surface lut) in
  Alcotest.(check bool) "low marker" true (String.contains out ' ');
  Alcotest.(check bool) "high marker" true (String.contains out '@')

let test_int_histogram () =
  let out = capture (fun () -> Report.int_histogram ~width:8 [ (1, 4); (2, 8) ]) in
  let lines = List.filter (fun l -> String.length l > 0) (String.split_on_char '\n' out) in
  Alcotest.(check int) "two lines" 2 (List.length lines)

let test_binned_scatter () =
  let xs = Array.init 50 (fun i -> float_of_int i) in
  let ys = Array.map (fun x -> x *. 2.0) xs in
  let out =
    capture (fun () -> Report.binned_scatter ~bins:5 ~x_label:"x" ~y_label:"y" xs ys)
  in
  Alcotest.(check bool) "non-empty" true (String.length out > 40)

let test_paper_period_labels () =
  let ladder = Experiment.paper_period_labels 2.41 in
  check_float ~eps:1e-6 "high" 2.41 (List.assoc "high" ladder);
  check_float ~eps:0.01 "close" 2.5 (List.assoc "close" ladder);
  check_float ~eps:0.01 "medium" 4.0 (List.assoc "medium" ladder);
  check_float ~eps:0.01 "low" 10.0 (List.assoc "low" ladder);
  (* scales linearly with the measured minimum *)
  let scaled = Experiment.paper_period_labels 4.82 in
  check_float ~eps:0.02 "scaled medium" 8.0 (List.assoc "medium" scaled)

(* ------------------------- experiment cache ------------------------- *)

(* small config: the fixed 32-bit instruction encoding pins xlen, but a
   narrow multiplier and register file keep elaboration cheap *)
let tiny_config = { Mcu.xlen = 32; reg_count = 8; mul_width = 4; irq_lines = 2; bus_slaves = 2 }

let test_fingerprint_distinguishes_designs () =
  (* the memo key must separate designs the node count conflates *)
  let a = Mcu.generate ~config:tiny_config () in
  let a' = Mcu.generate ~config:tiny_config () in
  let b = Mcu.generate ~config:{ tiny_config with irq_lines = 4 } () in
  Alcotest.(check int) "same config same fingerprint" (Ir.fingerprint a) (Ir.fingerprint a');
  Alcotest.(check bool) "different config differs" false
    (Ir.fingerprint a = Ir.fingerprint b)

let tiny_setup =
  lazy
    (Experiment.prepare_request ~mcu_config:tiny_config
       (Vartune_flow.Request.Min_period { seed = 7; samples = 2 }))

let test_cache_scoped_to_setup () =
  let setup = Lazy.force tiny_setup in
  let period = setup.Experiment.min_period in
  let a = Experiment.baseline setup ~period in
  let b = Experiment.baseline setup ~period in
  Alcotest.(check bool) "memoised within a setup" true (a == b);
  let fresh = Experiment.fresh_cache setup in
  let c = Experiment.baseline fresh ~period in
  Alcotest.(check bool) "fresh cache recomputes" false (a == c);
  Helpers.check_float "recomputation deterministic"
    a.Experiment.design_sigma.Vartune_stats.Design_sigma.dist.Vartune_stats.Dist.sigma
    c.Experiment.design_sigma.Vartune_stats.Design_sigma.dist.Vartune_stats.Dist.sigma

let test_sweep_pool_invariant () =
  let setup = Lazy.force tiny_setup in
  let period = setup.Experiment.min_period *. 1.5 in
  let tuning =
    { Vartune_tuning.Tuning_method.population = Vartune_tuning.Cluster.Per_cell;
      criterion = Vartune_tuning.Threshold.Sigma_ceiling 0.02 }
  in
  let parameters = [ 0.01; 0.02; 0.05 ] in
  let run pool setup =
    Experiment.sweep ~pool setup ~baseline:(Experiment.baseline setup ~period) ~tuning
      ~parameters
  in
  let with_jobs jobs f =
    let pool = Pool.create ~jobs () in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)
  in
  let serial = with_jobs 1 (fun pool -> run pool (Experiment.fresh_cache setup)) in
  let parallel = with_jobs 4 (fun pool -> run pool (Experiment.fresh_cache setup)) in
  List.iter2
    (fun (s : Experiment.sweep_point) (p : Experiment.sweep_point) ->
      Helpers.check_float ~eps:0.0 "parameter" s.Experiment.parameter p.Experiment.parameter;
      Helpers.check_float ~eps:0.0 "reduction" s.Experiment.reduction p.Experiment.reduction;
      Helpers.check_float ~eps:0.0 "area delta" s.Experiment.area_delta p.Experiment.area_delta)
    serial parallel

(* Fig 10's selection rule on hand-made points around one feasible
   run: a point that does not decrease sigma never wins, the area cap
   is strict, and the first of equal reductions wins. *)
let test_best_under_area_cap () =
  let setup = Lazy.force tiny_setup in
  let run = Experiment.baseline setup ~period:(setup.Experiment.min_period *. 1.5) in
  Alcotest.(check bool) "baseline feasible" true
    run.Experiment.result.Vartune_synth.Synthesis.feasible;
  let point parameter reduction area_delta =
    { Experiment.parameter; run; reduction; area_delta }
  in
  let best points =
    Option.map (fun p -> p.Experiment.parameter) (Experiment.best_under_area_cap points)
  in
  let check name expected points = Alcotest.(check (option (float 0.0))) name expected (best points) in
  check "negative and zero reductions never win" None
    [ point 1.0 (-0.033) 0.0; point 2.0 0.0 0.0 ];
  check "tie: first wins" (Some 2.0)
    [ point 1.0 (-0.1) 0.0; point 2.0 0.05 0.01; point 3.0 0.05 0.0 ];
  check "area cap is strict" (Some 2.0) [ point 1.0 0.3 0.10; point 2.0 0.01 0.099 ]

(* Exact pool dispatch per chunked stage at jobs=2.  The task counts
   follow from the item counts and the automatic chunk size alone, so
   they are the same on any host; a stage that went back to one task
   per item (or per sample) fails here even where a timing gate could
   not see it. *)
let test_dispatch_counts () =
  let module Obs = Vartune_obs.Obs in
  let setup = Lazy.force tiny_setup in
  let path =
    let paths = Experiment.paths (Experiment.baseline setup ~period:setup.Experiment.min_period) in
    List.nth paths (List.length paths / 2)
  in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let pool = Pool.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown pool;
      Obs.set_enabled was_enabled)
  @@ fun () ->
  let enqueued name expected f =
    let before = Obs.counter_value "pool.tasks_enqueued" in
    ignore (f ());
    Alcotest.(check int) name expected (Obs.counter_value "pool.tasks_enqueued" - before)
  in
  (* one task per Welford block of 4 samples *)
  enqueued "statlib build, n=16" 4 (fun () ->
      Vartune_statlib.Statistical.build ~pool Vartune_charlib.Characterize.default_config
        ~mismatch:Vartune_process.Mismatch.default ~seed:42 ~n:16 ());
  let tuning =
    { Vartune_tuning.Tuning_method.population = Vartune_tuning.Cluster.Per_cell;
      criterion = Vartune_tuning.Threshold.Sigma_ceiling 0.02 }
  in
  let fresh = Experiment.fresh_cache setup in
  let baseline = Experiment.baseline fresh ~period:(setup.Experiment.min_period *. 1.5) in
  enqueued "sweep, 6 parameters" 6 (fun () ->
      Experiment.sweep ~pool fresh ~baseline ~tuning
        ~parameters:[ 0.005; 0.01; 0.02; 0.03; 0.05; 0.08 ]);
  (* chunks of 1250 samples *)
  enqueued "path MC, n=20000" 16 (fun () ->
      Vartune_monte.Path_mc.simulate ~pool { Vartune_monte.Path_mc.default_config with n = 20_000 }
        ~seed:7 path)

(* ext-yield's "clock for 99 % parametric yield": the yield at the
   printed clock, less the guard band the timing runs subtract, reaches
   99 % for the baseline and the tuned design. *)
let test_yield_clock_meets_target () =
  let module Figures = Vartune_flow.Figures in
  let module Yield = Vartune_stats.Yield in
  let setup = Lazy.force tiny_setup in
  let period = List.assoc "high" setup.Experiment.periods in
  let tuning =
    { Vartune_tuning.Tuning_method.population = Vartune_tuning.Cluster.Per_cell;
      criterion = Vartune_tuning.Threshold.Sigma_ceiling 0.02 }
  in
  List.iter
    (fun (label, (run : Experiment.run)) ->
      let dists = List.map Vartune_stats.Convolve.of_path (Experiment.paths run) in
      let clock = Figures.clock_for_yield dists ~target:0.99 ~period in
      let at p = Yield.parametric_yield dists ~period:(p -. Figures.guard_band) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: yield %.4f at the printed clock %.3f ns" label (at clock) clock)
        true
        (at clock >= 0.99);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f ns is within 1 ps of the smallest such clock" label clock)
        true
        (at (clock -. 0.002) < 0.99))
    [
      ("baseline", Experiment.baseline setup ~period);
      ("tuned", Experiment.tuned setup ~period ~tuning);
    ]

(* ------------------- failure → exit-code mapping ------------------- *)

(* The CLI's sysexits vocabulary is load-bearing for CI and operators;
   pin the exact code of every classified exception, including the
   checkpoint/resume additions. *)
let test_exit_codes () =
  let check name expected exn =
    match Experiment.classify_exn exn with
    | Some f -> Alcotest.(check int) name expected (Experiment.exit_code f)
    | None -> Alcotest.fail (name ^ ": expected a classification")
  in
  check "liberty lexer error" 65 (Vartune_liberty.Lexer.Error { line = 1; message = "bad" });
  check "liberty parser error" 65 (Vartune_liberty.Parser.Error "bad");
  check "corrupt journal" 65 (Vartune_journal.Journal.Corrupt "checksum");
  check "sys error" 74 (Sys_error "pipe closed");
  check "unix error" 74 (Unix.Unix_error (Unix.ENOSPC, "write", "f"));
  check "escaped corrupt artifact" 74 (Vartune_store.Codec.Corrupt "short");
  check "worker failure" 75 (Pool.Worker_failure "stalled");
  check "interrupted run" 75 (Vartune_journal.Journal.Interrupted "checkpointed");
  check "escaped injected fault" 70
    (Vartune_fault.Fault.Injected { point = Vartune_fault.Fault.Read; site = "x"; seq = 1 });
  Alcotest.(check bool) "interrupted message mentions resume" true
    (match Experiment.classify_exn (Vartune_journal.Journal.Interrupted "at 8/24 samples") with
    | Some f ->
      let msg = Experiment.failure_message f in
      let has needle =
        let nl = String.length needle and ml = String.length msg in
        let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
        go 0
      in
      has "resume" && has "at 8/24 samples"
    | None -> false)

let () =
  Alcotest.run "flow"
    [
      ( "report",
        [
          Alcotest.test_case "pct/ns" `Quick test_pct_ns;
          Alcotest.test_case "table" `Quick test_table_rendering;
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
          Alcotest.test_case "surface" `Quick test_surface_rendering;
          Alcotest.test_case "int histogram" `Quick test_int_histogram;
          Alcotest.test_case "binned scatter" `Quick test_binned_scatter;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "paper period ladder" `Quick test_paper_period_labels;
          Alcotest.test_case "design fingerprint" `Quick test_fingerprint_distinguishes_designs;
          Alcotest.test_case "cache scoped to setup" `Slow test_cache_scoped_to_setup;
          Alcotest.test_case "sweep pool invariant" `Slow test_sweep_pool_invariant;
          Alcotest.test_case "dispatch counts at jobs=2" `Slow test_dispatch_counts;
          Alcotest.test_case "ext-yield clock meets 99 %" `Slow test_yield_clock_meets_target;
          Alcotest.test_case "winner must decrease sigma" `Slow test_best_under_area_cap;
        ] );
      ("failures", [ Alcotest.test_case "exit codes" `Quick test_exit_codes ]);
    ]
