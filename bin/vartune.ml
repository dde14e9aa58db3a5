(* vartune — library tuning for variability tolerant designs.

   Command-line front end over the vartune libraries: characterise the
   catalog, build statistical libraries, extract tuning restrictions,
   synthesise the evaluation design and regenerate the paper's
   tables/figures.

   Flags shared by all subcommands (logging, pool, telemetry, seed,
   samples, artifact store) live in Common_opts; each subcommand only
   declares what is specific to it. *)

open Cmdliner

module Characterize = Vartune_charlib.Characterize
module Statistical = Vartune_statlib.Statistical
module Printer = Vartune_liberty.Printer
module Parser = Vartune_liberty.Parser
module Library = Vartune_liberty.Library
module Mismatch = Vartune_process.Mismatch
module Synthesis = Vartune_synth.Synthesis
module Path = Vartune_sta.Path
module Design_sigma = Vartune_stats.Design_sigma
module Tuning_method = Vartune_tuning.Tuning_method
module Restrict = Vartune_tuning.Restrict
module Timing_report = Vartune_sta.Timing_report
module Power = Vartune_sta.Power
module Verilog = Vartune_netlist.Verilog
module Experiment = Vartune_flow.Experiment
module Figures = Vartune_flow.Figures
module Report = Vartune_flow.Report
module Request = Vartune_flow.Request
module Run = Vartune_flow.Run
module Run_request = Vartune_flow.Run_request
module Run_report = Vartune_flow.Run_report
module Serve = Vartune_serve.Serve
module Client = Vartune_serve.Client
module Loadgen = Vartune_serve.Loadgen
module Journal = Vartune_journal.Journal
module Log = Common_opts.Log

let default_method =
  { Tuning_method.population = Vartune_tuning.Cluster.Per_cell;
    criterion = Vartune_tuning.Threshold.Sigma_ceiling 0.02 }

let output_arg =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the library to $(docv) instead of stdout.")

let run_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "run-dir" ] ~docv:"DIR"
        ~doc:
          "Journal the run under $(docv): progress is checkpointed so SIGINT/SIGTERM \
           stop it gracefully (exit 75) and $(b,vartune resume) $(docv) continues to \
           bit-identical output.")

let cmd_info name ~doc = Cmd.info name ~doc ~man:Common_opts.man

(* Every subcommand below is a thin shim: construct a Request.t from
   the flags and run it through the same Run_request.exec entry point
   the serve daemon uses, so batch and served execution cannot drift.
   Unclassified exceptions re-raise into the guard, exactly as before
   the request layer existed. *)
let exec_and_deliver ?output ?artifact_files (common : Common_opts.t) req =
  let store = Common_opts.store common in
  Common_opts.deliver ?output ?artifact_files
    (Run_request.exec ?store ~reraise_unclassified:true req)

(* ------------------------------------------------------------------ *)

let characterize_cmd =
  let run (common, _base) output =
    Common_opts.setup common;
    Common_opts.guard @@ fun () ->
    exec_and_deliver ?output common Request.Characterize
  in
  Cmd.v
    (cmd_info "characterize" ~doc:"Characterise the 304-cell catalog into a nominal library.")
    Term.(const run $ Common_opts.request_term $ output_arg)

let statlib_cmd =
  let run ((common : Common_opts.t), base) output run_dir =
    Common_opts.setup common;
    Common_opts.guard @@ fun () ->
    let req = Request.Statlib base in
    match run_dir with
    | Some run_dir ->
      let store = Common_opts.store common in
      Run.execute_request ~run_dir ?store ?output req
    | None -> exec_and_deliver ?output common req
  in
  Cmd.v
    (cmd_info "statlib"
       ~doc:"Build the statistical library (entry-wise mean/sigma over N samples).")
    Term.(const run $ Common_opts.request_term $ output_arg $ run_dir_arg)

(* ------------------------------------------------------------------ *)

(* The single spelling of tuning methods: Tuning_method.to_string /
   of_string round-trip, shared with store keys and report labels. *)
let method_conv =
  let parse s =
    match Tuning_method.of_string s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
           (Printf.sprintf
              "invalid method %S: expected [cell/|strength/](load|slew|ceiling)=VALUE" s))
  in
  let print ppf m = Format.pp_print_string ppf (Tuning_method.to_string m) in
  Arg.conv (parse, print)

let method_arg =
  Arg.(
    value
    & opt (some method_conv) None
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:
          "Tuning method, e.g. cell/ceiling=0.02, strength/load=0.05, cell/slew=0.03. \
           Population is cell or strength (default: cell).")

let period_arg =
  Arg.(
    value & opt (some float) None
    & info [ "p"; "period" ] ~docv:"NS" ~doc:"Clock period in ns (default: measured minimum).")

let tune_cmd =
  let run (common, base) tuning =
    Common_opts.setup common;
    Common_opts.guard @@ fun () ->
    let tuning = Option.value tuning ~default:default_method in
    exec_and_deliver common (Request.Tune { base; tuning })
  in
  Cmd.v
    (cmd_info "tune" ~doc:"Extract per-pin slew/load restrictions from a tuning method.")
    Term.(const run $ Common_opts.request_term $ method_arg)

let timing_report_arg =
  Arg.(value & flag & info [ "timing-report" ] ~doc:"Print the worst-path timing report.")

let power_arg =
  Arg.(value & flag & info [ "power" ] ~doc:"Print the average power report.")

let verilog_arg =
  Arg.(
    value & opt (some string) None
    & info [ "verilog" ] ~docv:"FILE" ~doc:"Export the synthesised netlist as structural Verilog.")

let synth_cmd =
  let run (common, base) period tuning timing_report power verilog =
    Common_opts.setup common;
    Common_opts.guard @@ fun () ->
    let req =
      Request.Design_sigma
        { base; period; tuning; timing_report; power; verilog = verilog <> None }
    in
    let artifact_files =
      match verilog with Some path -> [ ("verilog", path) ] | None -> []
    in
    exec_and_deliver ~artifact_files common req
  in
  Cmd.v
    (cmd_info "synth" ~doc:"Synthesise the evaluation design, optionally with tuning.")
    Term.(
      const run $ Common_opts.request_term $ period_arg $ method_arg $ timing_report_arg
      $ power_arg $ verilog_arg)

let min_period_cmd =
  let run (common, base) =
    Common_opts.setup common;
    Common_opts.guard @@ fun () ->
    exec_and_deliver common (Request.Min_period base)
  in
  Cmd.v
    (cmd_info "min-period" ~doc:"Measure the minimum feasible clock period (Table 1).")
    Term.(const run $ Common_opts.request_term)

(* figures drives Experiment directly (it renders many exhibits from
   one setup); the setup is still requested through the shared base. *)
let prepare_setup (common : Common_opts.t) =
  let store = Common_opts.store common in
  Experiment.prepare_request ?store
    (Request.Min_period { Request.seed = common.seed; samples = common.samples })

let figures_cmd =
  let generators =
    List.concat_map (fun (names, generate) -> List.map (fun n -> (n, generate)) names)
      Figures.exhibits
    @ [ ("all", Figures.run_all) ]
  in
  let figure_arg =
    let names = List.map (fun (n, _) -> (n, n)) generators in
    Arg.(
      value
      & pos 0 (enum names) "all"
      & info [] ~docv:"FIGURE"
          ~doc:(Printf.sprintf "Exhibit to regenerate: %s." (Arg.doc_alts_enum names)))
  in
  let run common figure =
    Common_opts.setup common;
    Common_opts.guard @@ fun () ->
    List.assoc figure generators (lazy (prepare_setup common))
  in
  Cmd.v
    (cmd_info "figures" ~doc:"Regenerate a table or figure from the paper's evaluation.")
    Term.(const run $ Common_opts.term $ figure_arg)

(* ------------------------------------------------------------------ *)
(* Profiling / run reports                                             *)
(* ------------------------------------------------------------------ *)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")

(* `vartune report` reads telemetry; the shared --trace flag *records*
   it.  Positional files avoid the clash: each is sniffed by content
   (traceEvents -> trace, counters -> metrics). *)
let report_cmd =
  let files_arg =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Telemetry files to report on: a Chrome trace (as written by $(b,--trace)) \
             and/or a metrics JSON file (as written by $(b,--metrics-out)); each is \
             recognised by its content.")
  in
  let report_run_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "run-dir" ] ~docv:"DIR"
          ~doc:
            "Journaled run directory (see the $(b,--run-dir) flag of $(b,statlib) and \
             $(b,experiment)): adds the step timeline, checkpoint count, progress and \
             ETA to the report.")
  in
  let run ((common : Common_opts.t), _base) files run_dir json =
    Common_opts.setup common;
    Common_opts.guard @@ fun () ->
    let fail msg =
      Log.err (fun m -> m "%s" msg);
      exit 65 (* EX_DATAERR *)
    in
    let trace, metrics =
      List.fold_left
        (fun (trace, metrics) path ->
          match Run_report.classify_file path with
          | Ok `Trace -> (Some path, metrics)
          | Ok `Metrics -> (trace, Some path)
          | Error msg -> fail msg)
        (None, None) files
    in
    (* a source-less Report request means "this process's live
       telemetry" to the serve daemon; from the CLI it stays the usage
       error it always was *)
    if trace = None && metrics = None && run_dir = None then
      fail "nothing to report on: give a trace, a metrics file or --run-dir";
    exec_and_deliver common (Request.Report { trace; metrics; run_dir; json })
  in
  Cmd.v
    (cmd_info "report"
       ~doc:
         "Summarise a run's telemetry: span profile with child-exclusive self times and \
          p50/p90/p99 duration quantiles, per-domain utilization, GC/allocation \
          attribution, metrics counters, and the journal timeline of a $(b,--run-dir) \
          run (blocks, checkpoints, ETA).")
    Term.(const run $ Common_opts.request_term $ files_arg $ report_run_dir_arg $ json_flag)

(* One subcommand that touches every instrumented stage — characterise,
   statistical merge, synthesis + STA (baseline and tuned), a tuning
   parameter sweep and a path-level Monte Carlo — so a single
   `vartune experiment --trace t.json` yields a trace with the complete
   span vocabulary, and a shared $(b,--store) demonstrates warm-run
   reuse end to end. *)
let experiment_cmd =
  let mc_samples_arg =
    Arg.(
      value & opt int 2000
      & info [ "mc-samples" ] ~docv:"N"
          ~doc:"Monte-Carlo samples for the path-level validation stage.")
  in
  let run ((common : Common_opts.t), base) period tuning mc_samples run_dir =
    Common_opts.setup common;
    Common_opts.check_count "--mc-samples" mc_samples;
    Common_opts.guard @@ fun () ->
    let tuning = Option.value tuning ~default:default_method in
    let req =
      Request.Sweep
        { base; tuning; period; parameters = [ 0.01; 0.02; 0.05 ];
          mc_samples = Some mc_samples }
    in
    match run_dir with
    | Some run_dir ->
      let store = Common_opts.store common in
      Run.execute_request ~run_dir ?store req
    | None -> exec_and_deliver common req
  in
  Cmd.v
    (cmd_info "experiment"
       ~doc:
         "Run the full characterise/merge/tune/synthesise/STA/Monte-Carlo pipeline once — \
          the natural target for $(b,--trace), $(b,--metrics-out), a warm $(b,--store) \
          and a resumable $(b,--run-dir).")
    Term.(
      const run $ Common_opts.request_term $ period_arg $ method_arg $ mc_samples_arg
      $ run_dir_arg)

let run_dir_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"RUNDIR" ~doc:"Run directory of a journaled run (see --run-dir).")

let resume_cmd =
  let run (common : Common_opts.t) run_dir =
    Common_opts.setup common;
    Common_opts.guard @@ fun () ->
    let store = Common_opts.store common in
    Run.resume ~run_dir ?store ()
  in
  Cmd.v
    (cmd_info "resume"
       ~doc:
         "Resume an interrupted journaled run to bit-identical output. Validates the \
          journal and every checkpointed artifact; corrupt entries are evicted and \
          recomputed, a corrupt journal is a clean data error (exit 65).")
    Term.(const run $ Common_opts.term $ run_dir_pos)

let journal_cmd =
  let run (common : Common_opts.t) run_dir =
    Common_opts.setup common;
    Common_opts.guard @@ fun () ->
    let steps = Journal.replay (Run.journal_path run_dir) in
    List.iter (fun step -> print_endline (Journal.step_to_string step)) steps
  in
  Cmd.v
    (cmd_info "journal"
       ~doc:"List a journaled run's recorded steps (validating every checksum).")
    Term.(const run $ Common_opts.term $ run_dir_pos)

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/vartune.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-socket path of the daemon.")

let serve_cmd =
  let backlog_arg =
    Arg.(
      value & opt int 16
      & info [ "backlog" ] ~docv:"N" ~doc:"listen(2) backlog of the daemon's socket.")
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "serve-workers" ] ~docv:"N"
          ~doc:"Worker threads executing admitted requests.")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Bound on queued-but-unstarted requests (both priority classes combined); \
             requests beyond it are shed with a typed code-75 reply carrying a \
             $(b,retry_after_s) hint.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Bound on concurrent client connections; connections beyond it are \
             answered with one typed code-75 refusal and closed.")
  in
  let run (common : Common_opts.t) socket backlog workers queue_cap max_conns =
    Common_opts.setup common;
    Common_opts.guard @@ fun () ->
    if workers < 1 || queue_cap < 1 || max_conns < 1 then begin
      Log.err (fun m -> m "--serve-workers, --queue-cap and --max-conns must be >= 1");
      exit 64 (* EX_USAGE *)
    end;
    let store = Common_opts.store common in
    Serve.run { Serve.socket; store; backlog; workers; queue_cap; max_conns };
    (* a graceful drain is the same "stopped cleanly, retry later"
       status an interrupted journaled run reports *)
    exit 75
  in
  Cmd.v
    (cmd_info "serve"
       ~doc:
         "Serve tuning requests on a unix socket: newline-JSON requests (see PROTOCOL) \
          evaluated through the same entry point as the batch subcommands, with \
          single-flight deduplication of identical in-flight requests, the $(b,--store) \
          shared as a cross-request cache, and live $(b,GET metrics) / $(b,GET profile) \
          / $(b,GET health) endpoints. Execution is admission-controlled: a bounded \
          two-class priority queue (interactive report/parse/characterize ahead of \
          batch work) feeds $(b,--serve-workers) worker threads; overload beyond \
          $(b,--queue-cap) or $(b,--max-conns), and requests whose $(b,deadline_s) has \
          passed, are shed immediately with typed code-75 replies. SIGINT/SIGTERM \
          drains gracefully — in-flight requests finish, queued ones are shed with 75 \
          — and exits 75.")
    Term.(
      const run $ Common_opts.term $ socket_arg $ backlog_arg $ workers_arg
      $ queue_cap_arg $ max_conns_arg)

let loadgen_cmd =
  let requests_arg =
    Arg.(
      value & opt int 48
      & info [ "requests" ] ~docv:"N" ~doc:"Total requests to send across all connections.")
  in
  let concurrency_arg =
    Arg.(
      value & opt int 4
      & info [ "concurrency" ] ~docv:"N" ~doc:"Parallel client connections.")
  in
  let overload_arg =
    Arg.(
      value & flag
      & info [ "overload" ]
          ~doc:
            "Send the overload burst instead of the template cycle: every 4th request \
             interactive (a live report), the rest batch statlib builds with per-index \
             seeds so nothing deduplicates. Sheds are expected, not failures.")
  in
  let retries_arg =
    Arg.(
      value & opt int 3
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry budget of the client backoff loop per request (code-75 sheds).")
  in
  let run ((common : Common_opts.t), base) socket requests concurrency json overload
      retries =
    Common_opts.setup common;
    Common_opts.guard @@ fun () ->
    let seed = base.Request.seed and samples = base.Request.samples in
    let mix =
      if overload then Loadgen.burst_mix ~seed ~samples
      else Loadgen.default_mix ~seed ~samples ~concurrency
    in
    let r =
      Loadgen.run
        {
          Loadgen.socket;
          requests;
          concurrency;
          mix;
          retry = { Client.default_policy with attempts = retries };
        }
    in
    if json then print_endline (Loadgen.result_to_json r)
    else begin
      let line label (s : Loadgen.stats) =
        Printf.printf
          "%-12s sent %d  ok %d  shed %d  deadline %d  failed %d  retries %d  p99 %.2f ms\n"
          label s.sent s.ok s.shed s.deadline_dropped s.failed s.retries s.p99_ms
      in
      let t = r.Loadgen.total in
      line "interactive" r.Loadgen.interactive;
      line "batch" r.Loadgen.batch;
      line "total" t;
      Printf.printf
        "elapsed %.2f s  throughput %.1f req/s  replies %d  code70 %d  dedup hits %d \
         (%.1f%%)\n"
        r.Loadgen.elapsed_s r.Loadgen.throughput_rps t.replies t.code70 t.dedup_hits
        (100.0 *. r.Loadgen.dedup_hit_rate);
      Printf.printf "latency ms: p50 %.2f  p90 %.2f  p99 %.2f  min %.2f  max %.2f\n"
        t.p50_ms t.p90_ms t.p99_ms t.min_ms t.max_ms
    end;
    if r.Loadgen.total.failed > 0 then exit 1
  in
  Cmd.v
    (cmd_info "loadgen"
       ~doc:
         "Drive requests at the given concurrency against a running $(b,vartune serve) \
          daemon, each through the client's retry/backoff loop, and report per-class \
          (interactive, batch) and total counts — ok, shed, deadline-dropped, failed, \
          retries — with throughput, latency quantiles of admitted requests and the \
          dedup hit rate. The default mix cycles statlib / characterize / tune / live \
          report templates (using the shared $(b,--seed) and $(b,--samples)); \
          $(b,--overload) sends a seeded burst meant to exceed the daemon's queue \
          capacity instead. Exits 1 if any request failed: a lost reply or a code \
          other than 0 or 75.")
    Term.(
      const run $ Common_opts.request_term $ socket_arg $ requests_arg $ concurrency_arg
      $ json_flag $ overload_arg $ retries_arg)

let parse_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Library file.")
  in
  let run common file =
    Common_opts.setup common;
    Common_opts.guard @@ fun () ->
    (* a request shim like every other subcommand, so [parse] is also
       servable (and classed interactive by the daemon's admission) *)
    exec_and_deliver common (Request.Parse { file })
  in
  Cmd.v
    (cmd_info "parse" ~doc:"Parse a liberty-format library file and summarise it.")
    Term.(const run $ Common_opts.term $ file_arg)

let main_cmd =
  let doc = "standard cell library tuning for variability tolerant designs" in
  Cmd.group (Cmd.info "vartune" ~version:"1.0.0" ~doc ~man:Common_opts.man)
    [
      characterize_cmd; statlib_cmd; tune_cmd; synth_cmd; min_period_cmd; experiment_cmd;
      resume_cmd; journal_cmd; figures_cmd; report_cmd; serve_cmd;
      loadgen_cmd; parse_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
