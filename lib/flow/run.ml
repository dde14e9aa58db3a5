module Journal = Vartune_journal.Journal
module Store = Vartune_store.Store
module Tuning_method = Vartune_tuning.Tuning_method
module Statistical = Vartune_statlib.Statistical
module Characterize = Vartune_charlib.Characterize
module Mismatch = Vartune_process.Mismatch
module Library = Vartune_liberty.Library
module Printer = Vartune_liberty.Printer
module Parser = Vartune_liberty.Parser
module Restrict = Vartune_tuning.Restrict
module Synthesis = Vartune_synth.Synthesis
module Timing_report = Vartune_sta.Timing_report
module Power = Vartune_sta.Power
module Verilog = Vartune_netlist.Verilog
module Path = Vartune_sta.Path
module Design_sigma = Vartune_stats.Design_sigma
module Path_mc = Vartune_monte.Path_mc

let src = Logs.Src.create "vartune.run" ~doc:"journaled run supervision"

module Log = (val Logs.src_log src : Logs.LOG)

let journal_path run_dir = Filename.concat run_dir "journal.vtj"
let state_dir run_dir = Filename.concat run_dir "state"

(* One synthesis-result summary line, shared by [synth], [experiment]
   and journaled runs so their outputs stay diffable. *)
let run_line label (run : Experiment.run) =
  let r = run.Experiment.result in
  Printf.sprintf "%-24s feasible=%b slack=%+.3f area=%.0f um^2 cells=%d sigma=%.4f ns"
    label r.Synthesis.feasible r.Synthesis.worst_slack r.Synthesis.area
    r.Synthesis.instances
    run.Experiment.design_sigma.Design_sigma.dist.Vartune_stats.Dist.sigma

(* ------------------------------------------------------------------ *)
(* Request evaluation                                                  *)
(* ------------------------------------------------------------------ *)

type evaled = {
  out : string;
  library : Library.t option;
  artifacts : (string * string) list;
  recipes : string list;
  meta : (string * string) list;
}

let statlib_recipe { Request.seed; samples } =
  Store.Key.id
    (Statistical.store_key Characterize.default_config ~mismatch:Mismatch.default ~seed
       ~n:samples ())

let build_statlib ?store ?ckpt { Request.seed; samples } =
  Statistical.build ?store ?ckpt Characterize.default_config ~mismatch:Mismatch.default
    ~seed ~n:samples ()

(* The pipeline body behind every request kind: identical stage order,
   stage parameters and output lines whether plain, served, journaled,
   interrupted or resumed — the bit-identity contract is "same request,
   same bytes".  Lines go through [emit] (without trailing newline) as
   they happen and accumulate — with trailing newlines — into
   [evaled.out], which is exactly what the equivalent CLI subcommand
   prints to stdout.  A printed library is the reply's [out] itself,
   never copied through that buffer. *)
let eval ?store ?ckpt ?(emit = ignore) req =
  let buf = Buffer.create 512 in
  let line l =
    emit l;
    Buffer.add_string buf l;
    Buffer.add_char buf '\n'
  in
  let raw s = Buffer.add_string buf s in
  let check_stop () = Option.iter Journal.check_stop ckpt in
  let done_ ?out ?library ?(artifacts = []) ?(recipes = []) ?(meta = []) () =
    let out = match out with Some s -> s | None -> Buffer.contents buf in
    { out; library; artifacts; recipes; meta }
  in
  let cells lib = [ ("cells", string_of_int (Library.size lib)) ] in
  match req with
  | Request.Report _ ->
    (* needs Run_report, which sits above this module *)
    invalid_arg "Run.eval: report requests are evaluated by Run_request.exec"
  | Request.Parse { file } ->
    let lib = Parser.parse_file file in
    line
      (Printf.sprintf "%s: %d cells, corner %s, statistical=%b, total area %.0f um^2"
         (Library.name lib) (Library.size lib) (Library.corner lib)
         (Statistical.is_statistical lib) (Library.total_area lib));
    done_ ~library:lib ~meta:(cells lib) ()
  | Request.Characterize ->
    let lib = Characterize.nominal ?store Characterize.default_config in
    done_ ~out:(Printer.to_string lib) ~library:lib ~meta:(cells lib) ()
  | Request.Statlib base ->
    let lib = build_statlib ?store ?ckpt base in
    done_ ~out:(Printer.to_string lib) ~library:lib ~recipes:[ statlib_recipe base ]
      ~meta:(cells lib) ()
  | Request.Tune { base; tuning } ->
    let lib = build_statlib ?store ?ckpt base in
    let table = Tuning_method.restrictions tuning lib in
    line (Printf.sprintf "method: %s" (Tuning_method.to_string tuning));
    line
      (Printf.sprintf "LUT-entry removal across the library: %s"
         (Report.pct (Restrict.restriction_fraction table lib)));
    List.iter
      (fun (cell, pin, status) ->
        match status with
        | Restrict.Unrestricted -> ()
        | Restrict.Unusable -> line (Printf.sprintf "%-10s %-3s UNUSABLE" cell pin)
        | Restrict.Window w ->
          line
            (Printf.sprintf "%-10s %-3s slew [%.4g, %.4g] ns  load [%.5g, %.5g] pF" cell
               pin w.Restrict.slew_min w.Restrict.slew_max w.Restrict.load_min
               w.Restrict.load_max))
      (Restrict.restricted_pins table);
    done_ ~recipes:[ statlib_recipe base ] ~meta:(cells lib) ()
  | Request.Min_period _ ->
    let setup = Experiment.prepare_request ?store ?ckpt req in
    line (Printf.sprintf "minimum clock period: %.2f ns" setup.Experiment.min_period);
    List.iter
      (fun (label, p) -> line (Printf.sprintf "  %-8s %.2f ns" label p))
      setup.Experiment.periods;
    done_ ~recipes:(Experiment.recipe_ids setup) ()
  | Request.Design_sigma { period; tuning; timing_report; power; verilog; _ } ->
    let setup = Experiment.prepare_request ?store ?ckpt req in
    let period = Option.value period ~default:setup.Experiment.min_period in
    let base_run = Experiment.baseline setup ~period in
    line (run_line "baseline" base_run);
    let final =
      match tuning with
      | None -> base_run
      | Some tuning ->
        let tuned = Experiment.tuned setup ~period ~tuning in
        line (run_line (Tuning_method.to_string tuning) tuned);
        line
          (Printf.sprintf "sigma decrease %s at area increase %s"
             (Report.pct (Experiment.sigma_reduction ~baseline:base_run ~tuned))
             (Report.pct (Experiment.area_increase ~baseline:base_run ~tuned)));
        tuned
    in
    let result = final.Experiment.result in
    if timing_report then
      raw (Timing_report.report result.Synthesis.timing result.Synthesis.netlist);
    if power then
      raw
        (Format.asprintf "%a@." Power.pp
           (Power.estimate result.Synthesis.timing result.Synthesis.netlist));
    let artifacts =
      if verilog then [ ("verilog", Verilog.to_string result.Synthesis.netlist) ] else []
    in
    done_ ~artifacts ~recipes:(Experiment.recipe_ids setup) ()
  | Request.Sweep { base; tuning; period; parameters; mc_samples } ->
    let setup = Experiment.prepare_request ?store ?ckpt req in
    line (Printf.sprintf "minimum clock period: %.2f ns" setup.Experiment.min_period);
    let period = Option.value period ~default:setup.Experiment.min_period in
    check_stop ();
    let base_run = Experiment.baseline setup ~period in
    line (run_line "baseline" base_run);
    check_stop ();
    let points = Experiment.sweep setup ~baseline:base_run ~tuning ~parameters in
    line (Printf.sprintf "sweep (%s):" (Tuning_method.to_string tuning));
    List.iter
      (fun (p : Experiment.sweep_point) ->
        line
          (Printf.sprintf "  parameter %.4g  sigma %s  area %s" p.Experiment.parameter
             (Report.pct p.Experiment.reduction)
             (Report.pct p.Experiment.area_delta)))
      points;
    Option.iter
      (fun c ->
        Journal.record c
          (Journal.Sweep_done
             {
               tuning = Tuning_method.to_string tuning;
               period;
               points = List.length points;
             }))
      ckpt;
    check_stop ();
    Option.iter
      (fun mc_samples ->
        let mc_path =
          let paths = Experiment.paths base_run in
          List.nth paths (List.length paths / 2)
        in
        let mc =
          Path_mc.simulate
            { Path_mc.default_config with n = mc_samples }
            ~seed:base.Request.seed mc_path
        in
        line
          (Printf.sprintf "path MC (depth %d, N=%d): mean %.4f ns  sigma %.4f ns"
             (Path.depth mc_path) mc_samples mc.Path_mc.mean mc.Path_mc.sigma))
      mc_samples;
    done_ ~library:setup.Experiment.statlib ~recipes:(Experiment.recipe_ids setup) ()

(* ------------------------------------------------------------------ *)
(* Journaled runs                                                      *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Only flips an atomic — async-signal safe.  The pipeline notices at
   the next block-round or stage boundary, checkpoints and raises
   [Journal.Interrupted]; a second signal during the wind-down changes
   nothing (the stop is already requested), so the run always exits
   through the sealing path rather than mid-write. *)
let install_signal_handlers ctx =
  List.iter
    (fun signal ->
      try Sys.set_signal signal (Sys.Signal_handle (fun _ -> Journal.request_stop ctx))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* The kinds whose evaluation yields a library for the run directory. *)
let journal_able = function Request.Statlib _ | Request.Sweep _ -> true | _ -> false

(* The run's request, decoded from its run-started line.  Anything that
   does not decode to a journal-able request is damage: [Corrupt], so
   resume fails cleanly (exit 65) instead of guessing. *)
let request_of_steps steps =
  let corrupt fmt = Printf.ksprintf (fun m -> raise (Journal.Corrupt m)) fmt in
  match
    List.find_map
      (function Journal.Run_started { request; output } -> Some (request, output) | _ -> None)
      steps
  with
  | None -> corrupt "journal has no run-started record"
  | Some (line, output) -> (
    match Request.of_line line with
    | Ok { Request.req; _ } when journal_able req -> (req, output)
    | Ok { Request.req; _ } ->
      corrupt "journal records a %S request, which is not journal-able"
        (Request.kind_string req)
    | Error e -> corrupt "journal's run-started request: %s" (Request.error_message e))

(* Runs the pipeline under an open journal context, then lands the
   run-directory artifacts and seals the journal.  Output lines go to
   stdout as they happen and to [report.txt] on completion; the report
   deliberately contains no absolute paths, so reports of an
   interrupted-and-resumed run and an uninterrupted reference diff
   clean. *)
let supervise ~run_dir ?store ?output ctx req =
  let report = Buffer.create 512 in
  let emit line =
    print_string line;
    print_newline ();
    Buffer.add_string report line;
    Buffer.add_char report '\n'
  in
  match eval ?store ~ckpt:ctx ~emit req with
  | { library = Some statlib; _ } ->
    Printer.write_file (Filename.concat run_dir "statlib.lib") statlib;
    emit (Printf.sprintf "wrote statlib.lib (%d cells)" (Library.size statlib));
    Option.iter
      (fun path ->
        Printer.write_file path statlib;
        emit (Printf.sprintf "wrote %s (%d cells)" path (Library.size statlib)))
      output;
    let oc = open_out (Filename.concat run_dir "report.txt") in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Buffer.contents report));
    Journal.seal ctx.Journal.journal ~reason:"completed";
    Log.info (fun m -> m "run completed; artifacts in %s" run_dir)
  | { library = None; _ } -> assert false (* journal-able kinds yield a library *)
  | exception Journal.Interrupted msg ->
    Journal.seal ctx.Journal.journal ~reason:"interrupted";
    Log.info (fun m -> m "run interrupted; resume with: vartune resume %s" run_dir);
    raise (Journal.Interrupted msg)
  | exception exn ->
    Journal.seal ctx.Journal.journal ~reason:("failed: " ^ Printexc.to_string exn);
    raise exn

let execute_request ~run_dir ?store ?output req =
  if not (journal_able req) then
    invalid_arg
      (Printf.sprintf
         "Run.execute_request: %S requests are not journal-able (only statlib and sweep \
          are)"
         (Request.kind_string req));
  mkdir_p run_dir;
  let journal = Journal.create (journal_path run_dir) in
  let state = Store.open_dir (state_dir run_dir) in
  let ctx = Journal.make_ctx ~journal ~state () in
  install_signal_handlers ctx;
  Journal.record ctx (Journal.Run_started { request = Request.to_line req; output });
  supervise ~run_dir ?store ?output ctx req

let resume ~run_dir ?store () =
  let path = journal_path run_dir in
  if not (Sys.file_exists path) then
    raise (Journal.Corrupt (Printf.sprintf "no journal at %s" path));
  let steps = Journal.replay path in
  let req, output = request_of_steps steps in
  let journal = Journal.open_append path in
  let state = Store.open_dir (state_dir run_dir) in
  let ctx = Journal.make_ctx ~journal ~state ~replayed:steps () in
  install_signal_handlers ctx;
  Journal.record ctx (Journal.Resumed { replayed = List.length steps });
  Log.info (fun m ->
      m "resuming %s run from %d journaled steps" (Request.kind_string req)
        (List.length steps));
  supervise ~run_dir ?store ?output ctx req
