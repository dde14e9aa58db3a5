module Obs = Vartune_obs.Obs
module Profile = Vartune_obs.Profile

(* A report request with no sources reports on this process's own live
   telemetry — the serve daemon's full-report endpoint.  File-backed
   sources go through the same Run_report builder the CLI always
   used. *)
let eval_report ~trace ~metrics ~run_dir ~json =
  let report =
    match (trace, metrics, run_dir) with
    | None, None, None ->
      Ok
        {
          Run_report.profile = Some (Profile.of_events (Obs.events ()));
          metrics = Some (Obs.metrics_json ());
          timeline = None;
        }
    | _ -> Run_report.build ?trace ?metrics ?run_dir ()
  in
  match report with
  | Ok r -> Ok ((if json then Run_report.to_json else Run_report.to_text) r)
  | Error msg -> Error msg

(* How long a fired [delay] fault stretches a request.  Long enough to
   pile a seeded burst up behind the worker pool, short enough that the
   chaos suites stay fast. *)
let delay_fault_s = 0.25

let exec ?store ?(reraise_unclassified = false) req =
  let kind = Request.kind_string req in
  let t0 = Obs.now_ns () in
  let elapsed () = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9 in
  if Vartune_fault.Fault.fires Vartune_fault.Fault.Delay ~site:"request.exec.delay" then
    Unix.sleepf delay_fault_s;
  match
    Obs.span "request.exec" ~attrs:(fun () -> [ ("kind", kind) ]) @@ fun () ->
    match req with
    | Request.Report { trace; metrics; run_dir; json } ->
      (match eval_report ~trace ~metrics ~run_dir ~json with
      | Ok output -> Response.ok ~kind ~elapsed_s:0.0 output
      | Error msg -> Response.fail ~kind ~elapsed_s:0.0 ~code:65 msg)
    | _ ->
      let e = Run.eval ?store req in
      Response.ok ~recipes:e.Run.recipes ~meta:e.Run.meta ~artifacts:e.Run.artifacts
        ~kind ~elapsed_s:0.0 e.Run.out
  with
  | resp -> { resp with Response.elapsed_s = elapsed () }
  | exception exn -> (
    match Experiment.classify_exn exn with
    | Some failure ->
      Response.fail ~kind ~elapsed_s:(elapsed ())
        ~code:(Experiment.exit_code failure)
        (Experiment.failure_message failure)
    | None ->
      if reraise_unclassified then raise exn
      else
        Response.fail ~kind ~elapsed_s:(elapsed ()) ~code:70
          (Printf.sprintf "internal error: %s" (Printexc.to_string exn)))
