(* The `vartune report` back end: one human-readable (or JSON) run
   report assembled from whichever sources are at hand — an exported
   Chrome trace (span profile, domain utilization, GC attribution), a
   metrics JSON file (counters and histogram quantiles), and/or a
   journaled run directory (step timeline, checkpoint count, progress
   and ETA from the per-record timestamps). *)

module Obs = Vartune_obs.Obs
module Json = Vartune_obs.Json
module Profile = Vartune_obs.Profile
module Journal = Vartune_journal.Journal

type timeline = {
  steps : Journal.timed list;
  samples : int;  (* target sample count of the run's request; 0 if absent *)
  samples_done : int;  (* highest Block_done hi *)
  blocks : int;
  checkpoints : int;
  sealed : string option;
  elapsed_s : float;
}

type t = {
  profile : Profile.t option;
  metrics : Json.t option;
  timeline : timeline option;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ( let* ) = Result.bind

let timeline_of_steps steps =
  let first = match steps with [] -> 0L | s :: _ -> s.Journal.at_ns in
  let last = List.fold_left (fun _ s -> s.Journal.at_ns) first steps in
  let samples =
    List.find_map
      (function
        | Journal.{ step = Run_started { request; _ }; _ } -> (
          match Request.of_line request with
          | Ok { Request.req; _ } ->
            Option.map (fun b -> b.Request.samples) (Request.base_of req)
          | Error _ -> None)
        | _ -> None)
      steps
    |> Option.value ~default:0
  in
  List.fold_left
    (fun acc s ->
      match s.Journal.step with
      | Journal.Block_done { hi; _ } ->
        { acc with blocks = acc.blocks + 1; samples_done = max acc.samples_done hi }
      | Journal.Checkpoint _ -> { acc with checkpoints = acc.checkpoints + 1 }
      | Journal.Sealed { reason } -> { acc with sealed = Some reason }
      | _ -> acc)
    {
      steps;
      samples;
      samples_done = 0;
      blocks = 0;
      checkpoints = 0;
      sealed = None;
      elapsed_s = Int64.to_float (Int64.sub last first) /. 1e9;
    }
    steps

(* Any input may be missing, but at least one must be given.  Raises
   {!Journal.Corrupt} (exit 65 through the CLI guard) on a damaged
   journal; trace and metrics problems come back as [Error]. *)
let build ?trace ?metrics ?run_dir () =
  match (trace, metrics, run_dir) with
  | None, None, None -> Error "nothing to report on: give a trace, a metrics file or --run-dir"
  | _ ->
    let* profile =
      match trace with
      | None -> Ok None
      | Some path -> (
        match Profile.of_trace_file path with
        | Ok p -> Ok (Some p)
        | Error e -> Error (Printf.sprintf "%s: %s" path e))
    in
    let* metrics =
      match metrics with
      | None -> Ok None
      | Some path -> (
        match Json.parse (read_file path) with
        | Ok j -> Ok (Some j)
        | Error e -> Error (Printf.sprintf "%s: %s" path e))
    in
    let timeline =
      Option.map
        (fun dir -> timeline_of_steps (Journal.replay_timed (Run.journal_path dir)))
        run_dir
    in
    Ok { profile; metrics; timeline }

(* Same sniffing the CLI uses for positional files: a JSON document
   with [traceEvents] is a trace, one with [counters] is a metrics
   file. *)
let classify_file path =
  match Json.parse (read_file path) with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok json ->
    if Json.member "traceEvents" json <> None then Ok `Trace
    else if Json.member "counters" json <> None then begin
      (* Reject metrics documents stamped with a schema we don't
         understand; absent [schema] means pre-versioning output and
         stays accepted. *)
      match Json.member "schema" json with
      | Some (Json.Number v)
        when int_of_float v <> Obs.metrics_schema_version ->
        Error
          (Printf.sprintf "%s: unsupported metrics schema version %d (expected %d)"
             path (int_of_float v) Obs.metrics_schema_version)
      | _ -> Ok `Metrics
    end
    else Error (Printf.sprintf "%s: neither a trace (traceEvents) nor a metrics (counters) file" path)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let heading buf title =
  Buffer.add_string buf (Printf.sprintf "== %s %s\n" title (String.make (max 0 (66 - String.length title)) '='))

let metrics_text buf json =
  let section name render =
    match Json.member name json with
    | Some (Json.Object kvs) when kvs <> [] ->
      Buffer.add_string buf (Printf.sprintf "%s:\n" name);
      List.iter (fun (k, v) -> render k v) kvs
    | _ -> ()
  in
  section "counters" (fun k v ->
      match Json.to_float v with
      | Some f -> Buffer.add_string buf (Printf.sprintf "  %-40s %.0f\n" k f)
      | None -> ());
  section "gauges" (fun k v ->
      match Json.to_float v with
      | Some f -> Buffer.add_string buf (Printf.sprintf "  %-40s %g\n" k f)
      | None -> ());
  section "histograms" (fun k v ->
      let f name = Option.bind (Json.member name v) Json.to_float in
      match (f "count", f "mean") with
      | Some count, Some mean ->
        Buffer.add_string buf
          (Printf.sprintf "  %-40s count=%.0f mean=%g%s\n" k count mean
             (match (f "p50", f "p99") with
             | Some p50, Some p99 -> Printf.sprintf " p50=%g p99=%g" p50 p99
             | _ -> ""))
      | _ -> ())

let timeline_text buf tl =
  let first = match tl.steps with [] -> 0L | s :: _ -> s.Journal.at_ns in
  List.iter
    (fun (s : Journal.timed) ->
      Buffer.add_string buf
        (Printf.sprintf "  %+9.3fs  %s\n"
           (Int64.to_float (Int64.sub s.Journal.at_ns first) /. 1e9)
           (Journal.step_to_string s.Journal.step)))
    tl.steps;
  let progress =
    if tl.samples > 0 then
      Printf.sprintf "samples %d/%d (%.0f%%), " tl.samples_done tl.samples
        (100.0 *. float_of_int tl.samples_done /. float_of_int tl.samples)
    else ""
  in
  Buffer.add_string buf
    (Printf.sprintf "  %d blocks, %d checkpoints, %selapsed %.3f s\n" tl.blocks
       tl.checkpoints progress tl.elapsed_s);
  match tl.sealed with
  | Some reason -> Buffer.add_string buf (Printf.sprintf "  sealed: %s\n" reason)
  | None ->
    (* unsealed journal: the run is live (or died without sealing);
       extrapolate the remaining samples at the recorded rate *)
    if tl.samples_done > 0 && tl.samples > tl.samples_done && tl.elapsed_s > 0.0 then begin
      let rate = float_of_int tl.samples_done /. tl.elapsed_s in
      Buffer.add_string buf
        (Printf.sprintf "  unsealed (run in progress?); ETA %.1f s for %d remaining samples\n"
           (float_of_int (tl.samples - tl.samples_done) /. rate)
           (tl.samples - tl.samples_done))
    end
    else Buffer.add_string buf "  unsealed (run in progress?)\n"

let to_text t =
  let buf = Buffer.create 4096 in
  Option.iter
    (fun p ->
      heading buf "profile";
      Buffer.add_string buf (Profile.to_text p))
    t.profile;
  Option.iter
    (fun m ->
      heading buf "metrics";
      metrics_text buf m)
    t.metrics;
  Option.iter
    (fun tl ->
      heading buf "journal";
      timeline_text buf tl)
    t.timeline;
  Buffer.contents buf

let timeline_json tl =
  let first = match tl.steps with [] -> 0L | s :: _ -> s.Journal.at_ns in
  let step (s : Journal.timed) =
    Json.Object
      [
        ("at_s", Json.Number (Int64.to_float (Int64.sub s.Journal.at_ns first) /. 1e9));
        ("step", Json.String (Journal.step_to_string s.Journal.step));
      ]
  in
  Json.Object
    [
      ("steps", Json.Array (List.map step tl.steps));
      ("samples", Json.int tl.samples);
      ("samples_done", Json.int tl.samples_done);
      ("blocks", Json.int tl.blocks);
      ("checkpoints", Json.int tl.checkpoints);
      ("elapsed_s", Json.Number tl.elapsed_s);
      ("sealed", match tl.sealed with Some r -> Json.String r | None -> Json.Null);
    ]

let to_json t =
  let opt f = function Some x -> f x | None -> Json.Null in
  Json.to_string
    (Json.Object
       [
         ("profile", opt Profile.to_json t.profile);
         ("metrics", opt Fun.id t.metrics);
         ("journal", opt timeline_json t.timeline);
       ])
  ^ "\n"
