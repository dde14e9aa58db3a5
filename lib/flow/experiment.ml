module Characterize = Vartune_charlib.Characterize
module Pool = Vartune_util.Pool
module Statistical = Vartune_statlib.Statistical
module Mismatch = Vartune_process.Mismatch
module Mcu = Vartune_rtl.Microcontroller
module Ir = Vartune_rtl.Ir
module Library = Vartune_liberty.Library
module Synthesis = Vartune_synth.Synthesis
module Constraints = Vartune_synth.Constraints
module Path = Vartune_sta.Path
module Design_sigma = Vartune_stats.Design_sigma
module Tuning_method = Vartune_tuning.Tuning_method
module Store = Vartune_store.Store
module Codec = Vartune_store.Codec
module Obs = Vartune_obs.Obs
module Journal = Vartune_journal.Journal

let src = Logs.Src.create "vartune.flow" ~doc:"experiment flow"

module Log = (val Logs.src_log src : Logs.LOG)

let c_cache_hits = Obs.Counter.make "synth.cache.hits"
let c_cache_misses = Obs.Counter.make "synth.cache.misses"
let c_sweep_points = Obs.Counter.make "sweep.points"

type run = {
  label : string;
  period : float;
  result : Synthesis.result;
  design_sigma : Design_sigma.t;
}

type cache = {
  scope : Store.scope;  (** every run the setup fetched *)
  store : Store.t option;
  ckpt : Journal.ctx option;  (** a journaled run records every fetched run *)
  statlib_id : string;
      (** full recipe id of the statistical-library store key; chained
          into every run key so a different library invalidates runs *)
}

type setup = {
  char_config : Characterize.config;
  mismatch : Mismatch.t;
  seed : int;
  samples : int;
  design : Ir.t;
  design_fp : int;
  statlib : Library.t;
  min_period : float;
  periods : (string * float) list;
  cache : cache;
}

let paper_period_labels min_period =
  (* Table 1 scaled: 2.41 (high), 2.5 (close to maximum check),
     4 (medium), 10 (low) *)
  let scale = min_period /. 2.41 in
  [
    ("high", min_period);
    ("close", Float.round (2.5 *. scale *. 100.0) /. 100.0);
    ("medium", Float.round (4.0 *. scale *. 100.0) /. 100.0);
    ("low", Float.round (10.0 *. scale *. 100.0) /. 100.0);
  ]

let new_cache ?store ?ckpt ~statlib_id () = { scope = Store.scope (); store; ckpt; statlib_id }

let min_period_kind : float Store.kind = Store.kind ()

let min_period_key ~statlib_id ~design_fp =
  Store.Key.(int (str (v "min_period") "statlib" statlib_id) "design" design_fp)

(* Requests without a base (characterise, report, parse) get the
   paper-scale defaults. *)
let prepare_request ?(mcu_config = Mcu.default_config) ?store ?ckpt ?specs req =
  let { Request.seed; samples } =
    Option.value (Request.base_of req) ~default:{ Request.seed = 42; samples = 50 }
  in
  Obs.span "flow.prepare" ~attrs:(fun () -> [ ("samples", string_of_int samples) ])
  @@ fun () ->
  let char_config = Characterize.default_config in
  let mismatch = Mismatch.default in
  let statlib_key = Statistical.store_key char_config ~mismatch ~seed ~n:samples ?specs () in
  let statlib_id = Store.Key.id statlib_key in
  Log.info (fun m -> m "building statistical library (N=%d)" samples);
  let statlib = Statistical.build ?store ?ckpt char_config ~mismatch ~seed ~n:samples ?specs () in
  let design = Mcu.generate ~config:mcu_config () in
  Log.info (fun m -> m "design %s: %d IR nodes" (Ir.name design) (Ir.node_count design));
  let design_fp = Ir.fingerprint design in
  Option.iter Journal.check_stop ckpt;
  let min_period_key = min_period_key ~statlib_id ~design_fp in
  let min_period, _ =
    Journal.fetch ~kind:min_period_kind ?store ckpt min_period_key Codec.r_float
      (fun p b -> Codec.w_float b p)
      ~step:(fun period -> Journal.Min_period { key = Store.Key.id min_period_key; period })
      (fun () -> Synthesis.min_period statlib design)
  in
  Log.info (fun m -> m "minimum period: %.2f ns" min_period);
  {
    char_config;
    mismatch;
    seed;
    samples;
    design;
    design_fp;
    statlib;
    min_period;
    periods = paper_period_labels min_period;
    cache = new_cache ?store ?ckpt ~statlib_id ();
  }

let recipe_ids setup =
  let statlib_id = setup.cache.statlib_id in
  [ statlib_id; Store.Key.id (min_period_key ~statlib_id ~design_fp:setup.design_fp) ]

let fresh_cache setup = { setup with cache = new_cache ~statlib_id:setup.cache.statlib_id () }

(* The persistent key of one synthesis run.  The restrictions table is
   not an ingredient of its own: it is a deterministic function of
   (method label, statistical library), and both are in the key.  The
   remaining constraint scalars are included explicitly so a future
   change of defaults invalidates entries. *)
let run_key setup ~period ~label ~(cons : Constraints.t) =
  Store.Key.(
    v "synth_run"
    |> fun k ->
    str k "statlib" setup.cache.statlib_id |> fun k ->
    int k "design" setup.design_fp |> fun k ->
    float k "period" period |> fun k ->
    str k "label" label |> fun k ->
    float k "guard_band" cons.guard_band |> fun k ->
    float k "input_slew" cons.input_slew |> fun k ->
    float k "clock_slew" cons.clock_slew |> fun k ->
    float k "output_load" cons.output_load |> fun k ->
    int k "max_fanout" cons.max_fanout |> fun k ->
    float k "max_transition" cons.max_transition |> fun k ->
    int k "max_iterations" cons.max_iterations |> fun k ->
    bool k "area_recovery" cons.area_recovery)

let encode_run r b =
  Codec.w_string b r.label;
  Codec.w_float b r.period;
  Codec.w_result b r.result;
  Codec.w_design_sigma b r.design_sigma

let run_kind : run Store.kind = Store.kind ()

(* Every field but the result is checked against the key's recipe or
   recomputed from the result: an entry that decodes is the run its key
   names, or [Codec.Corrupt] evicts it. *)
let decode_run ~library ~label ~(cons : Constraints.t) r =
  let period = cons.Constraints.clock_period in
  if Codec.r_string r <> label then raise (Codec.Corrupt "run label differs from its key");
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  if not (same (Codec.r_float r) period) then
    raise (Codec.Corrupt "run period differs from its key");
  let result = Codec.r_result ~library ~timing_config:(Constraints.timing_config cons) r in
  let design_sigma = Codec.r_design_sigma r in
  let { Design_sigma.dist = d; paths; worst_path_3sigma = w } =
    Design_sigma.measure result.Synthesis.timing result.Synthesis.netlist
  in
  if
    not
      (paths = design_sigma.paths
      && same d.mean design_sigma.dist.mean
      && same d.sigma design_sigma.dist.sigma
      && same w design_sigma.worst_path_3sigma)
  then raise (Codec.Corrupt "stored design sigma disagrees with the timing");
  { label; period; result; design_sigma }

(* Synthesis runs are deterministic in their recipe (setup identity,
   period, label, constraints), and the experiments re-visit baselines
   constantly: every run is fetched through the setup's scope, then the
   store tiers, and computed only when neither holds it.  The
   restriction table is built only then; neither the key nor the
   decoder reads it.  A run is shared once fetched, so its timing's
   endpoint lists are built before that: by [Design_sigma.measure] on
   compute, by [Codec.r_result] on decode. *)
let run_with ?restrictions setup ~period ~label =
  let c = setup.cache in
  let cons = Constraints.make ~clock_period:period () in
  let key = run_key setup ~period ~label ~cons in
  let r, hit =
    Journal.fetch ~kind:run_kind ~scope:c.scope ?store:c.store c.ckpt key
      (decode_run ~library:setup.statlib ~label ~cons)
      encode_run
      ~step:(fun _ -> Journal.Synthesis_done { key = Store.Key.id key; label; period })
      (fun () ->
        let cons = { cons with restrictions = Option.map (fun f -> f ()) restrictions } in
        let result = Synthesis.run cons setup.statlib setup.design in
        let design_sigma = Design_sigma.measure result.Synthesis.timing result.Synthesis.netlist in
        { label; period; result; design_sigma })
  in
  Obs.Counter.incr (if hit then c_cache_hits else c_cache_misses);
  r

let paths run = Path.worst_per_endpoint run.result.Synthesis.timing run.result.Synthesis.netlist

let baseline setup ~period = run_with setup ~period ~label:"baseline"

let tuned setup ~period ~tuning =
  let restrictions () =
    Obs.span "tuning.restrictions" (fun () -> Tuning_method.restrictions tuning setup.statlib)
  in
  run_with ~restrictions setup ~period ~label:(Tuning_method.to_string tuning)

let sigma_reduction ~baseline ~tuned =
  let b = baseline.design_sigma.Design_sigma.dist.Vartune_stats.Dist.sigma in
  let t = tuned.design_sigma.Design_sigma.dist.Vartune_stats.Dist.sigma in
  if b = 0.0 then 0.0 else (b -. t) /. b

let area_increase ~baseline ~tuned =
  let b = baseline.result.Synthesis.area in
  let t = tuned.result.Synthesis.area in
  if b = 0.0 then 0.0 else (t -. b) /. b

type sweep_point = { parameter : float; run : run; reduction : float; area_delta : float }

let sweep ?pool setup ~baseline:base ~tuning ~parameters =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let period = base.period in
  Obs.span "sweep.run"
    ~attrs:(fun () ->
      [
        ("method", Tuning_method.to_string tuning);
        ("points", string_of_int (List.length parameters));
      ])
  @@ fun () ->
  Pool.map_chunked pool
    (fun parameter ->
      Obs.span "sweep.point" ~attrs:(fun () -> [ ("parameter", string_of_float parameter) ])
      @@ fun () ->
      Obs.Counter.incr c_sweep_points;
      let tuning = Tuning_method.with_parameter tuning parameter in
      let run = tuned setup ~period ~tuning in
      {
        parameter;
        run;
        reduction = sigma_reduction ~baseline:base ~tuned:run;
        area_delta = area_increase ~baseline:base ~tuned:run;
      })
    parameters

let best_under_area_cap ?(cap = 0.10) points =
  (* the paper's Fig 10 rule is a hard filter: feasible, under the area
     cap and decreasing sigma; a method with no qualifying point shows
     no bar *)
  points
  |> List.filter (fun p ->
         p.run.result.Synthesis.feasible && p.area_delta < cap && p.reduction > 0.0)
  |> List.fold_left
       (fun acc p ->
         match acc with
         | None -> Some p
         | Some best -> if p.reduction > best.reduction then Some p else acc)
       None

(* ------------------------------------------------------------------ *)
(* Failure classification                                              *)
(* ------------------------------------------------------------------ *)

(* The hardened layers (store, pool) convert most faults into degraded
   service instead of exceptions, so anything that still escapes to the
   CLI deserves a typed, actionable exit code in the sysexits.h
   vocabulary rather than a backtrace and exit 2. *)
type failure =
  | Data_error of string  (** malformed input data, e.g. a Liberty file *)
  | Io_error of string  (** an I/O failure that was not recoverable *)
  | Worker_error of string  (** worker domains kept dying or stalled *)
  | Interrupted of string
      (** a graceful stop: progress is checkpointed, resume continues *)
  | Internal_error of string
      (** a bug: e.g. an injected fault escaped its hardened layer *)

let exit_code = function
  | Data_error _ -> 65 (* EX_DATAERR *)
  | Io_error _ -> 74 (* EX_IOERR *)
  | Worker_error _ | Interrupted _ -> 75 (* EX_TEMPFAIL *)
  | Internal_error _ -> 70 (* EX_SOFTWARE *)

let failure_message = function
  | Data_error m -> Printf.sprintf "data error: %s" m
  | Io_error m -> Printf.sprintf "I/O error: %s" m
  | Worker_error m -> Printf.sprintf "worker failure: %s" m
  | Interrupted m -> Printf.sprintf "interrupted: %s (resume with `vartune resume`)" m
  | Internal_error m -> Printf.sprintf "internal error: %s" m

let classify_exn = function
  | Vartune_liberty.Lexer.Error { line; message } ->
    Some (Data_error (Printf.sprintf "liberty lexer, line %d: %s" line message))
  | Vartune_liberty.Parser.Error message ->
    Some (Data_error (Printf.sprintf "liberty parser: %s" message))
  | Journal.Interrupted message -> Some (Interrupted message)
  | Journal.Corrupt reason -> Some (Data_error (Printf.sprintf "journal: %s" reason))
  | Codec.Corrupt reason ->
    Some (Io_error (Printf.sprintf "corrupt artifact escaped the store: %s" reason))
  | Sys_error reason -> Some (Io_error reason)
  | Unix.Unix_error (err, fn, arg) ->
    Some
      (Io_error
         (Printf.sprintf "%s in %s%s" (Unix.error_message err) fn
            (if arg = "" then "" else Printf.sprintf " (%s)" arg)))
  | Pool.Worker_failure message -> Some (Worker_error message)
  | Vartune_fault.Fault.Injected { point; site; seq } ->
    (* a fault reaching here means some layer failed to harden its
       boundary — report it as the bug it is, with a typed exit *)
    Some
      (Internal_error
         (Printf.sprintf "injected %s fault escaped at %s (occurrence %d)"
            (Vartune_fault.Fault.point_to_string point) site seq))
  | _ -> None

let find_path_of_depth run ~depth =
  List.fold_left
    (fun acc p ->
      match acc with
      | None -> Some p
      | Some best ->
        if abs (Path.depth p - depth) < abs (Path.depth best - depth) then Some p else acc)
    None (paths run)
