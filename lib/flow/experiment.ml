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
  paths : Path.t list;
  design_sigma : Design_sigma.t;
}

type memo = {
  table : (string, run) Hashtbl.t;
      (** keyed by the recipe id of {!run_key}; guarded by [lock] so
          sweep points may run on pool workers *)
  lock : Mutex.t;
  tiers : Store.t list;  (** {!Journal.tiers}: shared store, then run state *)
  ckpt : Journal.ctx option;  (** a journaled run records every landed artifact *)
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
  memo : memo;
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

let make_memo ?(tiers = []) ?ckpt ~statlib_id () =
  { table = Hashtbl.create 64; lock = Mutex.create (); tiers; ckpt; statlib_id }

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
  let tiers = Journal.tiers ?store ckpt in
  let min_period_key = min_period_key ~statlib_id ~design_fp in
  let min_period, _ =
    Store.fetch ~kind:min_period_kind tiers min_period_key Codec.r_float
      (fun p b -> Codec.w_float b p)
      (fun () -> Synthesis.min_period statlib design)
  in
  Option.iter
    (fun c ->
      Journal.record c
        (Journal.Min_period { key = Store.Key.id min_period_key; period = min_period }))
    ckpt;
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
    memo = make_memo ~tiers ?ckpt ~statlib_id ();
  }

let recipe_ids setup =
  let statlib_id = setup.memo.statlib_id in
  [ statlib_id; Store.Key.id (min_period_key ~statlib_id ~design_fp:setup.design_fp) ]

let fresh_memo setup =
  { setup with memo = make_memo ~statlib_id:setup.memo.statlib_id () }

(* The persistent key of one synthesis run.  The restrictions table is
   not an ingredient of its own: it is a deterministic function of
   (method label, statistical library), and both are in the key.  The
   remaining constraint scalars are included explicitly so a future
   change of defaults invalidates entries. *)
let run_key setup ~period ~label ~(cons : Constraints.t) =
  Store.Key.(
    v "synth_run"
    |> fun k ->
    str k "statlib" setup.memo.statlib_id |> fun k ->
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
  Codec.w_paths b r.paths;
  Codec.w_design_sigma b r.design_sigma

let run_kind : run Store.kind = Store.kind ()

let decode_run ~(cons : Constraints.t) r =
  let label = Codec.r_string r in
  let period = Codec.r_float r in
  let result = Codec.r_result ~timing_config:(Constraints.timing_config cons) r in
  let paths = Codec.r_paths r in
  let design_sigma = Codec.r_design_sigma r in
  { label; period; result; paths; design_sigma }

(* Synthesis runs are deterministic in their recipe (setup identity,
   period, label, constraints); the experiments re-visit baselines
   constantly, so memoise.  Lookups go memo table → store tiers →
   compute, all keyed by the recipe id of [run_key]; every cache level
   returns runs bit-identical to a fresh synthesis.  The memo table
   lives in the setup, so two setups never share entries.  The mutex
   makes the table safe under Pool.map; a miss is resolved outside the
   lock (concurrent first requests may duplicate the work, but the
   result is deterministic so either insert is correct). *)
let run_with setup ~period ~label ~restrictions =
  let memo = setup.memo in
  let cons = Constraints.make ~clock_period:period ?restrictions () in
  let key = run_key setup ~period ~label ~cons in
  let id = Store.Key.id key in
  match Mutex.protect memo.lock (fun () -> Hashtbl.find_opt memo.table id) with
  | Some r ->
    Obs.Counter.incr c_cache_hits;
    r
  | None ->
    let r, hit =
      Store.fetch ~kind:run_kind memo.tiers key (decode_run ~cons) encode_run (fun () ->
          let result = Synthesis.run cons setup.statlib setup.design in
          let paths = Path.worst_per_endpoint result.Synthesis.timing result.Synthesis.netlist in
          { label; period; result; paths; design_sigma = Design_sigma.of_paths paths })
    in
    Obs.Counter.incr (if hit then c_cache_hits else c_cache_misses);
    Option.iter
      (fun c -> Journal.record c (Journal.Synthesis_done { key = id; label; period }))
      memo.ckpt;
    Mutex.protect memo.lock (fun () ->
        match Hashtbl.find_opt memo.table id with
        | Some earlier -> earlier
        | None ->
          Hashtbl.replace memo.table id r;
          r)

let baseline setup ~period = run_with setup ~period ~label:"baseline" ~restrictions:None

let tuned setup ~period ~tuning =
  let label = Tuning_method.to_string tuning in
  let restrictions = Tuning_method.restrictions tuning setup.statlib in
  run_with setup ~period ~label ~restrictions:(Some restrictions)

let sigma_reduction ~baseline ~tuned =
  let b = baseline.design_sigma.Design_sigma.dist.Vartune_stats.Dist.sigma in
  let t = tuned.design_sigma.Design_sigma.dist.Vartune_stats.Dist.sigma in
  if b = 0.0 then 0.0 else (b -. t) /. b

let area_increase ~baseline ~tuned =
  let b = baseline.result.Synthesis.area in
  let t = tuned.result.Synthesis.area in
  if b = 0.0 then 0.0 else (t -. b) /. b

type sweep_point = { parameter : float; run : run; reduction : float; area_delta : float }

let sweep ?pool setup ~period ~tuning ~parameters =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  Obs.span "sweep.run"
    ~attrs:(fun () ->
      [
        ("method", Tuning_method.to_string tuning);
        ("points", string_of_int (List.length parameters));
      ])
  @@ fun () ->
  let base = baseline setup ~period in
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
  (* the paper's Fig 10 rule is a hard filter: feasible and under the
     area cap; a method with no qualifying point shows no bar *)
  points
  |> List.filter (fun p -> p.run.result.Synthesis.feasible && p.area_delta < cap)
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
    None run.paths
