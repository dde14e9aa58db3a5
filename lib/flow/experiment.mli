(** Experiment orchestration for the paper's evaluation (Section VII).

    A {!setup} bundles everything the experiments share: the statistical
    library (built once from N Monte-Carlo characterisation samples), the
    evaluation design, and the clock-period ladder derived from the
    measured minimum period the way the paper's Table 1 derives its
    constraints from 2.41 ns.

    Every synthesis run is fetched with {!Vartune_journal.Journal.fetch}
    under its store recipe id ({!Vartune_store.Store.Key.id}): first
    from the setup's {!Vartune_store.Store.scope}, then — when
    {!prepare_request} was given a store or a journaled run — from the
    artifact store tiers, so warm processes get the same runs
    bit-identically, and a journaled run records each fetched run.  No
    cache level is observable in results: cold, warm and store-less
    executions produce byte-identical reports at any pool size.

    {b Lifetime.}  A setup holds every run it fetched until the setup
    is dropped, and nothing else bounds that memory: every figure of
    [vartune figures all -n 8] from one setup peaks at ~1.8 GB. *)

type run = {
  label : string;
  period : float;
  result : Vartune_synth.Synthesis.result;
  paths : Vartune_sta.Path.t list;  (** worst path per endpoint *)
  design_sigma : Vartune_stats.Design_sigma.t;
}

type cache
(** Where a setup's runs come from: its scope, plus the store tiers and
    journal behind it.  Safe to share across pool workers. *)

type setup = {
  char_config : Vartune_charlib.Characterize.config;
  mismatch : Vartune_process.Mismatch.t;
  seed : int;
  samples : int;
  design : Vartune_rtl.Ir.t;
  design_fp : int;  (** {!Vartune_rtl.Ir.fingerprint} of [design] *)
  statlib : Vartune_liberty.Library.t;
  min_period : float;
  periods : (string * float) list;
  (** labelled ladder: high / close-to-max / medium / low performance *)
  cache : cache;
}

val prepare_request :
  ?mcu_config:Vartune_rtl.Microcontroller.config ->
  ?store:Vartune_store.Store.t ->
  ?ckpt:Vartune_journal.Journal.ctx ->
  ?specs:Vartune_stdcell.Spec.t list ->
  Request.t ->
  setup
(** Builds the statistical library (seed and sample count from the
    request's {!Request.base}; defaults 42/50 for request kinds that
    carry none) across the default pool's domains, elaborates the
    microcontroller and measures the minimum period.  With [store], the
    statistical library, the measured minimum period and every
    subsequent synthesis run are fetched from / saved to the persistent
    artifact store.  [specs] restricts the characterised catalog (default
    {!Vartune_stdcell.Catalog.specs}); it must still cover every family
    the technology mapper emits.

    With [ckpt] (a journaled run), the statistical library builds
    resumably (see {!Vartune_statlib.Statistical.build}), the run's
    private state store joins the cache layers of every artifact, each
    landed artifact is journaled, and a pending stop request raises
    [Journal.Interrupted] at the next safe point. *)

val recipe_ids : setup -> string list
(** The content-addressed store recipe ids underlying a setup — the
    statistical library's key and the minimum-period measurement's key
    — carried into {!Response.t.recipes} so a client can audit what a
    served result was keyed by. *)

val fresh_cache : setup -> setup
(** The same setup with an empty scope and no store tiers or journal —
    runs recompute from scratch, for timing comparisons that must not
    hit earlier runs' entries (in memory or on disk). *)

val baseline : setup -> period:float -> run
(** Synthesis with the untuned statistical library.  A second fetch of
    the same period returns the same value, held by the setup. *)

val tuned : setup -> period:float -> tuning:Vartune_tuning.Tuning_method.t -> run
(** Synthesis with the given method's restrictions installed.  The
    restriction table is extracted (in a [tuning.restrictions] span)
    only when the run is computed, never on a hit. *)

val sigma_reduction : baseline:run -> tuned:run -> float
(** Relative design-sigma decrease, e.g. [0.37] for -37 %. *)

val area_increase : baseline:run -> tuned:run -> float
(** Relative area increase, e.g. [0.07] for +7 %. *)

type sweep_point = {
  parameter : float;
  run : run;
  reduction : float;  (** vs the sweep's baseline *)
  area_delta : float;
}

val sweep :
  ?pool:Vartune_util.Pool.t ->
  setup ->
  baseline:run ->
  tuning:Vartune_tuning.Tuning_method.t ->
  parameters:float list ->
  sweep_point list
(** One tuning method across its constraint-parameter sweep (Table 2),
    at the period of [baseline], which every point is scored against
    (pass the {!baseline} run of that period).  The points are
    synthesised in parallel on the pool (default
    {!Vartune_util.Pool.default}) and returned in parameter order; the
    result is independent of the pool size. *)

val best_under_area_cap :
  ?cap:float -> sweep_point list -> sweep_point option
(** The paper's Fig. 10 selection rule: highest sigma reduction among
    feasible points with area increase below [cap] (default 10 %); the
    first such point wins a tie.  [None] if no point qualifies, and
    Fig. 10 then shows no bar for the method. *)

val paper_period_labels : float -> (string * float) list
(** Scales the paper's Table 1 ladder (2.41 / 2.5 / 4 / 10 ns) to a
    measured minimum period. *)

val find_path_of_depth :
  run -> depth:int -> Vartune_sta.Path.t option
(** The extracted path whose depth is closest to [depth] — used to pick
    the short/medium/long paths of Figs. 15–16. *)

(** {2 Failure classification}

    The hardened layers keep most faults out of the control flow: the
    store degrades to no-store, the pool restarts crashed workers.
    What still escapes is classified here so the CLI can exit with a
    typed, sysexits.h-style status instead of a backtrace. *)

type failure =
  | Data_error of string
      (** malformed input data (Liberty lexer/parser errors) — exit 65 *)
  | Io_error of string
      (** unrecoverable I/O (raw [Sys_error]/[Unix_error], corrupt
          artifact escaping the store) — exit 74 *)
  | Worker_error of string
      (** pool workers kept dying or stalled ({!Vartune_util.Pool.Worker_failure})
          — exit 75, worth retrying *)
  | Interrupted of string
      (** a graceful, checkpointed stop ({!Vartune_journal.Journal.Interrupted})
          — exit 75; [vartune resume] continues the run *)
  | Internal_error of string
      (** a bug, e.g. an injected fault escaping its hardened layer —
          exit 70 *)

val classify_exn : exn -> failure option
(** [None] means the exception is not one of the pipeline's typed
    failures and should propagate (and exit 125 via the CLI guard). *)

val exit_code : failure -> int
(** 65 / 74 / 75 / 70 per the constructor docs above. *)

val failure_message : failure -> string
(** One-line operator-facing description. *)
