(** Append-only, checksummed run journal for crash-safe checkpoint/resume.

    A run directory holds a [journal.vtj] file recording pipeline
    progress as typed {!step}s, plus a [state/] artifact store (a
    regular {!Vartune_store.Store}) holding the checkpointed artifacts
    the steps refer to.  Steps are keyed by the same recipe fingerprints
    the store uses, so replaying the journal and probing the store by
    key is enough to decide what is already done — the journal never has
    to be trusted about artifact {e contents}.

    {2 File format}

    {v
    "VTJRNL01"  journal_version  codec_version     (header)
    checksum  payload                              (record, repeated)
    v}

    All integers are {!Vartune_store.Codec} fixed-width little-endian;
    [payload] is a length-prefixed string holding a wall-clock
    timestamp (ns since the epoch, covered by the checksum) followed
    by one encoded step, and [checksum] is a 62-bit
    FNV-1a digest of it.  Appends are serialised
    through a mutex, written with a single [write] and [fsync]ed, so a
    reader never observes a torn record from a graceful writer.  Replay
    verifies the header and every record checksum; a truncated or
    bit-flipped journal raises {!Corrupt} — resumption degrades to a
    clean typed error, never to a wrong result.

    {2 Failure policy}

    The journal is load-bearing for {e resumability}, not for results:
    if an append fails (real I/O error, or an injected
    [write]/[fsync]/[partial_write] fault), the handle degrades — one
    warning is logged, the file is closed, later appends become no-ops —
    and the run continues to a correct completion that simply may not be
    resumable.

    {2 Telemetry}

    [journal.appends], [journal.checkpoints] and
    [journal.replayed_steps] counters tick when {!Vartune_obs.Obs} is
    enabled, so checkpoint overhead and resume savings are measurable. *)

val version : int
(** Journal layout version, 3 (independent of the store codec version,
    which is recorded alongside it: artifacts checkpointed under one
    codec version cannot seed a pipeline running another).  A journal
    of any other version is refused with {!Corrupt}. *)

exception Corrupt of string
(** The journal failed header, checksum or structural validation. *)

exception Interrupted of string
(** Raised by checkpoint-aware stages once a stop request has been
    honoured and the current progress is safely checkpointed.  Maps to
    the temporary-failure exit code (75): [vartune resume] continues
    the run. *)

(** {1 Steps} *)

type step =
  | Run_started of {
      request : string;
          (** the run's canonical request line ([Request.to_line]);
              opaque bytes to the journal *)
      output : string option;  (** [-o]: extra copy of the library *)
    }  (** What the run computes — what [resume] reconstructs. *)
  | Block_done of { statlib : string; lo : int; hi : int }
      (** Sample indices [\[lo, hi)] of the statistical library whose
          store-recipe id is [statlib] have been accumulated. *)
  | Checkpoint of { statlib : string; blocks : int; samples_done : int; key : string }
      (** A partial Welford state covering the first [blocks] sample
          blocks was saved to the run's state store under [key]. *)
  | Statlib_built of { key : string }
  | Min_period of { key : string; period : float }
  | Synthesis_done of { key : string; label : string; period : float }
  | Sweep_done of { tuning : string; period : float; points : int }
  | Resumed of { replayed : int }
  | Sealed of { reason : string }
      (** Last step of a graceful exit: ["completed"], ["interrupted"]
          or ["failed: ..."]. *)

val step_to_string : step -> string
(** One-line human-readable rendering (the [vartune journal] listing). *)

(** {1 Journal files} *)

type t
(** An open journal handle.  Appends are domain-safe. *)

val create : string -> t
(** Creates (truncating any previous file) and writes the header. *)

val open_append : string -> t
(** Opens an existing journal for appending.  Validate it first with
    {!replay}; this does not re-read the file. *)

val append : t -> step -> unit
(** Appends one checksummed, fsync'd record.  Never raises: an I/O
    failure degrades the handle (see above). *)

val seal : t -> reason:string -> unit
(** Appends {!Sealed} and closes the handle. *)

val close : t -> unit

val degraded : t -> bool
(** Whether an append failure has disabled this handle. *)

type timed = { at_ns : int64; step : step }
(** A replayed step with the wall clock at which it was appended. *)

val replay_timed : string -> timed list
(** Reads and validates the whole journal.  Raises {!Corrupt} on any
    header, checksum, truncation or decoding failure; raises the
    underlying [Unix_error]/[Sys_error] if the file cannot be read. *)

val replay : string -> step list
(** {!replay_timed} without the timestamps. *)

(** {1 Checkpoint context}

    The [ctx] threads everything checkpoint-aware stages need — the
    journal, the run's state store, the cooperative stop flag — through
    [Statistical.build] and [Experiment].  Stages call {!record} at
    progress boundaries and {!stop_requested} at safe points; the run
    supervisor's signal handlers call {!request_stop}. *)

type ctx = {
  journal : t;
  state : Vartune_store.Store.t;  (** the run's [state/] artifact store *)
  stop : bool Atomic.t;
  every_blocks : int;
      (** checkpoint cadence, in sample blocks ([VARTUNE_CKPT_BLOCKS],
          default 4); parallel stages round it up to the pool width *)
  replayed : step list;  (** steps recovered by [replay]; [[]] on a fresh run *)
  stop_after_blocks : int option;
      (** test hook ([VARTUNE_STOP_AFTER_BLOCKS]): request a stop after
          this many {!Block_done} records, as if a signal had arrived *)
  blocks_recorded : int Atomic.t;
}

val make_ctx :
  journal:t ->
  state:Vartune_store.Store.t ->
  ?replayed:step list ->
  ?every_blocks:int ->
  unit ->
  ctx
(** [every_blocks] defaults to [VARTUNE_CKPT_BLOCKS], else 4; a
    malformed or non-positive value raises [Invalid_argument] naming
    the offending token (the CLI pre-validates and exits 64).  The
    [VARTUNE_STOP_AFTER_BLOCKS] hook is read the same way. *)

val record : ctx -> step -> unit
(** {!append} plus bookkeeping: counts {!Block_done} records (feeding
    the [stop_after_blocks] hook) and the [journal.checkpoints]
    counter. *)

val request_stop : ctx -> unit
(** Asynchronously ask the pipeline to stop at the next safe point.
    Signal-handler safe: only flips an atomic. *)

val stop_requested : ctx -> bool

val check_stop : ctx -> unit
(** Raises {!Interrupted} if a stop has been requested.  For stage
    boundaries, where everything before is already journaled and
    everything after has not started — no checkpoint needs to be
    written first. *)

val checkpoints_for : ctx -> statlib:string -> (int * int) list
(** [(blocks, samples_done)] of every replayed {!Checkpoint} step for
    the given statistical-library recipe id, newest first — the order a
    resuming build should try (falling back on corrupt entries). *)

val tiers : ?store:Vartune_store.Store.t -> ctx option -> Vartune_store.Store.t list
(** The cache tiers of an artifact, in probe order for
    {!Vartune_store.Store.fetch}: the shared [store] first, then the
    journaled run's [state/] store.  Either may be absent; with neither,
    the list is empty and every fetch computes.  Each tier is probed in
    its handle's in-process tier of decoded values before its disk
    entry, so a handle that lives across requests decodes each artifact
    at most once; a computed artifact is remembered by both tiers. *)
