(** Request evaluation and journaled run supervision.

    {!eval} is the pipeline body behind every {!Request.t}: it produces
    the exact bytes the equivalent CLI subcommand prints — plus the
    library, deliverable artifacts, store recipe ids and small metadata
    — whether the request arrives from a subcommand shim, the serve
    daemon, or a journaled run.  {!Run_request.exec} wraps it in the
    total {!Response.t} envelope.

    A {e journaled run} lives in a run directory:

    {v
    <run>/journal.vtj   append-only step journal (Vartune_journal)
    <run>/state/        private artifact store for checkpoints
    <run>/statlib.lib   the statistical library, written on completion
    <run>/report.txt    everything the run printed, written on completion
    v}

    A run is its {!Request.t}: [execute_request] journals the request's
    canonical line ({!Request.to_line}) as the [Run_started] step and
    installs SIGINT/SIGTERM handlers that request a cooperative stop:
    the pipeline finishes the current round, checkpoints its partial
    state to [state/], journals the checkpoint and raises
    {!Vartune_journal.Journal.Interrupted}, which the CLI maps to exit
    75 (EX_TEMPFAIL).  [resume] replays the journal, decodes the request
    from that line ({!Request.of_line}), re-validates every journaled
    artifact against the store by recipe key (a corrupt entry is
    evicted and recomputed, never trusted) and continues.  The resumed
    output — stdout, [report.txt], [statlib.lib] — is bit-identical to
    an uninterrupted run at any [--jobs] and any checkpoint cadence. *)

type evaled = {
  out : string;
      (** exact stdout bytes of the equivalent plain CLI subcommand *)
  library : Vartune_liberty.Library.t option;
      (** the built library, for [-o] delivery and run-dir artifacts *)
  artifacts : (string * string) list;  (** name -> contents (e.g. [verilog]) *)
  recipes : string list;  (** store recipe ids underlying the result *)
  meta : (string * string) list;  (** small facts, e.g. [("cells","304")] *)
}

val eval :
  ?store:Vartune_store.Store.t ->
  ?ckpt:Vartune_journal.Journal.ctx ->
  ?emit:(string -> unit) ->
  Request.t ->
  evaled
(** Evaluates one request: identical stage order, stage parameters and
    output bytes whether plain, served, journaled, interrupted or
    resumed.  Progress lines additionally go through [emit] (without
    trailing newline) as they happen.  With [ckpt] (a journaled run)
    every stage checkpoints and honours stop requests.  Raises
    [Invalid_argument] on {!Request.Report}, which is evaluated by
    {!Run_request.exec} (it needs the report layer above this module). *)

val execute_request :
  run_dir:string ->
  ?store:Vartune_store.Store.t ->
  ?output:string ->
  Request.t ->
  unit
(** Runs a {!Request.Statlib} or {!Request.Sweep} request — the kinds
    whose evaluation yields a library — journaled under [run_dir]
    (created if missing); [output] is the [-o] extra library copy.
    Raises [Journal.Interrupted] after a graceful, checkpointed stop —
    the journal is sealed ["interrupted"] and [vartune resume]
    continues the run — and [Invalid_argument] for any other kind. *)

val resume : run_dir:string -> ?store:Vartune_store.Store.t -> unit -> unit
(** Resumes an interrupted journaled run.  Raises
    [Journal.Corrupt] if the journal is missing, truncated or fails a
    checksum, or if its run-started request line does not decode to a
    journal-able request — a damaged journal is a clean typed error
    (exit 65), never a wrong result. *)

val journal_path : string -> string
(** [<run>/journal.vtj]. *)
