(** The [vartune serve] daemon: a long-running unix-socket evaluation
    service over the typed request vocabulary.

    Each connection is served by its own thread, but execution is
    admission-controlled: request lines are submitted to a bounded
    two-class priority queue ({!Admission}) feeding a fixed pool of
    [workers] threads — interactive kinds ([report]/[parse]/
    [characterize], or an explicit ["priority":"interactive"]) run
    ahead of queued batch work, FIFO within a class.  When the queue is
    full, a deadline has already expired, or the daemon is draining,
    the request is refused immediately with a typed code-75
    {!Vartune_flow.Response} carrying a deterministic [retry_after_s]
    back-off hint — overload degrades into fast typed refusals, never
    unbounded latency or memory.

    Admitted requests are evaluated through the same
    {!Vartune_flow.Run_request.exec} entry point the CLI subcommands
    use (so served results are bit-identical to batch runs).  Pipeline
    work lands on the process-wide {!Vartune_util.Pool} with its usual
    per-request chunked dispatch; the optional store is shared across
    requests as a persistent cross-request cache, and identical
    in-flight requests are coalesced by {!Single_flight} keyed on
    {!Vartune_flow.Request.key} — concurrent duplicates block on one
    computation (occupying one queue slot) and are answered with
    [dedup = true].

    Live endpoints: the plain-text lines [GET metrics], [GET profile]
    and [GET health] are each answered with one line of JSON —
    {!Vartune_obs.Obs.metrics_json}, the {!Vartune_obs.Profile} of the
    live span stream, and the daemon's own counters (including queue
    depth, sheds, deadline drops and slow-client drops).  GETs are
    answered inline on the connection thread, never queued, so health
    stays responsive under overload.

    Connection hygiene: request lines are capped at 1 MiB (an
    oversized line earns a typed code-65 reply and the connection is
    dropped), replies a peer does not drain within the send timeout
    drop the connection (counted in [slow_client_drops]), and
    connections beyond [max_conns] are answered with a typed code-75
    refusal and closed.

    Shutdown is graceful: on SIGINT/SIGTERM ({!run}) or {!stop} the
    daemon stops accepting connections, lets in-flight requests finish
    and answers them, sheds every queued-but-unstarted request with a
    typed code-75 before the socket file disappears, and returns — the
    CLI maps the drain to exit 75 (EX_TEMPFAIL), the same
    "interrupted, retry later" status a journaled run uses. *)

type config = {
  socket : string;  (** unix-socket path; a stale file is replaced *)
  store : Vartune_store.Store.t option;
      (** shared cross-request artifact cache *)
  backlog : int;  (** listen(2) backlog, e.g. 16 *)
  workers : int;  (** executing worker threads ([--serve-workers]) *)
  queue_cap : int;
      (** queued-request bound, both classes combined ([--queue-cap]) *)
  max_conns : int;  (** concurrent-connection bound ([--max-conns]) *)
}

type stats = {
  requests : int;  (** request lines accepted (GETs excluded) *)
  dedup_hits : int;  (** answers coalesced onto another in-flight request *)
  errors : int;  (** responses with a non-zero code, plus unparsable lines *)
  active : int;  (** requests currently executing on a worker *)
  queued : int;  (** requests admitted but not yet started *)
  sheds : int;
      (** typed 75 refusals: queue full, draining, connection cap *)
  deadline_drops : int;  (** requests dropped because their deadline passed *)
  slow_client_drops : int;  (** connections dropped for not draining replies *)
}

type handle

val start : config -> handle
(** Binds the socket and serves on background threads — the in-process
    form used by tests and perfbench.  Raises [Failure] if a
    live daemon already owns the socket, [Sys_error] when the probe of
    an existing socket file fails unexpectedly (exit 74 through the CLI
    guard), [Unix.Unix_error] on other bind failures. *)

val stop : handle -> unit
(** Requests a graceful drain: waits for in-flight requests to finish,
    sheds queued-but-unstarted ones with typed 75 replies, then closes
    the listener and removes the socket file. *)

val stats : handle -> stats

val run : config -> unit
(** The CLI form: serves on the calling thread until SIGINT/SIGTERM,
    then drains and returns (the [serve] subcommand exits 75). *)
