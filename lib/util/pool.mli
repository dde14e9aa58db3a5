(** Fixed-size domain worker pool with a deterministic ordered map API.

    Every parallel stage of the pipeline routes through this module.  The
    contract that makes parallelism safe to adopt everywhere is
    {e scheduling-independence}: [map]/[map_chunked]/[init] return results
    in input order, re-raise the lowest-index exception, and never let the
    number of workers influence which element is computed from which
    input.  Combined with per-item RNG streams ({!Rng.stream}) the whole
    pipeline is bit-for-bit identical at any job count.

    A pool of [jobs = 1] spawns no domains at all and executes every task
    in the calling domain — the exact serial fallback.  With [jobs = n]
    the pool runs [n - 1] worker domains and the submitting domain also
    drains the queue, so [n] tasks execute concurrently.

    Tasks must not block on external conditions; they may submit nested
    work to the same pool (the submitting domain helps drain the queue,
    so nested maps cannot deadlock the pool).

    {2 Job-count precedence}

    The pool size is resolved, highest priority first, from:

    + an explicit [~jobs] argument — this is what the [--jobs] / [-j]
      command-line flag passes down;
    + the [VARTUNE_JOBS] environment variable;
    + [Domain.recommended_domain_count ()].

    A [VARTUNE_JOBS] value that is not a positive integer (e.g. [0],
    [-2] or garbage) is {e rejected with a [Logs] warning} on the
    [vartune.pool] source and the recommended domain count is used
    instead — it is never silently clamped.  An explicit [~jobs] that
    is not positive raises [Invalid_argument]: flags are validated at
    parse time, so a bad value reaching {!create} is a caller bug.

    {2 Crash recovery}

    A worker domain that dies — via an injected
    {!Vartune_fault.Fault.Worker_crash} fault or an exception escaping
    a task body — requeues (or, after [8] attempts, abandons) the task
    it held and spawns a replacement domain before expiring, so a
    [map] in flight never loses a result slot.  Crash faults fire at
    dequeue, before the task body starts, so a requeued task re-runs
    from scratch and the slot-indexed results keep the jobs=1-identical
    output ordering.  An abandoned task settles its slot with
    {!Worker_failure}, which [map] re-raises after all slots settle —
    the pipeline fails cleanly instead of hanging.  The submitting
    domain never crash-injects (it is the one collecting results), so
    [jobs = 1] remains the exact, fault-free serial path.

    When a stall timeout is configured (the [~stall_timeout_s] argument
    or [VARTUNE_POOL_STALL_S], seconds; disabled by default), the
    completion wait turns into a watchdog: if no task settles for that
    long while nothing is left to help with, [map] raises
    {!Worker_failure} instead of waiting forever on a wedged worker.
    A [VARTUNE_POOL_STALL_S] value that is negative, zero, NaN or
    non-numeric raises [Invalid_argument] (see
    {!parse_stall_timeout}) — a typo must not silently disarm the
    watchdog.

    {2 Telemetry}

    When {!Vartune_obs.Obs} is enabled the pool records a [pool.map]
    span per parallel map, a [pool.task] span per executed task on the
    executing domain's track, counters [pool.tasks_enqueued] /
    [pool.tasks_run], a [pool.queue_depth] histogram sampled at submit
    time, per-domain [pool.worker.<id>.busy_s] busy-time histograms,
    and a [pool.worker_restarts] counter for crash recoveries.
    Disabled telemetry costs one flag check per operation and cannot
    affect results either way. *)

type t

exception Worker_failure of string
(** A task could not be completed by any worker: it was abandoned after
    repeated worker crashes, or the stall watchdog expired.  Maps to
    the temporary-failure exit code at the CLI. *)

val create : ?jobs:int -> ?stall_timeout_s:float -> unit -> t
(** [create ~jobs ()] spawns a pool of [jobs] workers.  Raises
    [Invalid_argument] if [jobs < 1] (or [stall_timeout_s <= 0]).
    Without [jobs], the size follows the precedence above: a valid
    [VARTUNE_JOBS], else [Domain.recommended_domain_count ()].
    [stall_timeout_s] arms the stall watchdog described above; it
    defaults to [VARTUNE_POOL_STALL_S], else disabled. *)

val jobs : t -> int
(** Worker count the pool was created with. *)

val restarts : t -> int
(** Number of worker domains restarted after crashes since the pool was
    created. *)

val in_flight : t -> int
(** Tasks currently executing on some domain — dequeued but not yet
    settled or requeued.  Together with {!queued} this is the drain
    condition checkpoint supervisors rely on: when both are 0 after a
    [map] returns, no journaled work can be lost to an in-flight task. *)

val queued : t -> int
(** Tasks waiting in the queue right now. *)

val parse_stall_timeout : string -> (float, string) result
(** Validates a stall-timeout token ([VARTUNE_POOL_STALL_S] syntax):
    a positive number of seconds.  Negative, zero, NaN and non-numeric
    values are errors naming the offending token.  The environment
    path raises [Invalid_argument] on a malformed value instead of
    warn-and-ignore; the CLI pre-validates and exits 64. *)

val shutdown : t -> unit
(** Terminates the worker domains.  Outstanding tasks are drained first;
    using the pool after shutdown raises [Invalid_argument]. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs] with the applications distributed
    across the pool.  Results are in input order.  If any application
    raises, the exception of the lowest-index failing element is
    re-raised in the caller (after all tasks have settled). *)

val init : t -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [init pool ~chunk n f] is [Array.init n f] evaluated in parallel.
    Indices are grouped into contiguous blocks of [chunk] (resolved as
    described under {{!section:chunking} Chunked submission}) so cheap
    per-index work amortises task overhead; chunking never affects the
    result, only the granularity of dispatch. *)

(** {2:chunking Chunked submission}

    [map_chunked] / [init] batch contiguous index
    blocks of [chunk] items into one pool task, amortising the per-task
    closure, boxing and queue-handoff overhead that made fine-grained
    stages slower than serial.  The chunk size is resolved, highest
    priority first, from:

    + an explicit [?chunk] argument at the call site;
    + {!set_default_chunk} — this is what the [--chunk] command-line
      flag passes down;
    + the [VARTUNE_POOL_CHUNK] environment variable (a malformed value
      raises [Invalid_argument]; the CLI pre-validates and exits 64
      naming the token);
    + an automatic size of [max 1 (items / (jobs * 8))], aiming for
      about eight tasks per worker so scheduling stays balanced.

    Chunking is {e granularity only}: items are still applied in
    ascending index order within each block, results come back in input
    order, and the lowest-index exception is re-raised — so the result
    (value {e and} failure) is bit-identical at any chunk size, any job
    count, and under crash requeue.  Checkpoint supervisors are
    unaffected: a chunked stage still drains ([queued] = [in_flight] =
    0) before its round completes. *)

val map_chunked : t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_chunked pool ~chunk f xs] is {!map} with [chunk] consecutive
    items batched per pool task. *)

val chunk_for : t -> items:int -> int
(** The chunk size a call without [?chunk] would use for [items] items
    on this pool (override, else environment, else automatic) — exposed
    so benchmarks can report the granularity each stage actually ran
    with. *)

val parse_chunk : string -> (int, string) result
(** Validates a chunk-size token ([VARTUNE_POOL_CHUNK] / [--chunk]
    syntax): a positive integer.  Zero, negative and non-numeric values
    are errors naming the offending token. *)

val set_default_chunk : int -> unit
(** Overrides the process-wide default chunk size (the [--chunk] flag).
    Raises [Invalid_argument] if the size is not positive.  Call before
    heavy work starts. *)

val clear_default_chunk : unit -> unit
(** Removes a {!set_default_chunk} override, restoring environment /
    automatic resolution.  Mainly for tests. *)

val default : unit -> t
(** The process-wide shared pool, created on first use with [create ()].
    Thread-safe. *)

val set_default_jobs : int -> unit
(** Replaces the default pool with one of the given size (shutting the
    old one down).  Raises [Invalid_argument] if the size is not
    positive, before touching the existing pool.  Used by the [--jobs]
    command-line flag; call it before heavy work starts. *)
