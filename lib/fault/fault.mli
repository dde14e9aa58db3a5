(** Deterministic, seed-driven fault injection.

    The pipeline's failure paths (I/O errors in the artifact store,
    dying worker domains, ENOSPC, truncated writes) are impossible to
    exercise reliably with real hardware faults.  This module lets the
    hardened layers ask, at every syscall-shaped boundary, "does this
    operation fail right now?" and get a deterministic, replayable
    answer derived from a user-supplied schedule and seed.

    {2 Schedule specification}

    A schedule is a comma-separated list of [point=trigger] items with
    an optional [:seed] suffix after the last item:

    {v write=0.25,rename=#2,enospc=1.0:42 v}

    Trigger forms:
    - [RATE] — a float in [0, 1]: each occurrence of the point fires
      independently with that probability, decided by hashing
      [(seed, point, occurrence-index)] with splitmix64.  [1.0] fires
      on every occurrence, [0.0] never.
    - [#N] — fire exactly on the [N]-th occurrence (1-based) of the
      point and never again.

    Occurrence indices are per-point atomic counters, so at [jobs=1]
    replay is bit-for-bit; at [jobs>1] the set of firing decisions is
    fixed by the seed while their assignment to concurrent operations
    follows scheduling order.

    {2 Cost when disabled}

    When no schedule is configured every probe is a single atomic load
    plus a branch and allocates nothing — the hot path is unchanged.
    Fault points are constant constructors and [~site] strings are
    static literals, so probes do not allocate even when enabled. *)

type point =
  | Read           (** reading an artifact back from disk *)
  | Write          (** writing bytes to a temp file *)
  | Rename         (** atomically landing a temp file *)
  | Lock           (** acquiring a per-entry lock file *)
  | Fsync          (** flushing a temp file before rename *)
  | Worker_crash   (** a pool worker domain dies mid-task *)
  | Enospc         (** the filesystem reports no space left *)
  | Partial_write  (** a write persists only a prefix of the bytes *)
  | Delay
      (** a request's service time is stretched: the consulting layer
          sleeps instead of failing.  Consumed by
          {!Vartune_flow.Run_request.exec} at the start of request
          evaluation, so the serve layer's queueing, deadline and
          overload-shedding behaviour can be exercised with
          reproducibly slow requests. *)

val point_to_string : point -> string
(** Lower-case spelling used in schedule specs ("read", "worker_crash", ...). *)

val point_of_string : string -> point option

type trigger =
  | Rate of float  (** each occurrence fires independently with this probability *)
  | Nth of int  (** fire exactly on the N-th occurrence, 1-based *)

val parse_spec : string -> ((point * trigger) list * int64, string) result
(** Parses a schedule spec into its items (in spec order; a point
    repeated later wins) and seed (0 when no [:seed] suffix is given).
    Errors name the offending token — an unknown point, an out-of-range
    rate, a malformed [#N] or seed.  The CLI turns these into usage
    errors (exit 64). *)

val print_spec : (point * trigger) list * int64 -> string
(** Canonical rendering; [parse_spec (print_spec s) = Ok s] — rates are
    printed with enough digits to round-trip bit-for-bit. *)

exception Injected of { point : point; site : string; seq : int }
(** Raised by {!check} when a fault fires.  [site] names the consulting
    boundary (e.g. ["store.save.rename"]); [seq] is the 1-based
    occurrence index of the point that fired.  Hardened layers catch
    this exactly where they catch the real error ([Unix_error],
    [Sys_error]); an [Injected] escaping to the CLI is a bug in the
    hardening and maps to the internal-error exit code. *)

val configure : string -> (unit, string) result
(** Parse and activate a schedule.  Resets all occurrence counters.
    Returns [Error msg] (leaving any previous schedule active) on an
    unknown point name, a rate outside [0, 1], a malformed [#N], or a
    malformed seed. *)

val clear : unit -> unit
(** Deactivate injection and reset all counters. *)

val active : unit -> bool
(** [true] iff a schedule is currently configured. *)

val fires : point -> site:string -> bool
(** Consume one occurrence of [point] and report whether it faults.
    Always [false] (and counts nothing) when inactive or when the
    active schedule does not mention [point]. *)

val check : point -> site:string -> unit
(** Like {!fires} but raises {!Injected} when the fault fires. *)

val injected : point -> int
(** Number of times [point] has fired since the last [configure]/[clear]. *)

val occurrences : point -> int
(** Number of occurrences of [point] consumed since the last
    [configure]/[clear]. *)

val total_injected : unit -> int
(** Sum of {!injected} over all points. *)

val mix64 : int64 -> int64
(** The splitmix64 finaliser in its original MurmurHash3 [fmix64] form
    (shifts 33, constants [0xff51afd7ed558ccd] and [0xc4ceb9fe1a85ec53])
    that draws the fault decisions; the serve client's backoff jitter
    hashes with it too.  Not [Vartune_util.Rng]'s finaliser,
    which is the later variant 13 and gives other bits. *)

val with_spec : string -> (unit -> 'a) -> 'a
(** [with_spec s f] runs [f] with schedule [s] active, restoring the
    previous schedule (or the cleared state) afterwards, even on
    exception.  Raises [Invalid_argument] if [s] does not parse. *)
