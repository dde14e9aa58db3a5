(** Vartune_obs.Obs — spans, counters and trace export for the pipeline.

    A process-global, domain-safe telemetry sink.  Instrumentation sites
    throughout the pipeline record {e spans} (named wall-clock intervals,
    one track per domain) and {e metrics} (counters, gauges, histograms);
    two exporters turn the recorded data into a Chrome trace-event JSON
    file (loadable in Perfetto / [chrome://tracing]) and a flat metrics
    summary.

    Telemetry is {b disabled by default}.  While disabled every entry
    point is a cheap flag check — [span name f] is exactly [f ()], and
    counter/gauge/histogram updates return without taking a timestamp,
    allocating, or touching any lock — so the instrumented pipeline keeps
    PR 1's determinism and bit-identity guarantees and its serial
    performance.  Enabling telemetry changes only timing side-channels,
    never any pipeline output.

    All recording operations may be called concurrently from any domain.
    Span events carry the recording domain's id, which becomes the
    Chrome-trace [tid], so the exported trace shows one lane per worker
    domain. *)

val enabled : unit -> bool
(** Whether telemetry is currently recording. *)

val set_enabled : bool -> unit
(** Turns recording on or off.  Enable before the instrumented work
    starts; spans already in flight when the flag flips may be dropped
    (never corrupted). *)

val reset : unit -> unit
(** Discards all recorded events and zeroes every metric (registered
    {!Counter.t} handles survive with value 0).  Also re-anchors the
    trace time origin.  Intended for tests and long-lived processes. *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds from an arbitrary origin. *)

val wall_ns : unit -> int64
(** Wall clock (CLOCK_REALTIME), nanoseconds since the Unix epoch. *)

(** {1 Spans} *)

val span : ?attrs:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] and, when enabled, records a complete
    Chrome-trace ["X"] event covering the call: monotonic start/duration,
    wall-clock start, recording domain, {!gc_delta} attribution, and
    [attrs] (evaluated once, at span end, and only when enabled — pass a
    closure over cheap data).  Spans nest naturally; the event is
    recorded even if [f] raises.  When disabled, [span name f] is
    exactly [f ()] — no clock read, no [Gc.quick_stat], no allocation. *)

(** {1 Metrics}

    Counters are lock-free atomics behind pre-registered handles, cheap
    enough for per-LUT-entry accounting on hot paths.  Gauges and
    histograms use a mutex-protected registry and are meant for cold or
    chunk-level call sites. *)

module Counter : sig
  type t

  val make : string -> t
  (** Registers (or looks up) the counter [name].  Call at module
      initialisation; handles are process-global and survive {!reset}
      with their value zeroed. *)

  val add : t -> int -> unit
  (** Atomic add; no-op while telemetry is disabled. *)

  val incr : t -> unit

  val value : t -> int
end

val counter_value : string -> int
(** Current value of a counter, 0 if it was never registered. *)

val gauge : string -> float -> unit
(** Sets the gauge [name] to the given value (last write wins). *)

val observe : string -> float -> unit
(** Adds one observation to the histogram [name] (tracks count, sum,
    min, max and log-bucketed counts for quantile estimation). *)

(** Power-of-two log buckets shared by the metrics histograms and
    {!Profile}'s per-label duration histograms.  Bucket [0] catches
    non-positive values, the last bucket is the overflow; in between,
    bucket [i] covers [\[2^(i-offset-1), 2^(i-offset))]. *)
module Buckets : sig
  val count : int
  (** Number of buckets (64). *)

  val index : float -> int
  (** Bucket index for a value; total for any float. *)

  val upper : int -> float
  (** Exclusive upper edge of a bucket; [+infinity] for the overflow. *)

  val quantile :
    counts:int array -> total:int -> min_v:float -> max_v:float -> float -> float
  (** Deterministic quantile estimate: linear interpolation inside the
      target bucket, clamped to the observed [\[min_v, max_v\]] (so a
      single-observation histogram answers that observation exactly).
      Returns [0.0] when [total <= 0]. *)
end

type histogram_stats = {
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  buckets : int array;  (** log-bucketed counts, {!Buckets.count} wide *)
}

val histogram_quantile : histogram_stats -> float -> float
(** {!Buckets.quantile} over a snapshot's buckets. *)

type metric_value =
  | Count of int
  | Value of float  (** gauge *)
  | Stats of histogram_stats

val metrics : unit -> (string * metric_value) list
(** Snapshot of every metric, sorted by name. *)

(** {1 Recorded events} *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}
(** [Gc.quick_stat] deltas between span entry and exit, on the span's
    own domain (OCaml 5 keeps the word counters domain-local, so the
    delta is the span's allocation, children included — like total
    time, and unlike {!Profile}'s child-exclusive self numbers). *)

val gc_zero : gc_delta

type event = {
  name : string;
  dom : int;  (** recording domain id — the Chrome-trace [tid] *)
  ts_us : float;  (** monotonic start, microseconds from the trace origin *)
  dur_us : float;
  wall_start_ns : int64;
  gc : gc_delta;
  attrs : (string * string) list;
}

val events : unit -> event list
(** Snapshot of all recorded span events, sorted by [(dom, ts_us)] with
    ties broken longest-duration-first so parents precede their
    children. *)

(** {1 Exporters} *)

val trace_json : unit -> string
(** Chrome trace-event JSON: one [thread_name] metadata event per domain
    seen, then every span as a complete ["X"] event with per-domain
    monotone timestamps.  Loadable in Perfetto.  Printed by {!Json},
    one event at a time, with bit-exact [ts]/[dur]. *)

val metrics_schema_version : int
(** Version of the {!metrics_json} top-level schema; bumped on any
    incompatible change to the document shape. *)

val metrics_json : unit -> Json.t
(** [{"schema": 1, "counters": {...}, "gauges": {...}, "histograms":
    {...}}].  Each histogram carries [count/sum/min/max/mean],
    [p50/p90/p99] quantile estimates and its non-empty log buckets as
    [\[upper_edge, count\]] pairs.  The [schema] field lets consumers
    (the serve metrics endpoint, [vartune report]) sniff
    compatibility. *)

val write_trace : string -> unit
(** Writes {!trace_json} and a newline to the given path. *)

val write_metrics : string -> unit
(** Writes {!metrics_json}, compact, and a newline to the given path. *)
