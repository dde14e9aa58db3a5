(** Span-stream aggregation: the {!Obs} event stream (live, or read
    back from an exported Chrome trace) folded into a per-label call
    tree with child-exclusive self times, log-bucketed duration
    quantiles, GC/allocation attribution and a per-domain busy/idle
    utilization table.

    Nesting is rebuilt per domain track with the same stack algorithm
    {!Trace_check} uses.  Aggregation is keyed by the full label path —
    the tree keeps [pool.task] under [statlib.build] separate from
    [pool.task] under [sweep.run] — while the flat {!row} table merges
    by label. *)

type gc = Obs.gc_delta = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type node = {
  label : string;
  path : string list;  (** label path from a root span *)
  count : int;
  total_us : float;
  self_us : float;  (** total minus direct children, clamped at 0 *)
  min_us : float;
  max_us : float;
  buckets : int array;  (** duration histogram, {!Obs.Buckets} layout *)
  gc : gc;  (** summed deltas, children included *)
  children : node list;  (** sorted by [total_us], descending *)
}

type row = {
  r_label : string;
  r_count : int;
  r_total_us : float;
  r_self_us : float;
  r_min_us : float;
  r_max_us : float;
  r_buckets : int array;
  r_gc : gc;
}

type domain_util = {
  dom : int;
  spans : int;  (** all spans recorded on this domain *)
  tasks : int;  (** [pool.task] spans *)
  busy_us : float;  (** total [pool.task] time *)
  util : float;  (** [busy_us] over the whole trace extent *)
}

type t = {
  span_count : int;
  wall_us : float;  (** trace extent: latest span end minus earliest start *)
  roots : node list;
  rows : row list;  (** flat per-label table, sorted by self time desc *)
  domains : domain_util list;
}

val of_events : Obs.event list -> t
(** Aggregates a span list (any order; it is re-sorted). *)

val of_trace_string : string -> (t, string) result
(** Aggregates a Chrome trace (as written by {!Obs.trace_json});
    [Error] when the document has no complete span events. *)

val of_trace_file : string -> (t, string) result

val to_text : t -> string
(** Sorted text profile: flat table (self-time order, with p50/p90/p99
    and minor words per call), indented span tree, domain utilization
    and GC attribution tables. *)

val to_json : t -> Json.t
(** Machine-readable profile artifact: [spans], [wall_us], the flat
    [rows], the span [tree] and the [domains] utilization table. *)
