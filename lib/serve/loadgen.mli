(** Load generator for the {!Serve} daemon ([vartune loadgen]).

    Opens [concurrency] connections and drives [requests] requests
    through them, request [i] being [mix i], each through the client's
    retry/backoff loop ({!Client.request_retrying}).  Requests carry no
    explicit priority, so the daemon classes each one by
    {!Vartune_flow.Request.default_priority}; the result accounts per
    class (interactive, batch) and in total.  Every request is counted
    exactly once: a refused connection, a transport error or an index
    no worker claimed counts as [failed].  Latency quantiles cover
    admitted (code-0) replies in the shared {!Vartune_obs.Obs.Buckets}
    log-bucket layout, the same deterministic estimate the metrics
    endpoint uses. *)

type config = {
  socket : string;
  requests : int;  (** total requests across all connections *)
  concurrency : int;  (** parallel connections *)
  mix : int -> Vartune_flow.Request.t;  (** the request sent at index [i] *)
  retry : Client.retry_policy;
}

val default_mix : seed:int -> samples:int -> concurrency:int -> int -> Vartune_flow.Request.t
(** The cheap-kind template cycle — statlib, characterize, tune and a
    live report, no synthesis-heavy kinds, so a fixed request count
    finishes in seconds on a warm store.  [concurrency] consecutive
    indices share a template, so concurrent workers overlap on
    identical requests and exercise single-flight deduplication. *)

val burst_mix : seed:int -> samples:int -> int -> Vartune_flow.Request.t
(** The overload burst: every 4th request is a live report
    (interactive), the rest are batch statlib builds at seed
    [seed + i], so nothing deduplicates and a burst larger than the
    daemon's queue capacity is shed, not absorbed. *)

type stats = {
  sent : int;
  replies : int;  (** replies received — one per request not lost *)
  ok : int;  (** code-0 replies *)
  shed : int;  (** final reply was still a code-75 shed after retries *)
  deadline_dropped : int;  (** code-75 deadline drops *)
  code70 : int;  (** internal-error replies *)
  failed : int;
      (** lost replies (refused connections, transport and decode
          errors) plus replies with a code other than 0 or 75 *)
  retries : int;  (** retries absorbed by the client's backoff loop *)
  dedup_hits : int;  (** replies answered with [dedup = true] *)
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  min_ms : float;
  max_ms : float;
}

type result = {
  total : stats;
  interactive : stats;
  batch : stats;
  elapsed_s : float;
  throughput_rps : float;  (** replies per second *)
  dedup_hit_rate : float;  (** [dedup_hits / requests] *)
}

val run : config -> result

val result_to_json : result -> string
(** One-line JSON: the totals at the top level ([requests], [ok],
    [failed], [dedup_hits], [dedup_hit_rate], [elapsed_s],
    [throughput_rps], [p50_ms]/[p90_ms]/[p99_ms]/[min_ms]/[max_ms],
    [replies], [code70], [sheds]) and per-class [interactive]/[batch]
    objects ([sent], [ok], [shed], [deadline_dropped], [failed],
    [retries], [p50_ms]/[p90_ms]/[p99_ms]/[max_ms]). *)
