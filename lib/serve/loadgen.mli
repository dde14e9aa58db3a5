(** Load generator for the {!Serve} daemon ([vartune loadgen]).

    Opens [concurrency] connections and drives [requests] requests
    through them from a round-robin template mix.  Consecutive indices
    hit the {e same} template ([concurrency] repeats per template
    before advancing), so concurrent workers overlap on identical
    requests and exercise the daemon's single-flight deduplication on
    purpose.  Latencies are recorded in the shared {!Vartune_obs.Obs.Buckets}
    log-bucket layout, so the reported p50/p90/p99 are the same
    deterministic quantile estimate the metrics endpoint uses. *)

type config = {
  socket : string;
  requests : int;  (** total requests across all connections *)
  concurrency : int;  (** parallel connections *)
  mix : Vartune_flow.Request.t list;  (** request templates, cycled *)
}

type result = {
  sent : int;
  ok : int;  (** responses with code 0 *)
  failed : int;  (** non-zero codes, decode failures, dropped connections *)
  dedup_hits : int;  (** responses answered with [dedup = true] *)
  elapsed_s : float;
  throughput_rps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  min_ms : float;
  max_ms : float;
}

val default_mix : seed:int -> samples:int -> Vartune_flow.Request.t list
(** The standard cheap-kind mix: statlib, characterize, tune and a live
    report — deliberately no synthesis-heavy kinds, so a fixed request
    count finishes in seconds on a warm store. *)

val run : config -> result

val result_to_json : result -> string
(** One-line JSON: request counts ([requests], [ok], [failed]),
    throughput, latency quantiles and the dedup hit rate. *)

val dedup_hit_rate : result -> float
(** [dedup_hits / sent], 0 when nothing was sent. *)

(** {2 Overload mode}

    Drives a seeded burst larger than the daemon's queue capacity —
    every 4th request interactive (a live report), the rest batch
    statlib builds with per-index seeds so single-flight cannot
    coalesce them — through the client's retry/backoff loop, and
    accounts per class: admitted-latency quantiles, sheds that
    survived every retry, deadline drops, and retries absorbed.  The
    contract an overload run checks is that p99 of {e admitted}
    interactive requests stays bounded while batch overload is shed,
    not absorbed. *)

type overload_config = {
  o_socket : string;
  burst : int;  (** requests in the burst; pick > the daemon's queue cap *)
  o_concurrency : int;  (** parallel connections *)
  o_seed : int;  (** base seed; batch request [i] uses [o_seed + i] *)
  o_samples : int;  (** samples per batch statlib build — keep small *)
  retry : Client.retry_policy;
}

type class_stats = {
  c_sent : int;
  c_ok : int;
  c_shed : int;  (** final reply was still a code-75 shed after retries *)
  c_deadline_dropped : int;
  c_failed : int;  (** other non-zero codes, decode errors, transport drops *)
  c_retries : int;  (** retries absorbed by the client's backoff loop *)
  c_p50_ms : float;  (** quantiles over admitted (code-0) replies only *)
  c_p90_ms : float;
  c_p99_ms : float;
  c_max_ms : float;
}

type overload_result = {
  interactive : class_stats;
  batch : class_stats;
  o_elapsed_s : float;
  replies : int;  (** total replies received — one per non-lost request *)
  code70 : int;  (** internal-error replies; must be 0 *)
}

val run_overload : overload_config -> overload_result

val overload_result_to_json : overload_result -> string
(** One-line JSON: per-class [interactive]/[batch] stats ([sent],
    [ok], [shed], [deadline_dropped], [failed], [retries] and latency
    quantiles), plus [elapsed_s], [replies], [code70] and total
    [sheds]. *)
