(** Blocking client for the {!Serve} daemon: one request line out, one
    response line back, over a unix socket. *)

type t

val connect : string -> t
(** Connects to the daemon's socket path.  Raises [Unix.Unix_error]
    (e.g. [ECONNREFUSED]) when no daemon is serving. *)

val close : t -> unit

val request :
  ?id:int ->
  ?priority:Vartune_flow.Request.priority ->
  ?deadline_s:float ->
  t ->
  Vartune_flow.Request.t ->
  (Vartune_flow.Response.t, string) result
(** Sends one request and waits for its response line.  [priority] and
    [deadline_s] ride in the request envelope (omitted when absent, so
    the wire line is byte-identical to the pre-envelope protocol).
    [Error] carries a response-decoding problem; transport failures
    raise ([End_of_file] when the daemon drained mid-request,
    [Unix.Unix_error]/[Sys_error] on socket errors). *)

val get : t -> string -> string
(** [get t "metrics"] sends the live-endpoint line [GET metrics] and
    returns the one-line JSON reply.  Endpoints: [metrics], [profile],
    [health]. *)

(** {2 Retry / backoff discipline}

    Overload sheds (code 75 with a [retry_after_s] hint) are transient
    by construction; {!request_retrying} absorbs them with the same
    ladder shape as the store's transient-fault policy: a bounded
    number of retries with seeded jittered exponential backoff, never
    sooner than the daemon's hint. *)

type retry_policy = {
  attempts : int;  (** maximum retries after the first send *)
  base_backoff_s : float;  (** ladder base; doubles per attempt *)
  seed : int;  (** jitter seed — same seed, same waits *)
}

val default_policy : retry_policy
(** 3 attempts over a 0.5 ms base, seed 0 — the store's ladder. *)

val backoff_s : retry_policy -> attempt:int -> hint:float option -> float
(** The wait before retry [attempt] (0-based): the jittered ladder
    value, floored at the daemon's [hint].  Exposed for tests. *)

val request_retrying :
  ?id:int ->
  ?priority:Vartune_flow.Request.priority ->
  ?deadline_s:float ->
  ?policy:retry_policy ->
  t ->
  Vartune_flow.Request.t ->
  (Vartune_flow.Response.t, string) result * int
(** Like {!request}, but overload sheds are retried on the same
    connection up to [policy.attempts] times.  Returns the final
    outcome — which is still a code-75 response when every retry was
    shed — and the number of retries performed.  Transport failures
    raise as in {!request}; decode errors are not retried. *)
