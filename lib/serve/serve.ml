module Request = Vartune_flow.Request
module Response = Vartune_flow.Response
module Run_request = Vartune_flow.Run_request
module Store = Vartune_store.Store
module Obs = Vartune_obs.Obs
module Json = Vartune_obs.Json
module Profile = Vartune_obs.Profile

let src = Logs.Src.create "vartune.serve" ~doc:"unix-socket evaluation service"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  socket : string;
  store : Store.t option;
  backlog : int;
  workers : int;
  queue_cap : int;
  max_conns : int;
}

type stats = {
  requests : int;
  dedup_hits : int;
  errors : int;
  active : int;
  queued : int;
  sheds : int;
  deadline_drops : int;
  slow_client_drops : int;
}

(* A self-pipe in the read set of every blocked [select]: stopping
   writes one byte that is never read, so the read end stays readable
   and each waiting loop wakes at once to see the stop flag, instead of
   at its next poll.  (Closing a listener another thread is selecting
   on does not reliably wake it on Linux.) *)
type wake = { wake_r : Unix.file_descr; wake_w : Unix.file_descr }

let make_wake () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_w;
  { wake_r; wake_w }

let request_stop stopping wake =
  Atomic.set stopping true;
  (* a full pipe (EAGAIN) is readable already *)
  try ignore (Unix.single_write_substring wake.wake_w "x" 0 1) with Unix.Unix_error _ -> ()

type handle = {
  config : config;
  listener : Unix.file_descr;
  stopping : bool Atomic.t;
  wake : wake;
  n_requests : int Atomic.t;
  n_dedup : int Atomic.t;
  n_errors : int Atomic.t;
  n_conns : int Atomic.t;
  n_conn_sheds : int Atomic.t;
  n_slow_drops : int Atomic.t;
  adm : Response.t Admission.t;
  flight : Response.t Single_flight.t;
  mutable accept_thread : Thread.t option;
}

(* How often blocked loops re-check the stop flag even unwoken: a
   fallback, since a stop also writes the wake pipe. *)
let poll_interval_s = 0.2

(* A reply the peer has not drained within this window marks it a slow
   client: the connection is dropped rather than pinning a thread. *)
let send_timeout_s = 10.0

(* Longest accepted request line.  Far above any legitimate request
   (the wire speaks one compact JSON object per line) and small enough
   that a misbehaving peer cannot balloon the per-connection buffer. *)
let max_line_bytes = 1 lsl 20

(* [serve.sheds] is registered by name, so connection-limit refusals
   share Admission's counter with its queue sheds *)
let sheds_counter = Obs.Counter.make "serve.sheds"
let slow_drops_counter = Obs.Counter.make "serve.slow_client_drops"

(* ------------------------------------------------------------------ *)
(* Socket lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

(* A leftover socket file from a crashed daemon must not block restart,
   but a live daemon must: probe by connecting.  A successful connect
   means someone is serving; a refused/absent one means the file is
   stale and safe to replace.  Any other probe error (EACCES, a
   non-socket file, ...) is an I/O failure naming the path — exit 74
   through the CLI guard, never a raw backtrace. *)
let bind_socket ~backlog path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
      | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close probe with Unix.Unix_error _ -> ());
        raise
          (Sys_error
             (Printf.sprintf "%s: cannot probe existing socket: %s" path
                (Unix.error_message err)))
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then failwith (Printf.sprintf "%s: a daemon is already serving" path);
    (try Unix.unlink path with Unix.Unix_error _ -> ())
  end;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listener (Unix.ADDR_UNIX path);
     Unix.listen listener backlog
   with exn ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise exn);
  listener

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let stats_of h =
  {
    requests = Atomic.get h.n_requests;
    dedup_hits = Atomic.get h.n_dedup;
    errors = Atomic.get h.n_errors;
    active = Admission.active h.adm;
    queued = Admission.depth h.adm;
    sheds = Admission.sheds h.adm + Atomic.get h.n_conn_sheds;
    deadline_drops = Admission.deadline_drops h.adm;
    slow_client_drops = Atomic.get h.n_slow_drops;
  }

let health_json h =
  let s = stats_of h in
  Json.Object
    [
      ("status", Json.String (if Atomic.get h.stopping then "draining" else "ok"));
      ("requests", Json.int s.requests);
      ("dedup_hits", Json.int s.dedup_hits);
      ("errors", Json.int s.errors);
      ("active", Json.int s.active);
      ("queued", Json.int s.queued);
      ("sheds", Json.int s.sheds);
      ("deadline_drops", Json.int s.deadline_drops);
      ("slow_client_drops", Json.int s.slow_client_drops);
    ]

(* Evaluates one admitted request through the same single-flight cell
   as before; only the leader occupies a queue slot, concurrent
   duplicates block on its outcome and answer with [dedup = true].
   Admission refusals become total code-75 responses carrying the
   deterministic back-off hint. *)
let eval_request h (env : Request.envelope) =
  let req = env.Request.req in
  let kind = Request.kind_string req in
  let priority =
    match env.Request.priority with
    | Some p -> p
    | None -> Request.default_priority req
  in
  let deadline_ns =
    Option.map
      (fun d -> Int64.add (Obs.now_ns ()) (Int64.of_float (d *. 1e9)))
      env.Request.deadline_s
  in
  let resp, dedup =
    Single_flight.run h.flight ~key:(Request.key req) (fun () ->
        let job =
          Admission.submit h.adm ~priority ?deadline_ns (fun () ->
              Run_request.exec ?store:h.config.store req)
        in
        match Admission.await job with
        | Admission.Value resp -> resp
        | Admission.Shed { reason; retry_after_s } ->
          Response.fail ~retry_after_s ~kind ~elapsed_s:0.0 ~code:75
            (Admission.reason_message reason)
        | Admission.Failed exn ->
          (* Run_request.exec is total; anything escaping it is a bug *)
          Response.fail ~kind ~elapsed_s:0.0 ~code:70
            (Printf.sprintf "internal error: %s" (Printexc.to_string exn)))
  in
  if dedup then Atomic.incr h.n_dedup;
  if resp.Response.code <> 0 then Atomic.incr h.n_errors;
  Response.to_line { resp with Response.id = env.Request.id; dedup }

let handle_line h line =
  match line with
  (* GETs are answered inline on the connection thread, never queued,
     so health and metrics stay responsive under overload. *)
  | "GET metrics" -> Json.to_string (Obs.metrics_json ())
  | "GET profile" -> Json.to_string (Profile.to_json (Profile.of_events (Obs.events ())))
  | "GET health" -> Json.to_string (health_json h)
  | line -> (
    match Request.of_line line with
    | Error err ->
      Atomic.incr h.n_errors;
      Response.to_line
        (Response.fail ~kind:"error" ~elapsed_s:0.0 ~code:65 (Request.error_message err))
    | Ok env ->
      Atomic.incr h.n_requests;
      eval_request h env)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  partial : Buffer.t;  (* bytes of the current line, no newline inside *)
  ready : string Queue.t;  (* complete lines not yet handled *)
}

exception Oversized_line
exception Slow_client

(* Splits a received chunk into complete lines (landing in [ready]) and
   a partial tail (accumulating in [partial] — a Buffer, so repeated
   chunks append in amortised O(n), not the O(n^2) of string concat). *)
let feed conn chunk =
  let n = String.length chunk in
  let rec go start =
    if start < n then
      match String.index_from_opt chunk start '\n' with
      | None -> Buffer.add_substring conn.partial chunk start (n - start)
      | Some i ->
        Buffer.add_substring conn.partial chunk start (i - start);
        Queue.push (Buffer.contents conn.partial) conn.ready;
        Buffer.clear conn.partial;
        go (i + 1)
  in
  go 0;
  (* a complete line always passes through [partial] before its newline
     arrives, so capping the buffer bounds every line *)
  if Buffer.length conn.partial > max_line_bytes then raise Oversized_line

(* Line reader over the raw fd (no buffered channel, so the stop flag
   is honoured between lines): returns [None] on peer EOF or drain.
   Raises [Oversized_line] when a single line exceeds the cap. *)
let rec next_line h conn =
  match Queue.take_opt conn.ready with
  | Some line -> Some line
  | None ->
    if Atomic.get h.stopping then None
    else (
      match Unix.select [ conn.fd; h.wake.wake_r ] [] [] poll_interval_s with
      | ready, _, _ when not (List.mem conn.fd ready) -> next_line h conn
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_line h conn
      | _ ->
        let bytes = Bytes.create 4096 in
        let n = Unix.read conn.fd bytes 0 (Bytes.length bytes) in
        if n = 0 then None
        else begin
          feed conn (Bytes.sub_string bytes 0 n);
          next_line h conn
        end)

(* Bounded sender: a peer that stops draining its socket for
   [send_timeout_s] is dropped ([Slow_client]) instead of pinning this
   connection thread forever. *)
let write_all fd s =
  let rec go off remaining =
    if remaining > 0 then
      match Unix.select [] [ fd ] [] send_timeout_s with
      | _, [], _ -> raise Slow_client
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off remaining
      | _ ->
        let n = Unix.write_substring fd s off remaining in
        go (off + n) (remaining - n)
  in
  go 0 (String.length s)

let serve_conn h fd =
  let conn = { fd; partial = Buffer.create 256; ready = Queue.create () } in
  let rec loop () =
    match next_line h conn with
    | None -> ()
    | Some line ->
      write_all fd (handle_line h line ^ "\n");
      loop ()
  in
  (try loop () with
  | Oversized_line ->
    (* typed refusal, then the connection is dropped: an unbounded line
       must not balloon the buffer, and resynchronising mid-line is
       guesswork *)
    Atomic.incr h.n_errors;
    let reply =
      Response.to_line
        (Response.fail ~kind:"error" ~elapsed_s:0.0 ~code:65
           (Printf.sprintf "request line exceeds %d bytes" max_line_bytes))
    in
    (try write_all fd (reply ^ "\n") with
    | Slow_client | Unix.Unix_error _ | Sys_error _ -> ())
  | Slow_client ->
    Atomic.incr h.n_slow_drops;
    Obs.Counter.incr slow_drops_counter;
    Log.warn (fun m -> m "dropping slow client (reply unread for %.0fs)" send_timeout_s)
  | Unix.Unix_error _ | Sys_error _ | End_of_file ->
    (* a dropped connection only costs that connection *)
    ());
  Atomic.decr h.n_conns;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Over the connection cap: answer the first line with a typed 75 so
   the client backs off, then close.  The reply is best-effort — the
   refusal must never pin a thread. *)
let refuse_conn h fd =
  let conn = { fd; partial = Buffer.create 64; ready = Queue.create () } in
  (try
     match next_line h conn with
     | None -> ()
     | Some _ ->
       Atomic.incr h.n_conn_sheds;
       Obs.Counter.incr sheds_counter;
       let reply =
         Response.to_line
           (Response.fail
              ~retry_after_s:(Admission.retry_hint h.adm)
              ~kind:"error" ~elapsed_s:0.0 ~code:75
              (Printf.sprintf "overloaded: connection limit (%d) reached"
                 h.config.max_conns))
       in
       write_all fd (reply ^ "\n")
   with Oversized_line | Slow_client | Unix.Unix_error _ | Sys_error _ | End_of_file ->
     ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Accept loop and lifecycle                                           *)
(* ------------------------------------------------------------------ *)

(* Runs until the stop flag flips, then drains: admission stops (sheds
   every queued-but-unstarted request with a typed 75, lets in-flight
   work finish) and every connection thread is joined — so all replies,
   including the sheds, are written before the listener closes and the
   socket file disappears. *)
let accept_loop h =
  let rec loop threads =
    if Atomic.get h.stopping then threads
    else (
      match Unix.select [ h.listener; h.wake.wake_r ] [] [] poll_interval_s with
      | ready, _, _ when not (List.mem h.listener ready) -> loop threads
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop threads
      | _ -> (
        match Unix.accept h.listener with
        | fd, _ ->
          if Atomic.get h.n_conns >= h.config.max_conns then
            loop (Thread.create (refuse_conn h) fd :: threads)
          else begin
            Atomic.incr h.n_conns;
            loop (Thread.create (serve_conn h) fd :: threads)
          end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          loop threads))
  in
  let threads = loop [] in
  Admission.stop h.adm;
  List.iter Thread.join threads;
  let s = stats_of h in
  Log.info (fun m ->
      m "drained: %d requests served, %d dedup hits, %d errors, %d sheds" s.requests
        s.dedup_hits s.errors s.sheds)

let make_handle ?(stopping = Atomic.make false) ?(wake = make_wake ()) config listener =
  {
    config;
    listener;
    stopping;
    wake;
    n_requests = Atomic.make 0;
    n_dedup = Atomic.make 0;
    n_errors = Atomic.make 0;
    n_conns = Atomic.make 0;
    n_conn_sheds = Atomic.make 0;
    n_slow_drops = Atomic.make 0;
    adm = Admission.create ~workers:config.workers ~queue_cap:config.queue_cap;
    flight = Single_flight.create ();
    accept_thread = None;
  }

let cleanup h =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ h.listener; h.wake.wake_r; h.wake.wake_w ];
  try Unix.unlink h.config.socket with Unix.Unix_error _ | Sys_error _ -> ()

(* A reply written to a peer that already vanished must surface as
   [EPIPE] on the writing thread, not terminate the whole daemon. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let start config =
  ignore_sigpipe ();
  let h = make_handle config (bind_socket ~backlog:config.backlog config.socket) in
  Log.info (fun m ->
      m "serving on %s (%d workers, queue cap %d)" config.socket config.workers
        config.queue_cap);
  h.accept_thread <- Some (Thread.create accept_loop h);
  h

let stop h =
  request_stop h.stopping h.wake;
  Option.iter Thread.join h.accept_thread;
  h.accept_thread <- None;
  cleanup h

let stats = stats_of

let run config =
  ignore_sigpipe ();
  (* The handlers go in before the socket is bound: a client may signal
     as soon as the socket appears, and that must still drain. *)
  let stopping = Atomic.make false and wake = make_wake () in
  List.iter
    (fun signal ->
      try Sys.set_signal signal (Sys.Signal_handle (fun _ -> request_stop stopping wake))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  let h =
    make_handle ~stopping ~wake config (bind_socket ~backlog:config.backlog config.socket)
  in
  Log.info (fun m ->
      m "serving on %s (%d workers, queue cap %d; SIGINT/SIGTERM drains gracefully)"
        config.socket config.workers config.queue_cap);
  accept_loop h;
  cleanup h
