module Request = Vartune_flow.Request
module Response = Vartune_flow.Response

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_line t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc

let request ?id ?priority ?deadline_s t req =
  send_line t (Request.to_line ?id ?priority ?deadline_s req);
  Response.of_line (input_line t.ic)

let get t endpoint =
  send_line t ("GET " ^ endpoint);
  input_line t.ic

(* ------------------------------------------------------------------ *)
(* Retry / backoff discipline                                          *)
(* ------------------------------------------------------------------ *)

(* The same ladder shape as the store's transient-fault policy: a
   bounded number of retries with exponential backoff and a
   deterministic jitter — derived from the policy seed and the attempt
   index, never the wall clock — to decorrelate concurrent retriers.
   The daemon's [retry_after_s] hint is honoured as a floor: the client
   never comes back sooner than the server asked. *)

type retry_policy = { attempts : int; base_backoff_s : float; seed : int }

let default_policy = { attempts = 3; base_backoff_s = 0.0005; seed = 0 }

let jitter ~seed ~attempt =
  let h =
    Vartune_fault.Fault.mix64
      (Int64.add
         (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int (attempt + 1)))
         (Int64.of_int seed))
  in
  Int64.to_float (Int64.logand h 0xffL) /. 255.0

let backoff_s policy ~attempt ~hint =
  let ladder =
    policy.base_backoff_s
    *. (2.0 ** float_of_int attempt)
    *. (1.0 +. jitter ~seed:policy.seed ~attempt)
  in
  Float.max ladder (Option.value hint ~default:0.0)

(* A response is retryable exactly when the daemon said so: code 75
   with a [retry_after_s] hint (an overload shed).  Drain 75s carry a
   hint too, but by then the socket is going away, so the resend raises
   a transport error the caller already handles. *)
let request_retrying ?id ?priority ?deadline_s ?(policy = default_policy) t req =
  let rec go attempt retries =
    match request ?id ?priority ?deadline_s t req with
    | Error _ as e -> (e, retries)
    | Ok resp
      when resp.Response.code = 75
           && resp.Response.retry_after_s <> None
           && attempt < policy.attempts ->
      Unix.sleepf (backoff_s policy ~attempt ~hint:resp.Response.retry_after_s);
      go (attempt + 1) (retries + 1)
    | Ok _ as ok -> (ok, retries)
  in
  go 0 0
