module Request = Vartune_flow.Request
module Response = Vartune_flow.Response
module Obs = Vartune_obs.Obs
module Json = Vartune_obs.Json
module Tuning_method = Vartune_tuning.Tuning_method

type config = {
  socket : string;
  requests : int;
  concurrency : int;
  mix : int -> Request.t;
  retry : Client.retry_policy;
}

type stats = {
  sent : int;
  replies : int;
  ok : int;
  shed : int;
  deadline_dropped : int;
  code70 : int;
  failed : int;
  retries : int;
  dedup_hits : int;
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
  throughput_rps : float;
  dedup_hit_rate : float;
}

let live_report = Request.Report { trace = None; metrics = None; run_dir = None; json = true }

let default_mix ~seed ~samples ~concurrency =
  let base = { Request.seed; samples } in
  let tuning =
    {
      Tuning_method.population = Vartune_tuning.Cluster.Per_cell;
      criterion = Vartune_tuning.Threshold.Sigma_ceiling 0.02;
    }
  in
  let templates =
    [| Request.Statlib base; Request.Characterize; Request.Tune { base; tuning }; live_report |]
  in
  (* [concurrency] consecutive indices share a template so the parallel
     workers overlap on identical requests *)
  fun i -> templates.(i / concurrency mod Array.length templates)

(* Every 4th request is interactive (a live report); the rest are batch
   statlib builds with per-index seeds, so single-flight cannot coalesce
   the burst and the queue genuinely fills. *)
let burst_mix ~seed ~samples i =
  if i mod 4 = 0 then live_report else Request.Statlib { Request.seed = seed + i; samples }

(* What became of one request index.  An index no worker claimed (every
   connection refused) stays [Lost 0]: the request count never shrinks. *)
type outcome = Lost of int | Reply of Response.t * float * int  (* ms, retries *)

(* A deadline drop comes back as the same typed 75 as a queue-full
   shed; the daemon's message tells them apart. *)
let deadline_message = Some (Admission.reason_message Admission.Deadline_expired)

(* One fold over the outcomes of the indices [keep] selects.  Latency
   quantiles cover admitted (code-0) replies, in the Obs.Buckets layout. *)
let stats_of outcomes keep =
  let counts = Array.make Obs.Buckets.count 0 in
  let lo = ref infinity and hi = ref neg_infinity in
  let add s = function
    | Lost retries ->
      { s with sent = s.sent + 1; failed = s.failed + 1; retries = s.retries + retries }
    | Reply (resp, ms, retries) -> (
      let s =
        {
          s with
          sent = s.sent + 1;
          replies = s.replies + 1;
          retries = s.retries + retries;
          dedup_hits = (s.dedup_hits + if resp.Response.dedup then 1 else 0);
        }
      in
      match resp.Response.code with
      | 0 ->
        counts.(Obs.Buckets.index ms) <- counts.(Obs.Buckets.index ms) + 1;
        lo := Float.min !lo ms;
        hi := Float.max !hi ms;
        { s with ok = s.ok + 1 }
      | 75 when resp.Response.error = deadline_message ->
        { s with deadline_dropped = s.deadline_dropped + 1 }
      | 75 -> { s with shed = s.shed + 1 }
      | 70 -> { s with code70 = s.code70 + 1; failed = s.failed + 1 }
      | _ -> { s with failed = s.failed + 1 })
  in
  let zero =
    {
      sent = 0; replies = 0; ok = 0; shed = 0; deadline_dropped = 0; code70 = 0; failed = 0;
      retries = 0; dedup_hits = 0; p50_ms = 0.0; p90_ms = 0.0; p99_ms = 0.0; min_ms = 0.0;
      max_ms = 0.0;
    }
  in
  let s = ref zero in
  Array.iteri (fun i o -> if keep i then s := add !s o) outcomes;
  let s = !s in
  if s.ok = 0 then s
  else
    let q p = Obs.Buckets.quantile ~counts ~total:s.ok ~min_v:!lo ~max_v:!hi p in
    { s with p50_ms = q 0.5; p90_ms = q 0.9; p99_ms = q 0.99; min_ms = !lo; max_ms = !hi }

let run config =
  if config.requests <= 0 || config.concurrency <= 0 then
    invalid_arg "Loadgen.run: requests and concurrency must be positive";
  (* each index is written by the one worker that claimed it *)
  let outcomes = Array.make config.requests (Lost 0) in
  let next = Atomic.make 0 in
  let worker () =
    match Client.connect config.socket with
    | exception (Unix.Unix_error _ | Sys_error _) -> ()
    | client ->
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < config.requests then begin
          let t0 = Obs.now_ns () in
          outcomes.(i) <-
            (match Client.request_retrying ~id:i ~policy:config.retry client (config.mix i) with
            | Ok resp, retries ->
              Reply (resp, Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e6, retries)
            | Error _, retries -> Lost retries
            | exception (End_of_file | Unix.Unix_error _ | Sys_error _) -> Lost 0);
          loop ()
        end
      in
      loop ()
  in
  let t0 = Unix.gettimeofday () in
  List.iter Thread.join (List.init config.concurrency (fun _ -> Thread.create worker ()));
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let interactive i = Request.default_priority (config.mix i) = Request.Interactive in
  let total = stats_of outcomes (fun _ -> true) in
  {
    total;
    interactive = stats_of outcomes interactive;
    batch = stats_of outcomes (fun i -> not (interactive i));
    elapsed_s;
    throughput_rps =
      (if elapsed_s > 0.0 then float_of_int total.replies /. elapsed_s else 0.0);
    dedup_hit_rate = float_of_int total.dedup_hits /. float_of_int total.sent;
  }

let latency_json s =
  [
    ("p50_ms", Json.Number s.p50_ms);
    ("p90_ms", Json.Number s.p90_ms);
    ("p99_ms", Json.Number s.p99_ms);
  ]

let class_json s =
  Json.Object
    ([
       ("sent", Json.int s.sent);
       ("ok", Json.int s.ok);
       ("shed", Json.int s.shed);
       ("deadline_dropped", Json.int s.deadline_dropped);
       ("failed", Json.int s.failed);
       ("retries", Json.int s.retries);
     ]
    @ latency_json s
    @ [ ("max_ms", Json.Number s.max_ms) ])

let result_to_json r =
  let t = r.total in
  Json.to_string
    (Json.Object
       ([
          ("requests", Json.int t.sent);
          ("ok", Json.int t.ok);
          ("failed", Json.int t.failed);
          ("dedup_hits", Json.int t.dedup_hits);
          ("dedup_hit_rate", Json.Number r.dedup_hit_rate);
          ("elapsed_s", Json.Number r.elapsed_s);
          ("throughput_rps", Json.Number r.throughput_rps);
        ]
       @ latency_json t
       @ [
           ("min_ms", Json.Number t.min_ms);
           ("max_ms", Json.Number t.max_ms);
           ("replies", Json.int t.replies);
           ("code70", Json.int t.code70);
           ("sheds", Json.int t.shed);
           ("interactive", class_json r.interactive);
           ("batch", class_json r.batch);
         ]))
