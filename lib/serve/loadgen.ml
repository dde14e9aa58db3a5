module Request = Vartune_flow.Request
module Response = Vartune_flow.Response
module Obs = Vartune_obs.Obs
module Json = Vartune_obs.Json
module Tuning_method = Vartune_tuning.Tuning_method

type config = {
  socket : string;
  requests : int;
  concurrency : int;
  mix : Request.t list;
}

type result = {
  sent : int;
  ok : int;
  failed : int;
  dedup_hits : int;
  elapsed_s : float;
  throughput_rps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  min_ms : float;
  max_ms : float;
}

let default_mix ~seed ~samples =
  let base = { Request.seed; samples } in
  let tuning =
    {
      Tuning_method.population = Vartune_tuning.Cluster.Per_cell;
      criterion = Vartune_tuning.Threshold.Sigma_ceiling 0.02;
    }
  in
  [
    Request.Statlib base;
    Request.Characterize;
    Request.Tune { base; tuning };
    Request.Report { trace = None; metrics = None; run_dir = None; json = true };
  ]

(* One shared latency accumulator in the Obs.Buckets layout; a mutex is
   plenty at request granularity. *)
type acc = {
  lock : Mutex.t;
  counts : int array;
  mutable total : int;
  mutable min_ms : float;
  mutable max_ms : float;
  mutable ok : int;
  mutable failed : int;
  mutable dedup : int;
}

let run config =
  if config.requests <= 0 || config.concurrency <= 0 || config.mix = [] then
    invalid_arg "Loadgen.run: requests, concurrency and mix must be non-empty";
  let templates = Array.of_list config.mix in
  let acc =
    {
      lock = Mutex.create ();
      counts = Array.make Obs.Buckets.count 0;
      total = 0;
      min_ms = infinity;
      max_ms = neg_infinity;
      ok = 0;
      failed = 0;
      dedup = 0;
    }
  in
  let next = Atomic.make 0 in
  let worker () =
    let client = Client.connect config.socket in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < config.requests then begin
        (* [concurrency] consecutive indices share a template so the
           parallel workers overlap on identical requests *)
        let req =
          templates.(i / config.concurrency mod Array.length templates)
        in
        let t0 = Obs.now_ns () in
        let observed =
          match Client.request ~id:i client req with
          | Ok resp ->
            let ms = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e6 in
            Some (resp, ms)
          | Error _ -> None
          | exception (End_of_file | Unix.Unix_error _ | Sys_error _) -> None
        in
        Mutex.protect acc.lock (fun () ->
            match observed with
            | None -> acc.failed <- acc.failed + 1
            | Some (resp, ms) ->
              acc.counts.(Obs.Buckets.index ms) <- acc.counts.(Obs.Buckets.index ms) + 1;
              acc.total <- acc.total + 1;
              acc.min_ms <- Float.min acc.min_ms ms;
              acc.max_ms <- Float.max acc.max_ms ms;
              if resp.Response.code = 0 then acc.ok <- acc.ok + 1
              else acc.failed <- acc.failed + 1;
              if resp.Response.dedup then acc.dedup <- acc.dedup + 1);
        loop ()
      end
    in
    loop ()
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init config.concurrency (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let quantile q =
    if acc.total = 0 then 0.0
    else
      Obs.Buckets.quantile ~counts:acc.counts ~total:acc.total ~min_v:acc.min_ms
        ~max_v:acc.max_ms q
  in
  let sent = acc.ok + acc.failed in
  {
    sent;
    ok = acc.ok;
    failed = acc.failed;
    dedup_hits = acc.dedup;
    elapsed_s;
    throughput_rps = (if elapsed_s > 0.0 then float_of_int sent /. elapsed_s else 0.0);
    p50_ms = quantile 0.5;
    p90_ms = quantile 0.9;
    p99_ms = quantile 0.99;
    min_ms = (if acc.total = 0 then 0.0 else acc.min_ms);
    max_ms = (if acc.total = 0 then 0.0 else acc.max_ms);
  }

let dedup_hit_rate r =
  if r.sent = 0 then 0.0 else float_of_int r.dedup_hits /. float_of_int r.sent

(* ------------------------------------------------------------------ *)
(* Overload mode                                                       *)
(* ------------------------------------------------------------------ *)

type overload_config = {
  o_socket : string;
  burst : int;
  o_concurrency : int;
  o_seed : int;
  o_samples : int;
  retry : Client.retry_policy;
}

type class_stats = {
  c_sent : int;
  c_ok : int;
  c_shed : int;  (** final reply was still a code-75 shed after retries *)
  c_deadline_dropped : int;
  c_failed : int;  (** other non-zero codes, decode errors, transport drops *)
  c_retries : int;  (** retries absorbed by the client's backoff loop *)
  c_p50_ms : float;
  c_p90_ms : float;
  c_p99_ms : float;
  c_max_ms : float;
}

type overload_result = {
  interactive : class_stats;
  batch : class_stats;
  o_elapsed_s : float;
  replies : int;
  code70 : int;
}

type class_acc = {
  ca_counts : int array;  (* latency buckets over admitted (code-0) replies *)
  mutable ca_total : int;
  mutable ca_min : float;
  mutable ca_max : float;
  mutable ca_sent : int;
  mutable ca_ok : int;
  mutable ca_shed : int;
  mutable ca_deadline : int;
  mutable ca_failed : int;
  mutable ca_retries : int;
}

let class_acc () =
  {
    ca_counts = Array.make Obs.Buckets.count 0;
    ca_total = 0;
    ca_min = infinity;
    ca_max = neg_infinity;
    ca_sent = 0;
    ca_ok = 0;
    ca_shed = 0;
    ca_deadline = 0;
    ca_failed = 0;
    ca_retries = 0;
  }

let class_stats_of a =
  let quantile q =
    if a.ca_total = 0 then 0.0
    else
      Obs.Buckets.quantile ~counts:a.ca_counts ~total:a.ca_total ~min_v:a.ca_min
        ~max_v:a.ca_max q
  in
  {
    c_sent = a.ca_sent;
    c_ok = a.ca_ok;
    c_shed = a.ca_shed;
    c_deadline_dropped = a.ca_deadline;
    c_failed = a.ca_failed;
    c_retries = a.ca_retries;
    c_p50_ms = quantile 0.5;
    c_p90_ms = quantile 0.9;
    c_p99_ms = quantile 0.99;
    c_max_ms = (if a.ca_total = 0 then 0.0 else a.ca_max);
  }

(* A deadline drop comes back as the same typed 75 as a queue-full
   shed; the operator message tells them apart. *)
let is_deadline_message = function
  | None -> false
  | Some msg ->
    let needle = "deadline" in
    let n = String.length needle and m = String.length msg in
    let rec scan i = i + n <= m && (String.sub msg i n = needle || scan (i + 1)) in
    scan 0

let run_overload config =
  if config.burst <= 0 || config.o_concurrency <= 0 then
    invalid_arg "Loadgen.run_overload: burst and concurrency must be positive";
  let lock = Mutex.create () in
  let inter = class_acc () and batch = class_acc () in
  let replies = ref 0 and code70 = ref 0 in
  let next = Atomic.make 0 in
  (* Every 4th request is interactive (a live report); the rest are
     batch statlib builds with per-index seeds, so single-flight cannot
     coalesce the burst and the queue genuinely fills. *)
  let request_for i =
    if i mod 4 = 0 then
      ( Request.Report { trace = None; metrics = None; run_dir = None; json = true },
        Request.Interactive )
    else
      ( Request.Statlib { Request.seed = config.o_seed + i; samples = config.o_samples },
        Request.Batch )
  in
  let worker () =
    match Client.connect config.o_socket with
    | exception (Unix.Unix_error _ | Sys_error _) ->
      (* connection refused: this thread sends nothing; the indices it
         would have claimed are accounted as failed after the join *)
      ()
    | client ->
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < config.burst then begin
        let req, priority = request_for i in
        let t0 = Obs.now_ns () in
        let outcome =
          match
            Client.request_retrying ~id:i ~priority ~policy:config.retry client req
          with
          | (Ok resp, retries) ->
            let ms = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e6 in
            `Reply (resp, ms, retries)
          | (Error _, retries) -> `Lost retries
          | exception (End_of_file | Unix.Unix_error _ | Sys_error _) -> `Lost 0
        in
        Mutex.protect lock (fun () ->
            let a =
              match priority with
              | Request.Interactive -> inter
              | Request.Batch -> batch
            in
            a.ca_sent <- a.ca_sent + 1;
            match outcome with
            | `Lost retries ->
              a.ca_failed <- a.ca_failed + 1;
              a.ca_retries <- a.ca_retries + retries
            | `Reply (resp, ms, retries) ->
              incr replies;
              a.ca_retries <- a.ca_retries + retries;
              (match resp.Response.code with
              | 0 ->
                a.ca_ok <- a.ca_ok + 1;
                a.ca_counts.(Obs.Buckets.index ms) <-
                  a.ca_counts.(Obs.Buckets.index ms) + 1;
                a.ca_total <- a.ca_total + 1;
                a.ca_min <- Float.min a.ca_min ms;
                a.ca_max <- Float.max a.ca_max ms
              | 75 ->
                if is_deadline_message resp.Response.error then
                  a.ca_deadline <- a.ca_deadline + 1
                else a.ca_shed <- a.ca_shed + 1
              | 70 ->
                incr code70;
                a.ca_failed <- a.ca_failed + 1
              | _ -> a.ca_failed <- a.ca_failed + 1));
        loop ()
      end
    in
    loop ()
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init config.o_concurrency (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  (* every request must appear in the accounting exactly once: indices
     no worker claimed (all connections refused) are failures, not a
     silent shrink of the burst *)
  let rec account_unsent () =
    let i = Atomic.fetch_and_add next 1 in
    if i < config.burst then begin
      let _, priority = request_for i in
      let a =
        match priority with Request.Interactive -> inter | Request.Batch -> batch
      in
      a.ca_sent <- a.ca_sent + 1;
      a.ca_failed <- a.ca_failed + 1;
      account_unsent ()
    end
  in
  account_unsent ();
  {
    interactive = class_stats_of inter;
    batch = class_stats_of batch;
    o_elapsed_s = Unix.gettimeofday () -. t0;
    replies = !replies;
    code70 = !code70;
  }

let class_stats_json c =
  Json.Object
    [
      ("sent", Json.int c.c_sent);
      ("ok", Json.int c.c_ok);
      ("shed", Json.int c.c_shed);
      ("deadline_dropped", Json.int c.c_deadline_dropped);
      ("failed", Json.int c.c_failed);
      ("retries", Json.int c.c_retries);
      ("p50_ms", Json.Number c.c_p50_ms);
      ("p90_ms", Json.Number c.c_p90_ms);
      ("p99_ms", Json.Number c.c_p99_ms);
      ("max_ms", Json.Number c.c_max_ms);
    ]

let overload_result_to_json r =
  Json.to_string
    (Json.Object
       [
         ("interactive", class_stats_json r.interactive);
         ("batch", class_stats_json r.batch);
         ("elapsed_s", Json.Number r.o_elapsed_s);
         ("replies", Json.int r.replies);
         ("code70", Json.int r.code70);
         ("sheds", Json.int (r.interactive.c_shed + r.batch.c_shed));
       ])

let result_to_json r =
  Json.to_string
    (Json.Object
       [
         ("requests", Json.int r.sent);
         ("ok", Json.int r.ok);
         ("failed", Json.int r.failed);
         ("dedup_hits", Json.int r.dedup_hits);
         ("dedup_hit_rate", Json.Number (dedup_hit_rate r));
         ("elapsed_s", Json.Number r.elapsed_s);
         ("throughput_rps", Json.Number r.throughput_rps);
         ("p50_ms", Json.Number r.p50_ms);
         ("p90_ms", Json.Number r.p90_ms);
         ("p99_ms", Json.Number r.p99_ms);
         ("min_ms", Json.Number r.min_ms);
         ("max_ms", Json.Number r.max_ms);
       ])
