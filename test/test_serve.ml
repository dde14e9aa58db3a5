(* Tests for the serve layer: deterministic single-flight coalescing,
   the GET endpoints, serve-vs-exec-vs-CLI bit-identity of request
   outputs, N concurrent identical requests under the fault harness at
   pool jobs 1/2/7 (one computation via dedup + store, or clean typed
   failure, never divergent bytes), the bounded admission queue
   (priority ordering, queue-full sheds, deadline drops at admission
   and dequeue), connection hygiene (oversized request lines), graceful
   in-process drain — idle and under load — and the real binary's
   SIGTERM -> exit 75 contract. *)

module Request = Vartune_flow.Request
module Response = Vartune_flow.Response
module Run_request = Vartune_flow.Run_request
module Serve = Vartune_serve.Serve
module Client = Vartune_serve.Client
module Loadgen = Vartune_serve.Loadgen
module Single_flight = Vartune_serve.Single_flight
module Admission = Vartune_serve.Admission
module Store = Vartune_store.Store
module Fault = Vartune_fault.Fault
module Pool = Vartune_util.Pool
module Json = Vartune_obs.Json
module Obs = Vartune_obs.Obs
module Tuning_method = Vartune_tuning.Tuning_method
module Threshold = Vartune_tuning.Threshold
module Figures = Vartune_flow.Figures

let temp_root =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "vartune_test_serve_%d" (Unix.getpid ()))

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let in_temp name =
  mkdir_p temp_root;
  Filename.concat temp_root name

let with_store name f =
  let t = Store.open_dir (in_temp name) in
  Store.wipe t;
  Fun.protect ~finally:(fun () -> Store.wipe t) (fun () -> f t)

let with_serve ?store ?(workers = 4) ?(queue_cap = 64) ?(max_conns = 64) name f =
  let socket = in_temp name in
  if Sys.file_exists socket then Sys.remove socket;
  let h = Serve.start { Serve.socket; store; backlog = 16; workers; queue_cap; max_conns } in
  Fun.protect ~finally:(fun () -> Serve.stop h) (fun () -> f socket h)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let wait_until ?(timeout_s = 30.0) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Single-flight                                                       *)
(* ------------------------------------------------------------------ *)

(* The leader parks inside the computation on a gate, the test waits
   until it is in there, gives the followers time to coalesce, then
   opens the gate: exactly one computation, N-1 dedup answers. *)
let test_single_flight_dedup () =
  let sf = Single_flight.create () in
  let computes = Atomic.make 0 in
  let m = Mutex.create () and c = Condition.create () in
  let leader_running = ref false and released = ref false in
  let compute () =
    Atomic.incr computes;
    Mutex.lock m;
    leader_running := true;
    Condition.broadcast c;
    while not !released do
      Condition.wait c m
    done;
    Mutex.unlock m;
    "value"
  in
  let n = 5 in
  let results = Array.make n ("", false) in
  let threads =
    List.init n (fun i ->
        Thread.create (fun () -> results.(i) <- Single_flight.run sf ~key:"k" compute) ())
  in
  Mutex.lock m;
  while not !leader_running do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Thread.delay 0.2 (* let the remaining threads reach the flight *);
  Alcotest.(check int) "one key in flight" 1 (Single_flight.in_flight sf);
  Mutex.lock m;
  released := true;
  Condition.broadcast c;
  Mutex.unlock m;
  List.iter Thread.join threads;
  Alcotest.(check int) "one computation" 1 (Atomic.get computes);
  Alcotest.(check int) "flight empty afterwards" 0 (Single_flight.in_flight sf);
  Array.iter
    (fun (v, _) -> Alcotest.(check string) "every caller got the result" "value" v)
    results;
  let dedups =
    Array.fold_left (fun acc (_, dedup) -> if dedup then acc + 1 else acc) 0 results
  in
  Alcotest.(check int) "all but the leader coalesced" (n - 1) dedups

let test_single_flight_failure () =
  let sf = Single_flight.create () in
  (match Single_flight.run sf ~key:"k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "leader exception swallowed"
  | exception Failure msg -> Alcotest.(check string) "exception propagates" "boom" msg);
  Alcotest.(check int) "failed flight leaves no trace" 0 (Single_flight.in_flight sf);
  let v, dedup = Single_flight.run sf ~key:"k" (fun () -> "fresh") in
  Alcotest.(check string) "next call computes afresh" "fresh" v;
  Alcotest.(check bool) "as a leader" false dedup

(* ------------------------------------------------------------------ *)
(* Bit-identity: serve = exec = CLI binary                             *)
(* ------------------------------------------------------------------ *)

let statlib_req = Request.Statlib { Request.seed = 7; samples = 2 }

(* fault-free, store-less reference bytes of the statlib request *)
let reference =
  lazy
    (let resp = Run_request.exec statlib_req in
     if resp.Response.code <> 0 then
       Alcotest.failf "reference exec failed: %s"
         (Option.value resp.Response.error ~default:"?");
     resp.Response.output)

let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "vartune.exe")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_serve_matches_exec_and_cli () =
  let served =
    with_serve "bitid.sock" (fun socket _h ->
        let client = Client.connect socket in
        Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
        match Client.request ~id:1 client statlib_req with
        | Ok resp ->
          Alcotest.(check int) "served request succeeded" 0 resp.Response.code;
          Alcotest.(check bool) "correlation id echoed" true (resp.Response.id = Some 1);
          resp.Response.output
        | Error e -> Alcotest.failf "served response unreadable: %s" e)
  in
  Alcotest.(check bool) "serve output = Run_request.exec output" true
    (String.equal served (Lazy.force reference));
  let out = in_temp "statlib_cli.out" in
  let code =
    Sys.command
      (Printf.sprintf "%s statlib --seed 7 -n 2 > %s 2> /dev/null" (Filename.quote exe)
         (Filename.quote out))
  in
  Alcotest.(check int) "CLI statlib exits 0" 0 code;
  Alcotest.(check bool) "serve output = CLI stdout bytes" true
    (String.equal served (read_file out))

(* One daemon over one store handle shares decoded and computed
   artifacts across requests: the statistical library every request
   reads and the minimum period.  Synthesis runs, whose netlists are
   mutable records, go through the same tier; on this design a run's
   ~5 MB entry and the 3.75 MB library do not fit the budget together,
   so a run is evicted by the next request's library fetch.
   Interleaved and sent twice, every reply must still equal the bytes
   of the same request executed on a fresh handle over the same
   directory, which decodes every artifact from disk. *)
let test_shared_values_match_cold_decode () =
  let base = { Request.seed = 7; samples = 2 } in
  let tunes =
    List.concat_map
      (fun (tm : Tuning_method.t) ->
        let params =
          match tm.Tuning_method.criterion with
          | Threshold.Sigma_ceiling _ -> Figures.paper_ceilings
          | Threshold.Load_slope _ | Threshold.Slew_slope _ -> Figures.paper_bounds
        in
        List.map
          (fun p -> Request.Tune { base; tuning = Tuning_method.with_parameter tm p })
          params)
      (Tuning_method.paper_methods ~bound:1.0 ~ceiling:0.02)
  in
  Alcotest.(check int) "the 20 Fig 10 templates" 20 (List.length tunes);
  let tuning = List.hd (Tuning_method.paper_methods ~bound:1.0 ~ceiling:0.02) in
  let others =
    [|
      Request.Statlib base;
      Request.Design_sigma
        { base; period = None; tuning = Some tuning; timing_report = true; power = true;
          verilog = true };
      Request.Sweep
        { base; tuning; period = None; parameters = [ 0.01; 0.05 ]; mc_samples = Some 20 };
    |]
  in
  let requests =
    List.concat
      (List.mapi
         (fun i tune -> if i mod 7 = 0 then [ others.(i / 7); tune ] else [ tune ])
         tunes)
  in
  Alcotest.(check int) "every request interleaved" 23 (List.length requests);
  let sent = requests @ requests in
  with_store "shared.store" @@ fun store ->
  let served =
    with_serve ~store "shared.sock" (fun socket _h ->
        let client = Client.connect socket in
        Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
        List.mapi
          (fun i req ->
            match Client.request ~id:i client req with
            | Ok resp -> resp
            | Error e -> Alcotest.failf "served response %d unreadable: %s" i e)
          sent)
  in
  Alcotest.(check bool) "the daemon reused what it built" true
    ((Store.stats store).Store.hits > 0);
  let cold = Hashtbl.create 32 in
  List.iteri
    (fun i (req, (resp : Response.t)) ->
      let line = Request.to_line req in
      let want =
        match Hashtbl.find_opt cold line with
        | Some w -> w
        | None ->
          let w = Run_request.exec ~store:(Store.open_dir (Store.dir store)) req in
          Hashtbl.replace cold line w;
          w
      in
      let what = Printf.sprintf "reply %d (%s)" i (Request.kind_string req) in
      Alcotest.(check int) (what ^ " succeeded") 0 resp.Response.code;
      Alcotest.(check int) (what ^ ": cold exec succeeded") 0 want.Response.code;
      Alcotest.(check bool) (what ^ " output = cold decode") true
        (String.equal resp.Response.output want.Response.output);
      Alcotest.(check (list string)) (what ^ " recipes") want.Response.recipes
        resp.Response.recipes;
      Alcotest.(check bool) (what ^ " artifacts = cold decode") true
        (resp.Response.artifacts = want.Response.artifacts))
    (List.combine sent served)

(* ------------------------------------------------------------------ *)
(* GET endpoints                                                       *)
(* ------------------------------------------------------------------ *)

let test_get_endpoints () =
  with_serve "get.sock" (fun socket h ->
      let client = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      List.iter
        (fun endpoint ->
          let line = Client.get client endpoint in
          match Json.parse line with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "GET %s returned invalid JSON (%s): %s" endpoint e line)
        [ "metrics"; "profile"; "health" ];
      (match Json.parse (Client.get client "metrics") with
      | Ok json ->
        (match Json.member "schema" json with
        | Some (Json.Number _) -> ()
        | _ -> Alcotest.fail "GET metrics lacks the schema version")
      | Error e -> Alcotest.failf "GET metrics unparsable: %s" e);
      (match Json.parse (Client.get client "health") with
      | Ok json ->
        (match Json.member "status" json with
        | Some (Json.String "ok") -> ()
        | _ -> Alcotest.fail "GET health status not ok")
      | Error e -> Alcotest.failf "GET health unparsable: %s" e);
      let s = Serve.stats h in
      Alcotest.(check int) "GETs are not counted as requests" 0 s.Serve.requests)

let test_malformed_line_answered () =
  with_serve "mal.sock" (fun socket h ->
      let client = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      (match Client.request client statlib_req with
      | Ok resp -> Alcotest.(check int) "valid request still served" 0 resp.Response.code
      | Error e -> Alcotest.failf "valid response unreadable: %s" e);
      let reply = Client.get client "this is not a request" in
      (match Response.of_line reply with
      | Ok resp ->
        Alcotest.(check int) "malformed line answered with 65" 65 resp.Response.code;
        Alcotest.(check bool) "and an error message" true (resp.Response.error <> None)
      | Error e -> Alcotest.failf "error reply unreadable: %s" e);
      let s = Serve.stats h in
      Alcotest.(check int) "unparsable line counted as error" 1 s.Serve.errors)

let test_corrupt_library_answered () =
  with_serve "corrupt.sock" (fun socket _ ->
      let client = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      List.iteri
        (fun i (label, src, _) ->
          let file = in_temp (Printf.sprintf "corrupt_%d.lib" i) in
          let oc = open_out_bin file in
          output_string oc src;
          close_out oc;
          match Client.request client (Request.Parse { file }) with
          | Ok resp ->
            Alcotest.(check int) (label ^ " answered with 65") 65 resp.Response.code;
            Alcotest.(check bool) (label ^ " carries a message") true (resp.Response.error <> None)
          | Error e -> Alcotest.failf "%s: reply unreadable: %s" label e)
        Helpers.corrupt_libraries)

(* ------------------------------------------------------------------ *)
(* Concurrent identical requests under the fault harness               *)
(* ------------------------------------------------------------------ *)

let concurrent_requests ~n socket req =
  let results = Array.make n None in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let client = Client.connect socket in
            Fun.protect
              ~finally:(fun () -> Client.close client)
              (fun () -> results.(i) <- Some (Client.request ~id:i client req)))
          ())
  in
  List.iter Thread.join threads;
  Array.to_list results
  |> List.map (function
       | Some (Ok resp) -> resp
       | Some (Error e) -> Alcotest.failf "response unreadable: %s" e
       | None -> Alcotest.fail "client thread died without a response")

(* N identical concurrent requests against one daemon + store.  Always:
   every response carries the same bytes (coalesced or recomputed,
   never divergent).  Fault-free: exactly one computation — one store
   miss, everyone else answered by the flight or the store.  Faulty:
   either the bytes still match the fault-free reference (store
   degradation is invisible) or every response fails with one clean
   typed sysexits code.  Afterwards a fault-free run over the surviving
   store must reproduce the reference. *)
let dedup_case ~jobs ~spec () =
  let n = 5 in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) @@ fun () ->
  let name = Printf.sprintf "dedup_j%d_%s" jobs (match spec with None -> "clean" | Some s -> s) in
  with_store (name ^ ".store") @@ fun store ->
  with_serve ~store (name ^ ".sock") @@ fun socket h ->
  let responses =
    match spec with
    | None -> concurrent_requests ~n socket statlib_req
    | Some spec -> Fault.with_spec spec (fun () -> concurrent_requests ~n socket statlib_req)
  in
  let first = List.hd responses in
  List.iter
    (fun (r : Response.t) ->
      Alcotest.(check int) "uniform code across duplicates" first.Response.code r.Response.code;
      Alcotest.(check bool) "uniform bytes across duplicates" true
        (String.equal first.Response.output r.Response.output))
    responses;
  (match first.Response.code with
  | 0 ->
    Alcotest.(check bool) "bytes match the fault-free serial reference" true
      (String.equal first.Response.output (Lazy.force reference))
  | 65 | 70 | 74 | 75 -> Alcotest.(check bool) "typed failure carries a message" true (first.Response.error <> None)
  | code -> Alcotest.failf "unclassified failure code %d" code);
  (match spec with
  | None ->
    let stats = Store.stats store in
    Alcotest.(check int) "exactly one computation (one store miss)" 1 stats.Store.misses;
    let s = Serve.stats h in
    Alcotest.(check int) "flight + store answered the other callers" (n - 1)
      (s.Serve.dedup_hits + stats.Store.hits)
  | Some _ -> ());
  (* whatever the faults did, no corrupt artifact may survive them *)
  let warm = Run_request.exec ~store statlib_req in
  Alcotest.(check int) "fault-free run over the surviving store succeeds" 0
    warm.Response.code;
  Alcotest.(check bool) "and reproduces the reference bytes" true
    (String.equal warm.Response.output (Lazy.force reference))

let test_dedup_at jobs () =
  dedup_case ~jobs ~spec:None ();
  dedup_case ~jobs ~spec:(Some "worker_crash=1.0:13") ();
  dedup_case ~jobs ~spec:(Some "enospc=1.0:3") ()

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

(* A job that parks on a gate so the tests can hold the (single) worker
   busy while they shape the queue behind it. *)
type gate = {
  g_mu : Mutex.t;
  g_cond : Condition.t;
  mutable g_entered : bool;
  mutable g_open : bool;
}

let make_gate () =
  { g_mu = Mutex.create (); g_cond = Condition.create (); g_entered = false; g_open = false }

let gate_job g after () =
  Mutex.lock g.g_mu;
  g.g_entered <- true;
  Condition.broadcast g.g_cond;
  while not g.g_open do
    Condition.wait g.g_cond g.g_mu
  done;
  Mutex.unlock g.g_mu;
  after ()

let wait_gate_entered g =
  Mutex.lock g.g_mu;
  while not g.g_entered do
    Condition.wait g.g_cond g.g_mu
  done;
  Mutex.unlock g.g_mu

let open_gate g =
  Mutex.lock g.g_mu;
  g.g_open <- true;
  Condition.broadcast g.g_cond;
  Mutex.unlock g.g_mu

let check_value job =
  match Admission.await job with
  | Admission.Value v -> v
  | Admission.Shed _ -> Alcotest.fail "admitted job was shed"
  | Admission.Failed exn -> raise exn

(* One worker, a gate holding it busy, then batch-batch-interactive
   queued behind it: the interactive job must overtake both queued
   batch jobs, and the batch pair must keep FIFO order. *)
let test_admission_priority () =
  let adm = Admission.create ~workers:1 ~queue_cap:10 in
  Fun.protect ~finally:(fun () -> Admission.stop adm) @@ fun () ->
  let g = make_gate () in
  let order_mu = Mutex.create () in
  let order = ref [] in
  let record tag () =
    Mutex.lock order_mu;
    order := tag :: !order;
    Mutex.unlock order_mu
  in
  let gate = Admission.submit adm ~priority:Request.Batch (gate_job g (record "gate")) in
  wait_gate_entered g;
  let b1 = Admission.submit adm ~priority:Request.Batch (record "b1") in
  let b2 = Admission.submit adm ~priority:Request.Batch (record "b2") in
  let i1 = Admission.submit adm ~priority:Request.Interactive (record "i1") in
  Alcotest.(check int) "three jobs queued behind the gate" 3 (Admission.depth adm);
  Alcotest.(check int) "one job active" 1 (Admission.active adm);
  open_gate g;
  List.iter check_value [ gate; b1; b2; i1 ];
  Alcotest.(check (list string)) "interactive overtakes queued batch, batch stays FIFO"
    [ "gate"; "i1"; "b1"; "b2" ]
    (List.rev !order);
  Alcotest.(check int) "nothing was shed" 0 (Admission.sheds adm)

(* Queue at capacity: the next submit is refused immediately with a
   typed shed carrying the deterministic pressure-scaled hint; the
   already-admitted work still runs. *)
let test_admission_queue_full () =
  let adm = Admission.create ~workers:1 ~queue_cap:1 in
  Fun.protect ~finally:(fun () -> Admission.stop adm) @@ fun () ->
  let g = make_gate () in
  let gate = Admission.submit adm ~priority:Request.Batch (gate_job g (fun () -> ())) in
  wait_gate_entered g;
  let queued = Admission.submit adm ~priority:Request.Batch (fun () -> ()) in
  let refused = Admission.submit adm ~priority:Request.Interactive (fun () -> ()) in
  (match Admission.await refused with
  | Admission.Shed { reason = Admission.Queue_full; retry_after_s } ->
    (* depth 1 + active 1 over 1 worker: 0.05 * 2 *)
    Alcotest.(check (float 1e-9)) "hint follows the published pressure formula" 0.1
      retry_after_s
  | Admission.Shed _ -> Alcotest.fail "refused with the wrong reason"
  | _ -> Alcotest.fail "over-capacity submit was not shed");
  Alcotest.(check int) "refusal counted as a shed" 1 (Admission.sheds adm);
  Alcotest.(check int) "but not as a deadline drop" 0 (Admission.deadline_drops adm);
  open_gate g;
  List.iter check_value [ gate; queued ]

(* Deadlines are enforced twice: an already-expired one is refused at
   admission without occupying a slot, and one that lapses while queued
   is dropped at dequeue without being executed. *)
let test_admission_deadlines () =
  let adm = Admission.create ~workers:1 ~queue_cap:10 in
  Fun.protect ~finally:(fun () -> Admission.stop adm) @@ fun () ->
  let expired =
    Admission.submit adm ~priority:Request.Interactive
      ~deadline_ns:(Int64.sub (Obs.now_ns ()) 1_000_000L)
      (fun () -> Alcotest.fail "expired job must never run")
  in
  (match Admission.await expired with
  | Admission.Shed { reason = Admission.Deadline_expired; _ } -> ()
  | _ -> Alcotest.fail "expired deadline not refused at admission");
  Alcotest.(check int) "admission-time drop counted" 1 (Admission.deadline_drops adm);
  let g = make_gate () in
  let gate = Admission.submit adm ~priority:Request.Batch (gate_job g (fun () -> ())) in
  wait_gate_entered g;
  let doomed =
    Admission.submit adm ~priority:Request.Batch
      ~deadline_ns:(Int64.add (Obs.now_ns ()) 50_000_000L)
      (fun () -> Alcotest.fail "lapsed job must never run")
  in
  Thread.delay 0.2 (* let the 50 ms deadline lapse while queued *);
  open_gate g;
  check_value gate;
  (match Admission.await doomed with
  | Admission.Shed { reason = Admission.Deadline_expired; retry_after_s } ->
    Alcotest.(check bool) "dequeue-time drop carries a hint" true (retry_after_s > 0.0)
  | _ -> Alcotest.fail "lapsed deadline not dropped at dequeue");
  Alcotest.(check int) "both drops counted" 2 (Admission.deadline_drops adm);
  Alcotest.(check int) "deadline drops are not sheds" 0 (Admission.sheds adm)

(* Drain with work in flight and work queued: the queued job is shed
   with [Draining] before stop returns, the in-flight one finishes. *)
let test_admission_drain () =
  let adm = Admission.create ~workers:1 ~queue_cap:10 in
  let g = make_gate () in
  let gate = Admission.submit adm ~priority:Request.Batch (gate_job g (fun () -> "done")) in
  wait_gate_entered g;
  let queued = Admission.submit adm ~priority:Request.Batch (fun () -> "ran") in
  let stopper = Thread.create (fun () -> Admission.stop adm) () in
  (match Admission.await queued with
  | Admission.Shed { reason = Admission.Draining; _ } -> ()
  | _ -> Alcotest.fail "queued job not shed by the drain");
  open_gate g;
  Thread.join stopper;
  Alcotest.(check string) "in-flight job finished through the drain" "done"
    (check_value gate);
  (match Admission.await
           (Admission.submit adm ~priority:Request.Interactive (fun () -> "late"))
   with
  | Admission.Shed { reason = Admission.Draining; _ } -> ()
  | _ -> Alcotest.fail "post-drain submit not refused");
  Admission.stop adm (* idempotent *)

(* ------------------------------------------------------------------ *)
(* Overload behaviour through the daemon                               *)
(* ------------------------------------------------------------------ *)

let statlib_seed seed = Request.Statlib { Request.seed; samples = 2 }

(* Fires one request from its own client thread and parks the result. *)
let async_request ?deadline_s socket req =
  let result = ref None in
  let t =
    Thread.create
      (fun () ->
        let client = Client.connect socket in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () -> result := Some (Client.request ?deadline_s client req)))
      ()
  in
  (t, result)

let response_of tag result =
  match !result with
  | Some (Ok resp) -> resp
  | Some (Error e) -> Alcotest.failf "%s response unreadable: %s" tag e
  | None -> Alcotest.failf "%s request got no reply" tag

(* One worker, queue cap 1, the delay fault stretching every execution:
   request A runs, B queues, C must be refused immediately with a total
   code-75 response carrying a retry hint — while A and B still succeed.
   Every request gets exactly one reply. *)
let test_serve_queue_full_shed () =
  with_serve ~workers:1 ~queue_cap:1 "shed.sock" @@ fun socket h ->
  Fault.with_spec "delay=1.0:3" @@ fun () ->
  let ta, ra = async_request socket (statlib_seed 100) in
  Alcotest.(check bool) "request A reached a worker" true
    (wait_until (fun () -> (Serve.stats h).Serve.active > 0));
  let tb, rb = async_request socket (statlib_seed 101) in
  Alcotest.(check bool) "request B queued behind it" true
    (wait_until (fun () -> (Serve.stats h).Serve.queued > 0));
  let client = Client.connect socket in
  let rc =
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () -> Client.request client (statlib_seed 102))
  in
  (match rc with
  | Ok resp ->
    Alcotest.(check int) "over-capacity request shed with 75" 75 resp.Response.code;
    Alcotest.(check bool) "shed carries a retry_after_s hint" true
      (resp.Response.retry_after_s <> None);
    Alcotest.(check bool) "and a message" true (resp.Response.error <> None)
  | Error e -> Alcotest.failf "shed response unreadable: %s" e);
  Thread.join ta;
  Thread.join tb;
  Alcotest.(check int) "request A served" 0 (response_of "A" ra).Response.code;
  Alcotest.(check int) "request B served" 0 (response_of "B" rb).Response.code;
  Alcotest.(check bool) "daemon counted the shed" true ((Serve.stats h).Serve.sheds >= 1)

(* A deadline that lapses while queued behind slow work: the daemon
   answers 75 without executing, and counts a deadline drop (never a
   shed). *)
let test_serve_deadline_drop () =
  with_serve ~workers:1 ~queue_cap:8 "deadline.sock" @@ fun socket h ->
  Fault.with_spec "delay=1.0:3" @@ fun () ->
  let ta, ra = async_request socket (statlib_seed 110) in
  Alcotest.(check bool) "request A reached a worker" true
    (wait_until (fun () -> (Serve.stats h).Serve.active > 0));
  let client = Client.connect socket in
  let rd =
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () -> Client.request ~deadline_s:0.05 client (statlib_seed 111))
  in
  (match rd with
  | Ok resp ->
    Alcotest.(check int) "lapsed deadline answered with 75" 75 resp.Response.code;
    Alcotest.(check bool) "the message names the deadline" true
      (match resp.Response.error with Some e -> contains ~needle:"deadline" e | None -> false)
  | Error e -> Alcotest.failf "deadline response unreadable: %s" e);
  Thread.join ta;
  Alcotest.(check int) "request A served" 0 (response_of "A" ra).Response.code;
  let s = Serve.stats h in
  Alcotest.(check int) "counted as a deadline drop" 1 s.Serve.deadline_drops

(* ------------------------------------------------------------------ *)
(* Connection hygiene                                                  *)
(* ------------------------------------------------------------------ *)

(* A line just past the 1 MiB cap, no newline: the daemon must answer
   one typed 65 naming the cap and drop the connection instead of
   buffering without bound.  Exactly cap+1 bytes so the daemon consumes
   everything we send and the close is a clean EOF, not an RST. *)
let test_oversized_line () =
  with_serve "oversized.sock" @@ fun socket h ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let total = (1 lsl 20) + 1 in
  let chunk = Bytes.make 65536 'a' in
  let sent = ref 0 in
  (try
     while !sent < total do
       let n = min (Bytes.length chunk) (total - !sent) in
       sent := !sent + Unix.write fd chunk 0 n
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  let buf = Buffer.create 256 in
  let bytes = Bytes.create 4096 in
  (try
     let rec drain () =
       let n = Unix.read fd bytes 0 (Bytes.length bytes) in
       if n > 0 then begin
         Buffer.add_subbytes buf bytes 0 n;
         drain ()
       end
     in
     drain ()
   with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
  let reply = Buffer.contents buf in
  let line =
    match String.index_opt reply '\n' with
    | Some i -> String.sub reply 0 i
    | None -> reply
  in
  (match Response.of_line line with
  | Ok resp ->
    Alcotest.(check int) "oversized line answered with 65" 65 resp.Response.code;
    Alcotest.(check bool) "the message names the cap" true
      (match resp.Response.error with Some e -> contains ~needle:"exceeds" e | None -> false)
  | Error e -> Alcotest.failf "oversized-line reply unreadable (%s): %S" e line);
  Alcotest.(check bool) "connection dropped after the refusal" true
    (String.length reply = String.length line + 1);
  Alcotest.(check bool) "counted as an error" true ((Serve.stats h).Serve.errors >= 1)

(* ------------------------------------------------------------------ *)
(* Drain                                                               *)
(* ------------------------------------------------------------------ *)

(* Stop while a request is executing: the drain must wait for it and
   answer it, not cut the connection. *)
let test_graceful_drain () =
  let socket = in_temp "drain.sock" in
  if Sys.file_exists socket then Sys.remove socket;
  let h =
    Serve.start
      { Serve.socket; store = None; backlog = 16; workers = 4; queue_cap = 64; max_conns = 64 }
  in
  let result = ref None in
  let t =
    Thread.create
      (fun () ->
        let client = Client.connect socket in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () -> result := Some (Client.request client statlib_req)))
      ()
  in
  let deadline = Unix.gettimeofday () +. 30.0 in
  while (Serve.stats h).Serve.active = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "request in flight before the drain" true
    ((Serve.stats h).Serve.active > 0);
  Serve.stop h;
  Thread.join t;
  (match !result with
  | Some (Ok resp) -> Alcotest.(check int) "in-flight request answered" 0 resp.Response.code
  | Some (Error e) -> Alcotest.failf "drained response unreadable: %s" e
  | None -> Alcotest.fail "in-flight request dropped by the drain");
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* Drain with a full pipeline: one request executing (stretched by the
   delay fault), two queued behind the single worker.  Stop must answer
   the in-flight request with its real result and shed both queued ones
   with typed 75s — every reply written before the socket file
   disappears, no client left hanging. *)
let test_drain_under_load () =
  let socket = in_temp "drainload.sock" in
  if Sys.file_exists socket then Sys.remove socket;
  let h =
    Serve.start
      { Serve.socket; store = None; backlog = 16; workers = 1; queue_cap = 8; max_conns = 64 }
  in
  Fault.with_spec "delay=1.0:3" @@ fun () ->
  let ta, ra = async_request socket (statlib_seed 120) in
  Alcotest.(check bool) "one request in flight" true
    (wait_until (fun () -> (Serve.stats h).Serve.active > 0));
  let tb, rb = async_request socket (statlib_seed 121) in
  let tc, rc = async_request socket (statlib_seed 122) in
  Alcotest.(check bool) "two requests queued behind it" true
    (wait_until (fun () -> (Serve.stats h).Serve.queued >= 2));
  Serve.stop h;
  Alcotest.(check bool) "socket file removed by the drain" false (Sys.file_exists socket);
  List.iter Thread.join [ ta; tb; tc ];
  Alcotest.(check int) "in-flight request answered with its result" 0
    (response_of "in-flight" ra).Response.code;
  List.iter
    (fun (tag, r) ->
      let resp = response_of tag r in
      Alcotest.(check int) (tag ^ " shed with 75") 75 resp.Response.code;
      Alcotest.(check bool) (tag ^ " carries a retry hint") true
        (resp.Response.retry_after_s <> None))
    [ ("queued B", rb); ("queued C", rc) ]

(* An idle daemon stops at once: the stop wakes the accept loop instead
   of waiting out its 0.2 s select poll, which put a 0-0.2 s term into
   every stop.  Median of five start/stop cycles. *)
let test_stop_is_prompt () =
  let socket = in_temp "prompt.sock" in
  let stop_s () =
    if Sys.file_exists socket then Sys.remove socket;
    let h =
      Serve.start
        { Serve.socket; store = None; backlog = 16; workers = 1; queue_cap = 8; max_conns = 8 }
    in
    (* let the accept loop block in its select *)
    Thread.delay 0.05;
    let t0 = Unix.gettimeofday () in
    Serve.stop h;
    Unix.gettimeofday () -. t0
  in
  let times = List.sort Float.compare (List.init 5 (fun _ -> stop_s ())) in
  let median = List.nth times 2 in
  Alcotest.(check bool)
    (Printf.sprintf "median stop %.3f s, under a quarter of the poll" median)
    true (median < 0.05)

(* The real binary: SIGTERM -> graceful drain -> exit 75. *)
let test_binary_sigterm_exit_75 () =
  let socket = in_temp "sigterm.sock" in
  if Sys.file_exists socket then Sys.remove socket;
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket |]
      Unix.stdin dev_null dev_null
  in
  Unix.close dev_null;
  let deadline = Unix.gettimeofday () +. 30.0 in
  while not (Sys.file_exists socket) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  Alcotest.(check bool) "daemon bound its socket" true (Sys.file_exists socket);
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> Alcotest.(check int) "SIGTERM drains to exit 75" 75 code
  | _, Unix.WSIGNALED s -> Alcotest.failf "daemon killed by signal %d instead of draining" s
  | _, Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped unexpectedly");
  Alcotest.(check bool) "socket file removed on drain" false (Sys.file_exists socket)

(* ------------------------------------------------------------------ *)
(* Client backoff and the load generator                               *)
(* ------------------------------------------------------------------ *)

(* The jittered ladder is seeded, never clocked: these waits are pinned
   to the bit. *)
let test_backoff_pinned () =
  let q = { Client.attempts = 5; base_backoff_s = 0.01; seed = 7 } in
  List.iter
    (fun (policy, attempt, hint, expected) ->
      Alcotest.(check int64)
        (Printf.sprintf "attempt %d" attempt)
        (Int64.bits_of_float expected)
        (Int64.bits_of_float (Client.backoff_s policy ~attempt ~hint)))
    [
      (Client.default_policy, 0, None, 0x1.f6b31d9c96719p-11);
      (Client.default_policy, 1, None, 0x1.e32ad8ed6849ap-10);
      (Client.default_policy, 2, None, 0x1.8cd065e6ed11fp-9);
      (Client.default_policy, 2, Some 0.25, 0.25);
      (q, 0, None, 0x1.b4e81b4e81b4ep-7);
      (q, 3, None, 0x1.1ca1c078cab64p-3);
      (q, 4, Some 0x1.0624dd2f1a9fcp-10, 0x1.2f43be9fe795bp-2);
    ]

let loadgen ?(retry = Client.default_policy) socket ~requests ~concurrency mix =
  Loadgen.run { Loadgen.socket; requests; concurrency; mix; retry }

let test_loadgen_default_mix () =
  with_serve "lg.sock" (fun socket _h ->
      let r =
        loadgen socket ~requests:8 ~concurrency:2
          (Loadgen.default_mix ~seed:42 ~samples:2 ~concurrency:2)
      in
      let t = r.Loadgen.total in
      Alcotest.(check int) "requests" 8 t.Loadgen.sent;
      Alcotest.(check int) "replies" 8 t.Loadgen.replies;
      Alcotest.(check int) "ok" 8 t.Loadgen.ok;
      Alcotest.(check int) "failed" 0 t.Loadgen.failed;
      Alcotest.(check int) "classes add up" 8
        (r.Loadgen.interactive.Loadgen.sent + r.Loadgen.batch.Loadgen.sent))

(* A burst past a one-slot queue sheds; every request is still counted
   exactly once, and shedding is never an internal error. *)
let test_loadgen_burst_accounting () =
  with_serve ~workers:1 ~queue_cap:1 "lgburst.sock" (fun socket _h ->
      let requests = 8 in
      let r =
        loadgen socket ~requests ~concurrency:requests
          (Loadgen.burst_mix ~seed:42 ~samples:2)
      in
      let t = r.Loadgen.total in
      Alcotest.(check int) "no code 70" 0 t.Loadgen.code70;
      Alcotest.(check int) "every request answered" requests t.Loadgen.replies;
      Alcotest.(check int) "each request counted once" requests
        (t.Loadgen.ok + t.Loadgen.shed + t.Loadgen.deadline_dropped + t.Loadgen.failed);
      Alcotest.(check int) "two interactive" 2 r.Loadgen.interactive.Loadgen.sent)

let test_loadgen_no_daemon () =
  let socket = in_temp "absent.sock" in
  if Sys.file_exists socket then Sys.remove socket;
  List.iter
    (fun (name, mix) ->
      let r = loadgen socket ~requests:8 ~concurrency:2 mix in
      let t = r.Loadgen.total in
      Alcotest.(check int) (name ^ ": requests") 8 t.Loadgen.sent;
      Alcotest.(check int) (name ^ ": failed") 8 t.Loadgen.failed;
      Alcotest.(check int) (name ^ ": replies") 0 t.Loadgen.replies)
    [
      ("default", Loadgen.default_mix ~seed:42 ~samples:2 ~concurrency:2);
      ("burst", Loadgen.burst_mix ~seed:42 ~samples:2);
    ]

let () =
  Alcotest.run "serve"
    [
      ( "single-flight",
        [
          Alcotest.test_case "coalesces concurrent duplicates" `Quick
            test_single_flight_dedup;
          Alcotest.test_case "failed flight leaves no trace" `Quick
            test_single_flight_failure;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "GET endpoints return JSON" `Quick test_get_endpoints;
          Alcotest.test_case "malformed lines answered with 65" `Quick
            test_malformed_line_answered;
          Alcotest.test_case "corrupt library Parse answered with 65" `Quick
            test_corrupt_library_answered;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "serve = exec = CLI bytes" `Slow
            test_serve_matches_exec_and_cli;
          Alcotest.test_case "shared values = cold decode bytes" `Slow
            test_shared_values_match_cold_decode;
        ] );
      ( "dedup-under-faults",
        [
          Alcotest.test_case "jobs=1" `Slow (test_dedup_at 1);
          Alcotest.test_case "jobs=2" `Slow (test_dedup_at 2);
          Alcotest.test_case "jobs=7" `Slow (test_dedup_at 7);
        ] );
      ( "admission",
        [
          Alcotest.test_case "interactive overtakes queued batch" `Quick
            test_admission_priority;
          Alcotest.test_case "queue full sheds with a typed hint" `Quick
            test_admission_queue_full;
          Alcotest.test_case "deadlines enforced at admission and dequeue" `Quick
            test_admission_deadlines;
          Alcotest.test_case "drain sheds queued, finishes in-flight" `Quick
            test_admission_drain;
        ] );
      ( "overload",
        [
          Alcotest.test_case "over-capacity request shed with 75" `Slow
            test_serve_queue_full_shed;
          Alcotest.test_case "queued deadline lapse answered with 75" `Slow
            test_serve_deadline_drop;
          Alcotest.test_case "oversized line refused and dropped" `Slow
            test_oversized_line;
        ] );
      ( "drain",
        [
          Alcotest.test_case "in-flight request answered" `Slow test_graceful_drain;
          Alcotest.test_case "drain under load sheds queued with 75" `Slow
            test_drain_under_load;
          Alcotest.test_case "binary SIGTERM exits 75" `Slow test_binary_sigterm_exit_75;
          Alcotest.test_case "idle stop is prompt" `Quick test_stop_is_prompt;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "backoff ladder pinned" `Quick test_backoff_pinned;
          Alcotest.test_case "default mix all ok" `Slow test_loadgen_default_mix;
          Alcotest.test_case "burst counts each request once" `Slow
            test_loadgen_burst_accounting;
          Alcotest.test_case "no daemon: every request failed" `Quick
            test_loadgen_no_daemon;
        ] );
    ]
