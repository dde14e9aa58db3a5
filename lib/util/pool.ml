module Obs = Vartune_obs.Obs
module Fault = Vartune_fault.Fault

let src = Logs.Src.create "vartune.pool" ~doc:"domain worker pool"

module Log = (val Logs.src_log src : Logs.LOG)

exception Worker_failure of string

let () =
  Printexc.register_printer (function
    | Worker_failure msg -> Some (Printf.sprintf "Vartune_util.Pool.Worker_failure(%s)" msg)
    | _ -> None)

(* A queued task.  [run] settles its own result slot and never raises;
   [abandon] settles the slot with {!Worker_failure} when the task has
   burnt through its crash budget; [attempts] counts executions begun on
   worker domains (only crashes increment it — a completed run is the
   task's last). *)
type task = {
  run : unit -> unit;
  abandon : string -> unit;
  mutable attempts : int;
}

(* A task whose workers keep dying is abandoned after this many
   attempts rather than requeued forever. *)
let max_task_attempts = 8

type t = {
  jobs : int;
  stall_timeout_s : float;
  queue : task Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  restarts : int Atomic.t;
  in_flight_tasks : int Atomic.t;
      (** tasks currently executing on some domain — dequeued but not
          yet settled/requeued.  Supervisors drain on this: once the
          queue is empty and [in_flight] is 0, no work can be lost. *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

(* Job-count precedence: an explicit [~jobs] (the --jobs flag) wins,
   then VARTUNE_JOBS, then the recommended domain count.  A VARTUNE_JOBS
   value that is not a positive integer is rejected loudly — silently
   falling back used to hide typos like VARTUNE_JOBS=0. *)
let env_jobs () =
  match Sys.getenv_opt "VARTUNE_JOBS" with
  | None -> None
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some j when j >= 1 -> Some j
    | Some _ | None ->
      Log.warn (fun m ->
          m "ignoring VARTUNE_JOBS=%S: expected a positive integer, using %d (recommended \
             domain count)"
            v
            (Domain.recommended_domain_count ()));
      None)

let resolve_jobs = function
  | Some j when j >= 1 -> j
  | Some j ->
    invalid_arg (Printf.sprintf "Pool.create: jobs must be a positive integer (got %d)" j)
  | None -> (
    match env_jobs () with
    | Some j -> j
    | None -> Domain.recommended_domain_count ())

(* Stall watchdog grace period: how long the completion wait tolerates
   zero progress (no task finishing, nothing left to help with) before
   concluding the remaining tasks are stuck on unresponsive workers.
   Disabled (infinite) unless VARTUNE_POOL_STALL_S or ~stall_timeout_s
   says otherwise. *)
let parse_stall_timeout v =
  match float_of_string_opt (String.trim v) with
  | Some s when s > 0.0 -> Ok s (* NaN fails this comparison; infinity = disabled *)
  | Some _ ->
    Error
      (Printf.sprintf "stall timeout %s is not a positive number of seconds" (String.trim v))
  | None -> Error (Printf.sprintf "bad stall timeout %S: expected seconds" v)

(* A malformed value used to warn and silently disable the watchdog —
   which meant a typo'd VARTUNE_POOL_STALL_S=-30 left a wedged pipeline
   hanging forever.  Reject it instead; the CLI validates first and
   turns this into a usage error (exit 64) naming the token. *)
let env_stall_timeout () =
  match Sys.getenv_opt "VARTUNE_POOL_STALL_S" with
  | None -> infinity
  | Some v when String.trim v = "" -> infinity
  | Some v -> (
    match parse_stall_timeout v with
    | Ok s -> s
    | Error msg -> invalid_arg (Printf.sprintf "VARTUNE_POOL_STALL_S: %s" msg))

(* --------------------- chunked-submission size --------------------- *)

(* An explicit [?chunk] wins; otherwise an automatic size that aims for
   ~8 tasks per worker so scheduling stays balanced while per-task
   closure/boxing overhead amortises over many items.  Chunking is
   granularity only: it can never change what is computed from which
   input, so results are bit-identical at any chunk size. *)
let tasks_per_worker = 8

let resolve_chunk ?chunk pool ~items =
  match chunk with
  | Some c -> max 1 c
  | None -> max 1 (items / (pool.jobs * tasks_per_worker))

let chunk_for pool ~items = resolve_chunk pool ~items

let c_tasks = Obs.Counter.make "pool.tasks_run"
let c_restarts = Obs.Counter.make "pool.worker_restarts"

(* Wraps one dequeued task in a span on the executing domain's track and
   charges its duration to that domain's busy-time histogram.  Task
   bodies settle failures through their result slot, so the busy-time
   accounting after [span] always runs. *)
let run_task run =
  if not (Obs.enabled ()) then run ()
  else begin
    let t0 = Obs.now_ns () in
    Obs.span "pool.task" run;
    let dt = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) *. 1e-9 in
    Obs.observe ("pool.worker." ^ string_of_int (Domain.self () :> int) ^ ".busy_s") dt;
    Obs.Counter.incr c_tasks
  end

(* Worker domains die in two ways: an injected [Worker_crash] fault
   (fired at dequeue, before the task body starts, so a requeued task
   can never settle twice) or a real exception escaping [run] (task
   bodies catch their own, so this is catastrophic).  Either way the
   crashed worker's last act is to requeue or abandon its task and
   spawn a replacement domain — [map] callers never deadlock on a lost
   task. *)
let rec worker_loop pool =
  Mutex.lock pool.lock;
  let rec next () =
    match Queue.take_opt pool.queue with
    | Some task -> Some task
    | None ->
      if pool.closed then None
      else begin
        Condition.wait pool.nonempty pool.lock;
        next ()
      end
  in
  let task = next () in
  Mutex.unlock pool.lock;
  match task with
  | None -> ()
  | Some task ->
    if Fault.fires Fault.Worker_crash ~site:"pool.worker" then
      crash_out pool task "injected worker_crash fault"
    else begin
      Atomic.incr pool.in_flight_tasks;
      match run_task task.run with
      | () ->
        Atomic.decr pool.in_flight_tasks;
        worker_loop pool
      | exception exn ->
        Atomic.decr pool.in_flight_tasks;
        crash_out pool task (Printexc.to_string exn)
    end

and crash_out pool task reason =
  Atomic.incr pool.restarts;
  Obs.Counter.incr c_restarts;
  task.attempts <- task.attempts + 1;
  let abandon = task.attempts >= max_task_attempts in
  if abandon then begin
    let msg =
      Printf.sprintf "task lost %d worker domains (last: %s); giving up" task.attempts
        reason
    in
    Log.err (fun m -> m "%s" msg);
    task.abandon msg
  end
  else
    Log.warn (fun m ->
        m "worker domain crashed (%s); requeueing task (attempt %d/%d) and restarting"
          reason task.attempts max_task_attempts);
  Mutex.lock pool.lock;
  if not abandon then begin
    Queue.add task pool.queue;
    Condition.broadcast pool.nonempty
  end;
  (* Spawn the replacement while holding the lock so a concurrent
     [shutdown] either sees [closed] here or joins the new domain. *)
  if not pool.closed then
    pool.workers <- Domain.spawn (fun () -> worker_loop pool) :: pool.workers;
  Mutex.unlock pool.lock
(* the crashed domain's worker_loop ends here: the domain dies *)

let create ?jobs ?stall_timeout_s () =
  let jobs = resolve_jobs jobs in
  let stall_timeout_s =
    match stall_timeout_s with
    | Some s when s > 0.0 -> s
    | Some s -> invalid_arg (Printf.sprintf "Pool.create: stall timeout %g must be > 0" s)
    | None -> env_stall_timeout ()
  in
  let pool =
    {
      jobs;
      stall_timeout_s;
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      restarts = Atomic.make 0;
      in_flight_tasks = Atomic.make 0;
      closed = false;
      workers = [];
    }
  in
  (* The submitting domain drains the queue too, so jobs - 1 extra
     domains give jobs-way concurrency; jobs = 1 spawns nothing and is
     the exact serial path. *)
  if jobs > 1 then
    pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let jobs t = t.jobs
let restarts t = Atomic.get t.restarts
let in_flight t = Atomic.get t.in_flight_tasks
let queued t = Mutex.protect t.lock (fun () -> Queue.length t.queue)

let shutdown t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  (* Crashing workers may still be appending replacement domains; keep
     joining until the list stays empty. *)
  let rec drain () =
    Mutex.lock t.lock;
    let workers = t.workers in
    t.workers <- [];
    Mutex.unlock t.lock;
    if workers <> [] then begin
      List.iter Domain.join workers;
      drain ()
    end
  in
  drain ()

(* Pops one queued task and runs it; [false] when the queue is empty.
   Runs on the submitting domain, which is immortal: no crash faults
   are consulted here, and a catastrophic escape abandons the task
   instead of killing the caller. *)
let try_run_one t =
  Mutex.lock t.lock;
  let task = Queue.take_opt t.queue in
  Mutex.unlock t.lock;
  match task with
  | None -> false
  | Some task ->
    Atomic.incr t.in_flight_tasks;
    (try run_task task.run
     with exn ->
       task.abandon (Printf.sprintf "task body raised uncaught %s" (Printexc.to_string exn)));
    Atomic.decr t.in_flight_tasks;
    true

let c_enqueued = Obs.Counter.make "pool.tasks_enqueued"

let map_array_impl pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if pool.jobs <= 1 || n = 1 then Array.map f xs
  else begin
    if pool.closed then invalid_arg "Pool: pool is shut down";
    let results = Array.make n None in
    let remaining = Atomic.make n in
    let done_lock = Mutex.create () in
    let done_cond = Condition.create () in
    (* Settling is single-writer per slot — a task instance runs on one
       domain at a time and is only requeued after its holder died
       before the body started — so the Some check is belt-and-braces
       against double-abandon, not a synchronisation point. *)
    let settle i r =
      match results.(i) with
      | Some _ -> ()
      | None ->
        results.(i) <- Some r;
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock done_lock;
          Condition.broadcast done_cond;
          Mutex.unlock done_lock
        end
    in
    let make_task i =
      {
        attempts = 0;
        run =
          (fun () ->
            let r =
              try Ok (f xs.(i)) with e -> Error (e, Printexc.get_raw_backtrace ())
            in
            settle i r);
        abandon =
          (fun reason ->
            settle i (Error (Worker_failure reason, Printexc.get_callstack 0)));
      }
    in
    Mutex.lock pool.lock;
    for i = 0 to n - 1 do
      Queue.add (make_task i) pool.queue
    done;
    let depth = Queue.length pool.queue in
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.lock;
    if Obs.enabled () then begin
      Obs.Counter.add c_enqueued n;
      Obs.observe "pool.queue_depth" (float_of_int depth)
    end;
    (* Help drain the queue (our tasks or anyone else's), then wait for
       the stragglers still running on other domains. *)
    while try_run_one pool do
      ()
    done;
    if pool.stall_timeout_s = infinity then begin
      Mutex.lock done_lock;
      while Atomic.get remaining > 0 do
        Condition.wait done_cond done_lock
      done;
      Mutex.unlock done_lock
    end
    else begin
      (* Watchdog wait: poll for completion, keep helping with requeued
         tasks, and fail cleanly if nothing progresses for the grace
         period — a lost wakeup or wedged worker must not hang the
         pipeline forever. *)
      let last_remaining = ref (Atomic.get remaining) in
      let last_progress = ref (Unix.gettimeofday ()) in
      while Atomic.get remaining > 0 do
        if not (try_run_one pool) then Unix.sleepf 0.001;
        let r = Atomic.get remaining in
        if r <> !last_remaining then begin
          last_remaining := r;
          last_progress := Unix.gettimeofday ()
        end
        else if r > 0 && Unix.gettimeofday () -. !last_progress > pool.stall_timeout_s
        then
          raise
            (Worker_failure
               (Printf.sprintf
                  "pool stalled: %d task(s) made no progress for %.1fs (stuck worker?)" r
                  pool.stall_timeout_s))
      done
    end;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let map_array pool f xs =
  if not (Obs.enabled ()) then map_array_impl pool f xs
  else
    Obs.span "pool.map"
      ~attrs:(fun () ->
        [ ("items", string_of_int (Array.length xs)); ("jobs", string_of_int pool.jobs) ])
      (fun () -> map_array_impl pool f xs)

let map pool f xs = Array.to_list (map_array pool f (Array.of_list xs))

let init pool ?chunk n f =
  if n <= 0 then [||]
  else begin
    let chunk = resolve_chunk ?chunk pool ~items:n in
    let nchunks = (n + chunk - 1) / chunk in
    if nchunks = 1 then Array.init n f
    else
      let parts =
        map_array pool
          (fun c ->
            let lo = c * chunk in
            let hi = min n (lo + chunk) in
            Array.init (hi - lo) (fun k -> f (lo + k)))
          (Array.init nchunks Fun.id)
      in
      Array.concat (Array.to_list parts)
  end

(* Chunked counterpart of [map_array]: contiguous blocks of [chunk]
   items ride in one task.  Within a block, items are applied strictly
   in ascending index order, so the first exception of the lowest
   failing block is the lowest-index exception overall — the same
   contract as the per-item map. *)
let map_array_chunked pool ?chunk f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let chunk = resolve_chunk ?chunk pool ~items:n in
    let nchunks = (n + chunk - 1) / chunk in
    if pool.jobs <= 1 || nchunks = 1 then Array.map f xs
    else
      let parts =
        map_array pool
          (fun c ->
            let lo = c * chunk in
            let hi = min n (lo + chunk) in
            let out = Array.make (hi - lo) (f xs.(lo)) in
            for k = 1 to hi - lo - 1 do
              out.(k) <- f xs.(lo + k)
            done;
            out)
          (Array.init nchunks Fun.id)
      in
      Array.concat (Array.to_list parts)
  end

let map_chunked pool ?chunk f xs =
  Array.to_list (map_array_chunked pool ?chunk f (Array.of_list xs))

(* ------------------------------------------------------------------ *)
(* Shared default pool                                                 *)
(* ------------------------------------------------------------------ *)

let default_lock = Mutex.create ()
let default_pool = ref None

let default () =
  Mutex.lock default_lock;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
      let p = create () in
      default_pool := Some p;
      p
  in
  Mutex.unlock default_lock;
  pool

let set_default_jobs jobs =
  let fresh = create ~jobs () in
  Mutex.lock default_lock;
  let old = !default_pool in
  default_pool := Some fresh;
  Mutex.unlock default_lock;
  Option.iter shutdown old
