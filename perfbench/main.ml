(* vartune's end-to-end benchmark.  See README.md for the workloads, the
   metrics and the layer-to-metric map.

   Usage:
     main.exe --workload fig10_flow|library_build|serve_mix --seed N
              --seconds S --trace 0|1

   Every run works in a private directory under .perfbench/ (fresh store,
   socket, default-store override) and removes it on exit.  The last
   line of stdout is the JSON result; everything above it is a
   human-readable table. *)

open Vartune_flow
module Obs = Vartune_obs.Obs
module Profile = Vartune_obs.Profile
module Pool = Vartune_util.Pool
module Store = Vartune_store.Store
module Serve = Vartune_serve.Serve
module Client = Vartune_serve.Client
module Tuning_method = Vartune_tuning.Tuning_method
module Threshold = Vartune_tuning.Threshold
module Restrict = Vartune_tuning.Restrict
module Statistical = Vartune_statlib.Statistical
module Characterize = Vartune_charlib.Characterize
module Mismatch = Vartune_process.Mismatch
module Printer = Vartune_liberty.Printer
module Synthesis = Vartune_synth.Synthesis
module Timing = Vartune_sta.Timing
module Path = Vartune_sta.Path
module Design_sigma = Vartune_stats.Design_sigma

(* At most 2 pool domains and 2 connections: the reference host has 2
   vCPUs, and more load than cores only measures the host's scheduler. *)
let jobs = 2
let conns = 2

(* The paper's N: every statistical library is merged from 50 samples. *)
let samples = 50

(* The seed the committed digests (digests.txt) were recorded with. *)
let default_seed = 1

(* p90 is reported only from at least this many samples. *)
let p90_min_samples = 100

(* ------------------------------------------------------------------ *)
(* Small utilities                                                     *)
(* ------------------------------------------------------------------ *)

let now () = Int64.to_float (Obs.now_ns ()) /. 1e9
let fail_msg fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    mkdir_p dst;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc (In_channel.with_open_bin src In_channel.input_all))

let md5 s = Digest.to_hex (Digest.string s)

(* Exact quantile of raw samples: linear interpolation between order
   statistics (the median of an even count is the mean of the middle
   two).  Never a histogram estimate. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* VmHWM: the peak resident set of this process, in MB. *)
let peak_rss_mb () =
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> nan

(* Aggregate /proc/stat cpu line: (steal ticks, total ticks). *)
let cpu_ticks () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | first :: _ ->
    let fields =
      List.filter_map int_of_string_opt
        (List.filter (( <> ) "") (String.split_on_char ' ' first))
    in
    let steal = match List.nth_opt fields 7 with Some s -> s | None -> 0 in
    (steal, List.fold_left ( + ) 0 fields)
  | [] -> (0, 0)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans                                           *)
(* ------------------------------------------------------------------ *)

(* Spans around every public call the benchmark makes: name, start,
   end, parent and operation id.  Recorded only in traced runs, kept in
   memory and written out when the run ends. *)
module Spans = struct
  type t = { id : int; parent : int; op : int; name : string; t0 : float; t1 : float }

  let on = ref false
  let recorded = ref []
  let next_id = ref 0
  let lock = Mutex.create ()
  let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8

  let with_ ~op name f =
    if not !on then f ()
    else begin
      let tid = Thread.id (Thread.self ()) in
      let id, parent =
        Mutex.protect lock (fun () ->
            incr next_id;
            let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
            Hashtbl.replace stacks tid (!next_id :: stack);
            (!next_id, match stack with p :: _ -> p | [] -> 0))
      in
      let t0 = now () in
      Fun.protect f ~finally:(fun () ->
          let t1 = now () in
          Mutex.protect lock (fun () ->
              (match Hashtbl.find_opt stacks tid with
               | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
               | _ -> ());
              recorded := { id; parent; op; name; t0; t1 } :: !recorded))
    end

  let durations name =
    List.filter_map
      (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None)
      !recorded

  let write path =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "[";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string buf ",\n";
        Printf.bprintf buf
          "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f}"
          s.id s.parent s.op s.name s.t0 s.t1)
      (List.rev !recorded);
    Buffer.add_string buf "]\n";
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Buffer.contents buf))
end

(* ------------------------------------------------------------------ *)
(* Run directory, correctness accounting, committed digests            *)
(* ------------------------------------------------------------------ *)

let run_dir = ref ""

let fresh_store name =
  let dir = Filename.concat !run_dir name in
  rm_rf dir;
  Store.open_dir dir

let attempted = ref 0
let failed = ref 0
let lock = Mutex.create ()

(* Counts one operation; [ok = false] is a mismatch, a non-zero code or
   a lost reply. *)
let account ~what ok =
  Mutex.protect lock (fun () ->
      incr attempted;
      if not ok then begin
        incr failed;
        fail_msg "FAILED: %s" what
      end)

(* digests.txt: "<workload> <seed> <index> <md5>" lines recorded from
   the default seed.  Outputs with a committed digest must match it. *)
let committed : (string * int * int, string) Hashtbl.t = Hashtbl.create 64
let digests_checked = ref 0

let load_digests () =
  let path = Filename.concat "perfbench" "digests.txt" in
  List.iter
    (fun l ->
      match String.split_on_char ' ' (String.trim l) with
      | [ w; s; i; d ] when not (String.starts_with ~prefix:"#" l) ->
        Hashtbl.replace committed (w, int_of_string s, int_of_string i) d
      | _ -> ())
    (String.split_on_char '\n' (read_file path))

(* Logs the digest (so a default-seed run can refresh digests.txt) and
   checks it against the committed one, if any. *)
let digest_ok ~workload ~seed ~index out =
  let d = md5 out in
  Printf.eprintf "digest %s %d %d %s\n%!" workload seed index d;
  match Hashtbl.find_opt committed (workload, seed, index) with
  | None -> true
  | Some want ->
    incr digests_checked;
    want = d

let exec ?store ~op req =
  Spans.with_ ~op ("flow.exec:" ^ Request.kind_string req) (fun () ->
      Run_request.exec ?store req)

let check_ok ~what (r : Response.t) =
  if r.Response.code <> 0 then
    fail_msg "%s: code %d (%s)" what r.Response.code
      (Option.value ~default:"" r.Response.error);
  r.Response.code = 0

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; n : int; note : string }

let metric ?(n = 1) ?(note = "") name unit_ value = { name; value; unit_; n; note }

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.6g %-9s n=%-5d %s\n" m.name m.value m.unit_ m.n m.note)
    ms

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ms =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
             m.unit_)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed body

(* What a timed phase leaves behind, for the end-to-end table. *)
type timed = {
  wall_s : float;
  lat_ms : float list;  (** per request *)
  work : float;  (** operations for the throughput metric *)
  work_unit : string;
  cpu_s : float;
  steal : float;
}

let timed_phase f =
  (* Every timed phase starts from a compacted heap: how far the major
     heap grew during set-up depends on how the domains interleaved, and
     moved throughput by a third between runs of identical work. *)
  Gc.compact ();
  let s0, t0_ticks = cpu_ticks () in
  let c0 = cpu_seconds () in
  let t0 = now () in
  let lat_ms, work, work_unit = f () in
  let wall_s = now () -. t0 in
  let s1, t1_ticks = cpu_ticks () in
  let steal =
    if t1_ticks > t0_ticks then float_of_int (s1 - s0) /. float_of_int (t1_ticks - t0_ticks)
    else 0.0
  in
  { wall_s; lat_ms; work; work_unit; cpu_s = cpu_seconds () -. c0; steal }

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                     *)
(* ------------------------------------------------------------------ *)

let paper_grid () =
  List.map
    (fun (tm : Tuning_method.t) ->
      let params =
        match tm.Tuning_method.criterion with
        | Threshold.Sigma_ceiling _ -> Figures.paper_ceilings
        | Threshold.Load_slope _ | Threshold.Slew_slope _ -> Figures.paper_bounds
      in
      (tm, params))
    (Tuning_method.paper_methods ~bound:1.0 ~ceiling:0.02)

let fig10_labels = [| "high"; "low"; "close"; "medium" |]

(* The Fig 10 grid as (canonical index, cell) in run order.  Step k runs
   period k mod 4 with method k mod 5, so every four consecutive sweeps
   cover the four periods and every five the five methods: the mix a run
   times is the same however many sweeps the host lets it finish.  The
   seed only swaps high with low and close with medium.  The canonical
   index, which keys digests.txt, lists high and low of every method, then
   close and medium. *)
let fig10_grid ~seed periods =
  let methods = Array.of_list (paper_grid ()) in
  Array.init
    (Array.length fig10_labels * Array.length methods)
    (fun k ->
      let p = k mod 4 lxor (seed land 1) and m = k mod 5 in
      let label = fig10_labels.(p) and tm, params = methods.(m) in
      ((p / 2 * 10) + (m * 2) + (p mod 2), (label, List.assoc label periods, tm, params)))

(* The 20 Fig 10 (method, parameter) pairs as interactive Tune requests. *)
let tune_templates base =
  Array.of_list
    (List.concat_map
       (fun (tm, params) ->
         List.map
           (fun p -> Request.Tune { base; tuning = Tuning_method.with_parameter tm p })
           params)
       (paper_grid ()))

let base seed = { Request.seed; samples }

(* library_build: fresh seeds never collide between runs with distinct
   --seed values. *)
let lib_seed ~seed k = (seed * 1000) + k

(* ------------------------------------------------------------------ *)
(* fig10_flow                                                          *)
(* ------------------------------------------------------------------ *)

(* fig10_flow runs the paper's flow on the paper's inputs: one
   statistical library (seed 42, N = 50) for every run, so every run
   does the same work and every reply can be checked against its
   committed digest. *)
let paper_seed = 42
let paper_base = { Request.seed = paper_seed; samples }

type fig10_ctx = { f_store : Store.t; f_periods : (string * float) list; f_min : Response.t }

let fig10_checked ~what ~index (r : Response.t) =
  account ~what
    (check_ok ~what r
    && digest_ok ~workload:"fig10_flow" ~seed:paper_seed ~index r.Response.output)

(* Cold: fresh store, pool start, statlib build and the minimum-period
   bisection, the (store-warm) ladder, and the baseline at every period,
   so every timed sweep synthesises only its tuned points. *)
let fig10_setup ~name =
  let store = fresh_store name in
  Pool.set_default_jobs jobs;
  let req = Request.Min_period paper_base in
  let r = exec ~store ~op:0 req in
  fig10_checked ~what:"fig10 min_period" ~index:(-1) r;
  let setup =
    Spans.with_ ~op:0 "flow.prepare" (fun () -> Experiment.prepare_request ~store req)
  in
  Array.iteri
    (fun i label ->
      let period = List.assoc label setup.Experiment.periods in
      let b =
        exec ~store ~op:0
          (Request.Design_sigma
             { base = paper_base; period = Some period; tuning = None; timing_report = false;
               power = false; verilog = false })
      in
      fig10_checked ~what:("fig10 baseline " ^ label) ~index:(-2 - i) b)
    fig10_labels;
  { f_store = store; f_periods = setup.Experiment.periods; f_min = r }

let sweep_request (_, period, tm, params) =
  Request.Sweep { base = paper_base; tuning = tm; period = Some period; parameters = params;
                  mc_samples = None }

(* One Sweep request: returns (latency ms, points answered, response). *)
let fig10_op ctx grid i =
  let index, ((label, _, tm, params) as cell) = grid.(i) in
  let req = sweep_request cell in
  let t0 = now () in
  let r = exec ~store:ctx.f_store ~op:(i + 1) req in
  let lat = (now () -. t0) *. 1000.0 in
  let lines = String.split_on_char '\n' r.Response.output in
  let count prefix = List.length (List.filter (String.starts_with ~prefix) lines) in
  let what = Printf.sprintf "fig10 sweep %s %s" label (Tuning_method.to_string tm) in
  fig10_checked ~what ~index r;
  account ~what:(what ^ " shape") (count "baseline" = 1 && count "  parameter" = List.length params);
  Printf.eprintf "op %d %s %s %.1f ms\n%!" i label (Tuning_method.to_string tm) lat;
  (lat, float_of_int (1 + List.length params), r)

let fig10_untraced ~seed ~seconds =
  let t0 = now () in
  let ctx = fig10_setup ~name:"store" in
  let setup_s = now () -. t0 in
  let grid = fig10_grid ~seed ctx.f_periods in
  let timed =
    timed_phase (fun () ->
        let deadline = now () +. seconds in
        let rec go i lats pts =
          (* stop only after a whole group of the four periods *)
          if (now () >= deadline && i mod 4 = 0) || i >= Array.length grid then
            (List.rev lats, pts)
          else
            let lat, p, _ = fig10_op ctx grid i in
            go (i + 1) (lat :: lats) (pts +. p)
        in
        let lats, pts = go 0 [] 0.0 in
        (lats, pts, "points"))
  in
  ([ setup_s ], timed)

(* ------------------------------------------------------------------ *)
(* library_build                                                       *)
(* ------------------------------------------------------------------ *)

type lib_ctx = {
  l_store : Store.t;
  mutable built : (int * string) list;  (** (k, md5), newest first *)
  mutable next_k : int;
}

let lib_request ctx ~seed ~op k ~miss =
  let req = Request.Statlib (base (lib_seed ~seed k)) in
  let t0 = now () in
  let r = exec ~store:ctx.l_store ~op req in
  let lat = (now () -. t0) *. 1000.0 in
  let what = Printf.sprintf "statlib k=%d %s" k (if miss then "miss" else "hit") in
  let ok = check_ok ~what r && r.Response.output <> "" in
  let d = md5 r.Response.output in
  let ok =
    ok
    &&
    if miss then begin
      ctx.built <- (k, d) :: ctx.built;
      digest_ok ~workload:"library_build" ~seed ~index:k r.Response.output
    end
    else List.assoc_opt k ctx.built = Some d
  in
  account ~what ok;
  (lat, req, r)

(* Fresh store, pool start, and the first library built (a miss) so the
   timed phase has a hit to serve from its first operation. *)
let lib_setup ~seed ~name =
  let ctx = { l_store = fresh_store name; built = []; next_k = 1 } in
  Pool.set_default_jobs jobs;
  ignore (lib_request ctx ~seed ~op:0 0 ~miss:true);
  ctx

(* Operation i: every fourth is a miss on a fresh seed, the three
   between are hits on the newest, second-newest and third-newest
   libraries.  Hits are three quarters of the requests, so the median
   stays inside the hit mode of the bimodal latency. *)
let lib_op ctx ~seed i =
  match i mod 4 with
  | 0 ->
    let k = ctx.next_k in
    ctx.next_k <- k + 1;
    lib_request ctx ~seed ~op:(i + 1) k ~miss:true
  | j ->
    let k = fst (List.nth ctx.built (min (j - 1) (List.length ctx.built - 1))) in
    lib_request ctx ~seed ~op:(i + 1) k ~miss:false

(* Set-up is cheap enough to repeat: the reported set-up time is the
   median of [setup_repeats], which keeps a sub-second set-up steady. *)
let setup_repeats = 5

let repeat_setup f =
  let rec go i times =
    let t0 = now () in
    let ctx = f i in
    let times = (now () -. t0) :: times in
    if i + 1 >= setup_repeats then (ctx, List.rev times) else go (i + 1) times
  in
  go 0 []

let lib_untraced ~seed ~seconds =
  let ctx, setup_times =
    repeat_setup (fun i -> lib_setup ~seed ~name:(Printf.sprintf "store%d" i))
  in
  let timed =
    timed_phase (fun () ->
        let deadline = now () +. seconds in
        let rec go i lats =
          (* stop only after a whole miss + three hits cycle *)
          if now () >= deadline && i mod 4 = 0 then List.rev lats
          else
            let lat, _, _ = lib_op ctx ~seed i in
            go (i + 1) (lat :: lats)
        in
        let lats = go 0 [] in
        (lats, float_of_int (List.length lats), "requests"))
  in
  (setup_times, timed)

(* ------------------------------------------------------------------ *)
(* serve_mix                                                           *)
(* ------------------------------------------------------------------ *)

type serve_ctx = {
  s_store : Store.t;
  handle : Serve.handle;
  clients : Client.t array;
  templates : Request.t array;
}

let serve_setup ~seed ~name =
  let store = fresh_store name in
  Pool.set_default_jobs jobs;
  (* the library the Tune requests read, landed in the store unprinted *)
  ignore
    (Spans.with_ ~op:0 "statlib.build" (fun () ->
         Statistical.build ~store Characterize.default_config ~mismatch:Mismatch.default ~seed
           ~n:samples ()));
  let socket = Filename.concat !run_dir (name ^ ".sock") in
  let handle =
    Serve.start
      { Serve.socket; store = Some store; backlog = 16; workers = conns; queue_cap = 64;
        max_conns = conns + 2 }
  in
  let clients = Array.init conns (fun _ -> Client.connect socket) in
  { s_store = store; handle; clients; templates = tune_templates (base seed) }

let serve_teardown ctx =
  Array.iter (fun c -> try Client.close c with _ -> ()) ctx.clients;
  Serve.stop ctx.handle

type reply = { tpl : int; rtt_ms : float; resp : Response.t option }

(* The connections move in lock step: all wait at this barrier before
   each step, and the last to arrive decides (with [more]) whether the
   step runs, for all of them. *)
type barrier = {
  m : Mutex.t;
  c : Condition.t;
  mutable waiting : int;
  mutable gen : int;
  mutable go : bool;
}

let barrier_wait b decide =
  Mutex.protect b.m (fun () ->
      let gen = b.gen in
      b.waiting <- b.waiting + 1;
      if b.waiting = conns then begin
        b.go <- decide ();
        b.waiting <- 0;
        b.gen <- gen + 1;
        Condition.broadcast b.c
      end
      else while b.gen = gen do Condition.wait b.c b.m done;
      b.go)

(* Both connections send the same template at each step, in closed
   loop, so every template is in flight twice at once and the pair
   coalesces in single-flight.  [more i] decides whether step [i] runs. *)
let serve_loop ctx ~more =
  let replies = Array.make conns [] in
  let b =
    { m = Mutex.create (); c = Condition.create (); waiting = 0; gen = 0; go = false }
  in
  let worker c =
    let rec go i =
      if barrier_wait b (fun () -> more i) then begin
        let tpl = i mod Array.length ctx.templates in
        let t0 = now () in
        let resp =
          Spans.with_ ~op:((c * 1_000_000) + i + 1) "serve.client.request" (fun () ->
              match
                Client.request ~priority:Request.Interactive ctx.clients.(c)
                  ctx.templates.(tpl)
              with
              | Ok r -> Some r
              | Error e ->
                fail_msg "conn %d: bad reply: %s" c e;
                None
              | exception e ->
                fail_msg "conn %d: lost reply: %s" c (Printexc.to_string e);
                None)
        in
        replies.(c) <- { tpl; rtt_ms = (now () -. t0) *. 1000.0; resp } :: replies.(c);
        go (i + 1)
      end
    in
    go 0
  in
  let threads = Array.init conns (fun c -> Thread.create worker c) in
  Array.iter Thread.join threads;
  List.concat_map List.rev (Array.to_list replies)

(* Served bytes must equal the in-process Run_request.exec bytes for the
   same request; checked after the timed phase so it costs no time. *)
let verify_replies ctx replies =
  let expected = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let ok =
        match r.resp with
        | None -> false
        | Some resp ->
          let want =
            match Hashtbl.find_opt expected r.tpl with
            | Some w -> w
            | None ->
              let w = Run_request.exec ~store:ctx.s_store ctx.templates.(r.tpl) in
              Hashtbl.replace expected r.tpl w;
              w
          in
          check_ok ~what:"served tune" resp
          && resp.Response.output = want.Response.output
          && resp.Response.recipes = want.Response.recipes
      in
      account ~what:(Printf.sprintf "served tune template %d" r.tpl) ok)
    replies

let serve_untraced ~seed ~seconds =
  let ctx, setup_times =
    repeat_setup (fun i ->
        let ctx = serve_setup ~seed ~name:(Printf.sprintf "serve%d" i) in
        if i + 1 < setup_repeats then serve_teardown ctx;
        ctx)
  in
  let replies = ref [] in
  let timed =
    timed_phase (fun () ->
        let deadline = now () +. seconds in
        (* stop only after a whole pass over the templates *)
        let cycle = Array.length ctx.templates in
        replies := serve_loop ctx ~more:(fun i -> now () < deadline || i mod cycle <> 0);
        let lats = List.map (fun r -> r.rtt_ms) !replies in
        (lats, float_of_int (List.length lats), "requests"))
  in
  verify_replies ctx !replies;
  serve_teardown ctx;
  (setup_times, timed)

(* ------------------------------------------------------------------ *)
(* Untraced mode: the end-to-end metrics                               *)
(* ------------------------------------------------------------------ *)

let e2e_metrics ~workload (setup_times, t) =
  let n = List.length t.lat_ms in
  let p90 =
    if n >= p90_min_samples then
      [ metric ~n "p90_ms" "ms" (quantile t.lat_ms 0.9) ~note:"exact, raw samples" ]
    else
      [ metric ~n "p90_ms" "ms" nan
          ~note:(Printf.sprintf "not reported: fewer than %d requests" p90_min_samples) ]
  in
  let throughput_name = if workload = "fig10_flow" then "points_per_s" else "rps" in
  let throughput = t.work /. t.wall_s in
  let gated =
    [
      metric ~n:(List.length setup_times) "setup_s" "s" (median setup_times)
        ~note:"median of the set-ups in this run";
      metric ~n "throughput_per_s" "1/s" throughput
        ~note:(Printf.sprintf "= %s: %s per second of the timed phase" throughput_name
                 t.work_unit);
      metric "peak_rss_mb" "MB" (peak_rss_mb ()) ~note:"VmHWM of this process";
    ]
  in
  let info =
    [
      metric ~n "wall_s" "s" t.wall_s ~note:"timed phase";
      metric ~n throughput_name "1/s" throughput;
      metric ~n "p50_ms" "ms" (median t.lat_ms) ~note:"exact median request latency";
    ]
    @ p90
    @ [
        metric ~n:!attempted "error_rate" "fraction"
          (float_of_int !failed /. float_of_int (max 1 !attempted))
          ~note:"failed / attempted operations";
        metric "cpu_s" "s" t.cpu_s ~note:"process user+sys during the timed phase";
        metric "host_steal" "fraction" t.steal ~note:"/proc/stat steal share, timed phase";
      ]
  in
  (gated, info)

(* ------------------------------------------------------------------ *)
(* Traced mode: the per-layer budget                                   *)
(* ------------------------------------------------------------------ *)

(* Counters a workload fixes: two traced passes must read them equal.
   Scheduling-dependent ones are only reported: pool.tasks_run (which
   domain picks a task up), and on serve_mix the store hits, which
   follow single-flight coalescing. *)
let fixed_counters = function
  | "fig10_flow" ->
    [ "sta.node_evals"; "sta.runs"; "sta.retimes"; "synth.runs"; "synth.cache.hits";
      "synth.cache.misses"; "sweep.points"; "kernel.bilinear_lookups"; "store.hit";
      "store.miss"; "store.write"; "store.read_bytes"; "store.write_bytes";
      "kernel.welford_update_entries"; "kernel.welford_merge_entries"; "charlib.cells" ]
  | "library_build" ->
    [ "kernel.welford_update_entries"; "kernel.welford_merge_entries"; "charlib.cells";
      "store.hit"; "store.miss"; "store.write"; "store.read_bytes"; "store.write_bytes" ]
  | _ -> []

(* Every counter the budget reports, fixed or not. *)
let reported_counters =
  [ "sta.node_evals"; "sta.runs"; "sta.retimes"; "synth.runs"; "synth.cache.hits";
    "synth.cache.misses"; "sweep.points"; "kernel.bilinear_lookups";
    "kernel.welford_update_entries"; "kernel.welford_merge_entries"; "charlib.cells";
    "store.hit"; "store.miss"; "store.write"; "store.read_bytes"; "store.write_bytes";
    "pool.tasks_run" ]

type pass = {
  p_wall_s : float;  (** whole pass: set-up plus the fixed operations *)
  p_ops_s : float;  (** the fixed operations only *)
  counters : (string * int) list;
  events : Obs.event list;
  obs_metrics : (string * Obs.metric_value) list;
}

(* Runs [f] with Obs and the benchmark's spans recording; [f] returns
   the seconds its fixed operations took, and a value for the probes. *)
let traced_pass f =
  Obs.reset ();
  Obs.set_enabled true;
  Spans.on := true;
  let t0 = now () in
  let ops_s, x =
    Fun.protect f ~finally:(fun () ->
        Obs.set_enabled false;
        Spans.on := false)
  in
  let wall = now () -. t0 in
  ( {
      p_wall_s = wall;
      p_ops_s = ops_s;
      counters = List.map (fun c -> (c, Obs.counter_value c)) reported_counters;
      events = Obs.events ();
      obs_metrics = Obs.metrics ();
    },
    x )

let time_ops f =
  let t0 = now () in
  let x = f () in
  (now () -. t0, x)

let events_named p name = List.filter (fun e -> e.Obs.name = name) p.events

(* Events of [name] not nested inside an [outer] event on the same domain. *)
let events_outside p name ~outer =
  let outers = events_named p outer in
  List.filter
    (fun e ->
      not
        (List.exists
           (fun o ->
             o.Obs.dom = e.Obs.dom && o.Obs.ts_us <= e.Obs.ts_us
             && e.Obs.ts_us +. e.Obs.dur_us <= o.Obs.ts_us +. o.Obs.dur_us)
           outers))
    (events_named p name)

let dur_ms e = e.Obs.dur_us /. 1000.0

(* Repeats a probe [n] times; returns the result of the last call, the
   median seconds and the median minor words allocated on the calling
   domain. *)
let probe n f =
  let rec go i acc =
    let t0 = now () and w0 = Gc.minor_words () in
    let r = f () in
    let acc = (now () -. t0, Gc.minor_words () -. w0) :: acc in
    if i + 1 >= n then (r, List.map fst acc, List.map snd acc) else go (i + 1) acc
  in
  let r, times, words = go 0 [] in
  (r, median times, median words)

(* Request/response codec on the workload's own lines: both directions
   of both messages per operation, checked to round-trip; each pair is
   timed [reps] times. *)
let codec_probe ~reps pairs =
  let one (req, resp) =
    let t0 = now () in
    let line = Request.to_line req in
    let back = Request.of_line line in
    let rline = Response.to_line resp in
    let rback = Response.of_line rline in
    let dt = now () -. t0 in
    let ok =
      (match back with Ok env -> env.Request.req = req | Error _ -> false)
      && match rback with Ok r -> r = resp | Error _ -> false
    in
    if not ok then account ~what:"codec round trip" false;
    dt *. 1e6
  in
  let times = List.concat_map (fun p -> List.init reps (fun _ -> one p)) pairs in
  (median times, List.length times)

(* Obs span label -> layer (module directory under lib/). *)
let layer_of_label l =
  let prefix p = String.starts_with ~prefix:p l in
  if l = "sta.design_sigma" then "stats"
  else if prefix "sta." then "sta"
  else if prefix "synth." then "synth"
  else if prefix "statlib." then "statlib"
  else if prefix "charlib." then "charlib"
  else if prefix "store." then "store"
  else if prefix "pool." then "util"
  else if prefix "mc." then "monte"
  else "flow"

let budget_layers =
  [ "util"; "charlib"; "statlib"; "liberty"; "tuning"; "synth"; "sta"; "stats"; "store";
    "flow"; "serve" ]

(* Seconds covered by top-level spans (their union) on each domain. *)
let covered_by_domain events =
  let by_dom = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let cur_end, acc =
        Option.value ~default:(neg_infinity, 0.0) (Hashtbl.find_opt by_dom e.Obs.dom)
      in
      let e_end = e.Obs.ts_us +. e.Obs.dur_us in
      if e.Obs.ts_us >= cur_end then
        Hashtbl.replace by_dom e.Obs.dom (e_end, acc +. e.Obs.dur_us)
      else if e_end > cur_end then
        Hashtbl.replace by_dom e.Obs.dom (e_end, acc +. (e_end -. cur_end)))
    (List.sort
       (fun a b -> compare (a.Obs.dom, a.Obs.ts_us) (b.Obs.dom, b.Obs.ts_us))
       events);
  Hashtbl.fold (fun d (_, acc) l -> (d, acc /. 1e6) :: l) by_dom []

type budget = {
  self_s : (string * float) list;  (** per layer of [budget_layers] *)
  unattributed_s : float;
  idle_s : float;  (** pool domains with no span open *)
  capacity_s : float;  (** the shares' denominator *)
}

(* Batch workloads run one thread per domain, so the Obs span tree of
   each domain track is exact: self time per layer, summed over
   domains, out of wall x jobs.  [moved] (layer, seconds) carries the
   span-less layers (printer, restriction extraction) out of flow's self
   time, where they run: probe time x calls. *)
let batch_budget p ~moved =
  let prof = Profile.of_events p.events in
  let self = Hashtbl.create 16 in
  let get l = Option.value ~default:0.0 (Hashtbl.find_opt self l) in
  let add l s = Hashtbl.replace self l (get l +. s) in
  List.iter
    (fun r -> add (layer_of_label r.Profile.r_label) (r.Profile.r_self_us /. 1e6))
    prof.Profile.rows;
  List.iter
    (fun (l, s) ->
      let s = Float.min s (get "flow") in
      add "flow" (-.s);
      add l s)
    moved;
  let covered = covered_by_domain p.events in
  let main = (Domain.self () :> int) in
  let cov_main = Option.value ~default:0.0 (List.assoc_opt main covered) in
  let cov_all = List.fold_left (fun a (_, c) -> a +. c) 0.0 covered in
  let attributed = Hashtbl.fold (fun _ s a -> a +. s) self 0.0 in
  let capacity = p.p_wall_s *. float_of_int jobs in
  let outside_main = Float.max 0.0 (p.p_wall_s -. cov_main) in
  {
    self_s = List.map (fun l -> (l, get l)) budget_layers;
    unattributed_s = outside_main +. Float.max 0.0 (cov_all -. attributed);
    idle_s = Float.max 0.0 (capacity -. cov_all -. outside_main);
    capacity_s = capacity;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

(* (name, unit, the end-to-end metric it should move). *)
let per_layer_spec =
  [
    ("synth.min_period_s", "s", "setup_s on fig10_flow (the wall_s of its cold flow)");
    ("synth.run_ms", "ms", "points_per_s on fig10_flow");
    ("synth.run.alloc_mw", "Mw", "points_per_s on fig10_flow");
    ("sta.run_ms", "ms", "setup_s and points_per_s on fig10_flow");
    ("stats.design_sigma_ms", "ms", "points_per_s on fig10_flow");
    ("tuning.restrictions_ms", "ms", "p50_ms on serve_mix, points_per_s on fig10_flow");
    ("tuning.restrictions.alloc_mw", "Mw", "p50_ms on serve_mix");
    ("statlib.build_s", "s", "rps on library_build");
    ("statlib.build.alloc_mw", "Mw", "rps on library_build");
    ("liberty.print_ms", "ms", "rps on library_build");
    ("liberty.print.alloc_mw", "Mw", "rps on library_build");
    ("store.load_ms", "ms", "rps on library_build (hits)");
    ("store.save_ms", "ms", "points_per_s on fig10_flow");
    ("flow.exec_ms", "ms", "throughput everywhere");
    ("flow.codec_us", "us", "p50_ms on serve_mix");
    ("serve.overhead_ms", "ms", "p50_ms and p90_ms on serve_mix");
  ]
  @ List.map
      (fun c ->
        let moves =
          match c with
          | "kernel.welford_update_entries" | "kernel.welford_merge_entries" | "charlib.cells" ->
            "rps on library_build"
          | "pool.tasks_run" -> "throughput on fig10_flow and library_build"
          | c when String.length c > 6 && String.sub c 0 6 = "store." ->
            "rps on library_build, points_per_s on fig10_flow"
          | _ -> "setup_s and points_per_s on fig10_flow"
        in
        (c, (if String.ends_with ~suffix:"bytes" c then "bytes" else "count"), moves))
      reported_counters
  @ [
      ("sta.evals_per_run", "evals/run", "points_per_s on fig10_flow");
      ("pool.busy_frac", "fraction", "points_per_s on fig10_flow");
      ("store.hit_ratio", "fraction", "rps on library_build");
      ("serve.dedup_ratio", "fraction", "rps on serve_mix");
      ("serve.queue_wait_ms", "ms", "p90_ms on serve_mix");
    ]
  @ List.concat_map
      (fun l ->
        [
          ("layer." ^ l ^ ".self_s", "s", "its workload's throughput");
          ("layer." ^ l ^ ".share", "fraction", "its workload's throughput");
        ])
      budget_layers
  @ [
      ("layer.unattributed.share", "fraction", "-");
      ("layer.idle.share", "fraction", "-");
      ("trace.overhead_s", "s", "- (traced minus untraced wall_s of the fixed operations)");
      ("trace.traced_ops_s", "s", "- (the fixed operations, traced)");
      ("trace.untraced_ops_s", "s", "- (the fixed operations, untraced)");
    ]

(* Builds the per-layer table in [per_layer_spec] order from the values a
   workload measured; a layer that does not run on it reads 0. *)
let per_layer_metrics measured =
  List.map
    (fun (name, unit_, moves) ->
      match List.assoc_opt name measured with
      | Some (v, n) when Float.is_finite v -> metric ~n name unit_ v ~note:("-> " ^ moves)
      | _ -> metric ~n:0 name unit_ 0.0 ~note:"not run by this workload")
    per_layer_spec

let counter_values p = List.map (fun (c, v) -> (c, (float_of_int v, 1))) p.counters

let ratio_metrics p =
  let c name = float_of_int (List.assoc name p.counters) in
  let busy =
    List.fold_left
      (fun a (name, v) ->
        match v with
        | Obs.Stats s
          when String.starts_with ~prefix:"pool.worker." name
               && String.ends_with ~suffix:".busy_s" name ->
          a +. s.Obs.sum
        | _ -> a)
      0.0 p.obs_metrics
  in
  let hits = c "store.hit" and misses = c "store.miss" in
  [
    ("sta.evals_per_run", (c "sta.node_evals" /. c "sta.runs", int_of_float (c "sta.runs")));
    ("pool.busy_frac", (busy /. (float_of_int jobs *. p.p_wall_s), jobs));
    ("store.hit_ratio", (hits /. (hits +. misses), int_of_float (hits +. misses)));
  ]

let budget_metrics b =
  List.concat_map
    (fun (l, s) ->
      [ ("layer." ^ l ^ ".self_s", (s, 1)); ("layer." ^ l ^ ".share", (s /. b.capacity_s, 1)) ])
    b.self_s
  @ [
      ("layer.unattributed.share", (b.unattributed_s /. b.capacity_s, 1));
      ("layer.idle.share", (b.idle_s /. b.capacity_s, 1));
    ]

let span_median p name =
  let es = events_named p name in
  (median (List.map dur_ms es), List.length es)

(* The fixed counters of two traced passes must be equal. *)
let check_determinism ~workload p1 p2 =
  List.iter
    (fun c ->
      let a = List.assoc c p1.counters and b = List.assoc c p2.counters in
      account ~what:(Printf.sprintf "determinism %s: %d vs %d" c a b) (a = b))
    (fixed_counters workload)

let restriction_line out =
  List.find_opt
    (fun l -> String.starts_with ~prefix:"LUT-entry removal" l)
    (String.split_on_char '\n' out)

(* Restriction extraction from outside, checked against the removal
   line the flow printed for the same library and method. *)
let restrictions_probe lib tuning ~expected_out =
  let table, secs, words = probe 3 (fun () -> Tuning_method.restrictions tuning lib) in
  let line =
    "LUT-entry removal across the library: "
    ^ Report.pct (Restrict.restriction_fraction table lib)
  in
  account ~what:"restrictions probe" (restriction_line expected_out = Some line);
  (secs, words)

let ms_of_s (s, n) = (s *. 1000.0, n)
let mw w = w /. 1e6

(* fig10_flow traced: two cold passes (min-period and the first grid
   point), the same point untraced on a snapshot of the first pass's
   post-set-up store, then probes on the first pass's store. *)
let fig10_traced ~seed =
  let snap = Filename.concat !run_dir "snap" in
  let run_pass name ~snapshot =
    traced_pass (fun () ->
        let ctx = fig10_setup ~name in
        if snapshot then copy_tree (Store.dir ctx.f_store) snap;
        let grid = fig10_grid ~seed ctx.f_periods in
        let secs, (_, _, r) = time_ops (fun () -> fig10_op ctx grid 0) in
        (secs, (ctx, grid, r)))
  in
  let p1, (ctx, grid, sweep_resp) = run_pass "t1" ~snapshot:true in
  let p2, _ = run_pass "t2" ~snapshot:false in
  check_determinism ~workload:"fig10_flow" p1 p2;
  let u_s, _ =
    time_ops (fun () -> fig10_op { ctx with f_store = Store.open_dir snap } grid 0)
  in
  let req = Request.Min_period paper_base in
  let setup = Experiment.prepare_request ~store:ctx.f_store req in
  let high = List.assoc "high" setup.Experiment.periods in
  let run = Experiment.baseline setup ~period:high in
  let res = run.Experiment.result in
  let timing, sta_s, _ =
    probe 5 (fun () -> Timing.run (Timing.config res.Synthesis.timing) res.Synthesis.netlist)
  in
  account ~what:"sta probe" (Timing.worst_slack timing = res.Synthesis.worst_slack);
  let ds, ds_s, _ =
    probe 5 (fun () ->
        Design_sigma.of_paths (Path.worst_per_endpoint res.Synthesis.timing res.Synthesis.netlist))
  in
  let sigma (d : Design_sigma.t) = d.Design_sigma.dist.Vartune_stats.Dist.sigma in
  account ~what:"design sigma probe" (sigma ds = sigma run.Experiment.design_sigma);
  let _, (_, _, tm, params) = grid.(0) in
  let tuning = Tuning_method.with_parameter tm (List.hd params) in
  let tune = Run_request.exec ~store:ctx.f_store (Request.Tune { base = paper_base; tuning }) in
  let r_s, r_w = restrictions_probe setup.Experiment.statlib tuning ~expected_out:tune.Response.output in
  let codec_us, codec_n =
    codec_probe ~reps:50 [ (req, ctx.f_min); (sweep_request (snd grid.(0)), sweep_resp) ]
  in
  let synth_runs = events_outside p1 "synth.run" ~outer:"synth.min_period" in
  let min_periods = events_named p1 "synth.min_period" in
  let tuned_points = float_of_int (List.assoc "sweep.points" p1.counters) in
  let b = batch_budget p1 ~moved:[ ("tuning", r_s *. tuned_points) ] in
  let exec = Spans.durations "flow.exec:sweep" in
  [
    ("synth.min_period_s", (sum (List.map dur_ms min_periods) /. 1000.0, List.length min_periods));
    ("synth.run_ms", (median (List.map dur_ms synth_runs), List.length synth_runs));
    ( "synth.run.alloc_mw",
      (mw (median (List.map (fun e -> e.Obs.gc.Obs.minor_words) synth_runs)),
       List.length synth_runs) );
    ("sta.run_ms", ms_of_s (sta_s, 5));
    ("stats.design_sigma_ms", ms_of_s (ds_s, 5));
    ("tuning.restrictions_ms", ms_of_s (r_s, 3));
    ("tuning.restrictions.alloc_mw", (mw r_w, 3));
    ("store.load_ms", span_median p1 "store.load");
    ("store.save_ms", span_median p1 "store.save");
    ("flow.exec_ms", ms_of_s (median exec, List.length exec));
    ("flow.codec_us", (codec_us, codec_n));
    ("trace.overhead_s", (p1.p_ops_s -. u_s, 1));
    ("trace.traced_ops_s", (p1.p_ops_s, 1));
    ("trace.untraced_ops_s", (u_s, 1));
  ]
  @ counter_values p1 @ ratio_metrics p1 @ budget_metrics b

(* library_build traced: two passes of set-up plus eight operations (two
   misses, six hits), the eight untraced on a snapshot of the first
   pass's post-set-up store, then a statlib build and print from outside. *)
let lib_fixed_ops = 8

let lib_traced ~seed =
  let snap = Filename.concat !run_dir "snap" in
  let run_pass name ~snapshot =
    traced_pass (fun () ->
        let ctx = lib_setup ~seed ~name in
        if snapshot then copy_tree (Store.dir ctx.l_store) snap;
        let built0 = ctx.built in
        let secs, pairs =
          time_ops (fun () ->
              List.init lib_fixed_ops (fun i ->
                  let _, req, r = lib_op ctx ~seed i in
                  (req, r)))
        in
        (secs, (built0, pairs)))
  in
  let p1, (built0, pairs) = run_pass "t1" ~snapshot:true in
  let p2, _ = run_pass "t2" ~snapshot:false in
  check_determinism ~workload:"library_build" p1 p2;
  let u_ctx = { l_store = Store.open_dir snap; built = built0; next_k = 1 } in
  let u_s, () =
    time_ops (fun () -> for i = 0 to lib_fixed_ops - 1 do ignore (lib_op u_ctx ~seed i) done)
  in
  let lib, build_s, build_w =
    probe 1 (fun () ->
        Statistical.build Characterize.default_config ~mismatch:Mismatch.default
          ~seed:(lib_seed ~seed 0) ~n:samples ())
  in
  let text, print_s, print_w = probe 2 (fun () -> Printer.to_string lib) in
  account ~what:"statlib build + print probe" (Some (md5 text) = List.assoc_opt 0 built0);
  let codec_us, codec_n = codec_probe ~reps:1 pairs in
  let prints = float_of_int (lib_fixed_ops + 1) in
  let b = batch_budget p1 ~moved:[ ("liberty", print_s *. prints) ] in
  let exec = Spans.durations "flow.exec:statlib" in
  [
    ("statlib.build_s", (build_s, 1));
    ("statlib.build.alloc_mw", (mw build_w, 1));
    ("liberty.print_ms", ms_of_s (print_s, 2));
    ("liberty.print.alloc_mw", (mw print_w, 2));
    ("store.load_ms", span_median p1 "store.load");
    ("store.save_ms", span_median p1 "store.save");
    ("flow.exec_ms", ms_of_s (median exec, List.length exec));
    ("flow.codec_us", (codec_us, codec_n));
    ("trace.overhead_s", (p1.p_ops_s -. u_s, 1));
    ("trace.traced_ops_s", (p1.p_ops_s, 1));
    ("trace.untraced_ops_s", (u_s, 1));
  ]
  @ counter_values p1 @ ratio_metrics p1 @ budget_metrics b

(* serve_mix traced: one daemon; two traced passes and one untraced pass
   of 60 requests per connection.  Tune requests only read the store, so
   the passes see the same state.  The budget is the clients' view: each
   round trip splits into daemon overhead and execution time, and
   execution into restriction extraction, store load and the rest. *)
let serve_per_conn = 60

let serve_traced ~seed =
  let ctx = serve_setup ~seed ~name:"serve" in
  let loop () = serve_loop ctx ~more:(fun i -> i < serve_per_conn) in
  let p1, replies1 = traced_pass (fun () -> time_ops loop) in
  let p2, replies2 = traced_pass (fun () -> time_ops loop) in
  let u_s, replies_u = time_ops loop in
  verify_replies ctx (replies1 @ replies2 @ replies_u);
  let expected_n = conns * serve_per_conn in
  account ~what:"serve replies per pass"
    (List.length replies1 = expected_n && List.length replies2 = expected_n);
  check_determinism ~workload:"serve_mix" p1 p2;
  let served = List.filter_map (fun r -> Option.map (fun resp -> (r, resp)) r.resp) replies1 in
  let n = List.length served in
  let lib =
    Statistical.build ~store:ctx.s_store Characterize.default_config
      ~mismatch:Mismatch.default ~seed ~n:samples ()
  in
  let tpl0 = List.find (fun (r, _) -> r.tpl = 0) served in
  let tuning =
    match ctx.templates.(0) with Request.Tune { tuning; _ } -> tuning | _ -> assert false
  in
  let r_s, r_w = restrictions_probe lib tuning ~expected_out:(snd tpl0).Response.output in
  let codec_us, codec_n =
    codec_probe ~reps:1 (List.map (fun (r, resp) -> (ctx.templates.(r.tpl), resp)) served)
  in
  let overhead = List.map (fun (r, resp) -> r.rtt_ms -. (resp.Response.elapsed_s *. 1000.0)) served in
  let dedup = List.length (List.filter (fun (_, resp) -> resp.Response.dedup) served) in
  let queue_wait =
    match List.assoc_opt "serve.queue_wait_ms" p1.obs_metrics with
    | Some (Obs.Stats s) when s.Obs.count > 0 -> (s.Obs.sum /. float_of_int s.Obs.count, s.Obs.count)
    | _ -> (nan, 0)
  in
  let load_ms, load_n = span_median p1 "store.load" in
  let client_s = sum (List.map (fun (r, _) -> r.rtt_ms /. 1000.0) served) in
  let exec_s = sum (List.map (fun (_, resp) -> resp.Response.elapsed_s) served) in
  let fn = float_of_int n in
  let tuning_s = Float.min exec_s (r_s *. fn) in
  let store_s = Float.min (exec_s -. tuning_s) (load_ms /. 1000.0 *. fn) in
  let codec_s = codec_us /. 1e6 *. fn in
  let serve_s = Float.max 0.0 (client_s -. exec_s -. codec_s) in
  let capacity = p1.p_ops_s *. float_of_int conns in
  let b =
    {
      self_s =
        List.map
          (fun l ->
            ( l,
              match l with
              | "serve" -> serve_s
              | "tuning" -> tuning_s
              | "store" -> store_s
              | "flow" -> exec_s -. tuning_s -. store_s +. Float.min codec_s (client_s -. exec_s)
              | _ -> 0.0 ))
          budget_layers;
      unattributed_s = Float.max 0.0 (capacity -. client_s);
      idle_s = 0.0;
      capacity_s = capacity;
    }
  in
  let exec = List.map dur_ms (events_named p1 "request.exec") in
  serve_teardown ctx;
  [
    ("tuning.restrictions_ms", ms_of_s (r_s, 3));
    ("tuning.restrictions.alloc_mw", (mw r_w, 3));
    ("store.load_ms", (load_ms, load_n));
    ("flow.exec_ms", (median exec, List.length exec));
    ("flow.codec_us", (codec_us, codec_n));
    ("serve.overhead_ms", (median overhead, n));
    ("serve.dedup_ratio", (float_of_int dedup /. fn, n));
    ("serve.queue_wait_ms", queue_wait);
    ("trace.overhead_s", (p1.p_ops_s -. u_s, 1));
    ("trace.traced_ops_s", (p1.p_ops_s, 1));
    ("trace.untraced_ops_s", (u_s, 1));
  ]
  @ counter_values p1 @ ratio_metrics p1 @ budget_metrics b

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let workloads = [ "fig10_flow"; "library_build"; "serve_mix" ]

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 and trace = ref 0 in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1: the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (not (List.mem !workload workloads)) || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  load_digests ();
  run_dir := Filename.concat ".perfbench" (Printf.sprintf "%s-%d" !workload (Unix.getpid ()));
  rm_rf !run_dir;
  mkdir_p !run_dir;
  (* Nothing may fall back to the user's default store. *)
  Unix.putenv "VARTUNE_STORE" (Filename.concat !run_dir "default-store");
  Unix.putenv "XDG_CACHE_HOME" (Filename.concat !run_dir "xdg");
  at_exit (fun () -> rm_rf !run_dir);
  let seed = !seed and seconds = !seconds and workload = !workload in
  Printf.printf
    "perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d jobs=%d conns=%d samples=%d \
     ocaml=%s\n%!"
    workload seed seconds !trace (Domain.recommended_domain_count ()) jobs conns samples
    Sys.ocaml_version;
  if !trace = 0 then begin
    let run =
      match workload with
      | "fig10_flow" -> fig10_untraced ~seed ~seconds
      | "library_build" -> lib_untraced ~seed ~seconds
      | _ -> serve_untraced ~seed ~seconds
    in
    let gated, info = e2e_metrics ~workload run in
    print_table "end-to-end (gated):" gated;
    print_table "end-to-end (reported):" info;
    Printf.printf "committed digests checked: %d\n" !digests_checked;
    print_result ~correct:(!failed = 0) gated
  end
  else begin
    let measured =
      match workload with
      | "fig10_flow" -> fig10_traced ~seed
      | "library_build" -> lib_traced ~seed
      | _ -> serve_traced ~seed
    in
    let ms = per_layer_metrics measured in
    print_table "per-layer (traced run):" ms;
    let traces = Filename.concat ".perfbench" "traces" in
    mkdir_p traces;
    let path = Filename.concat traces (Printf.sprintf "%s-seed%d.json" workload seed) in
    Spans.write path;
    Printf.printf "benchmark spans: %s\ncommitted digests checked: %d\n" path !digests_checked;
    print_result ~correct:(!failed = 0) ms
  end
