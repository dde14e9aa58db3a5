module Store = Vartune_store.Store
module Codec = Vartune_store.Codec
module Fault = Vartune_fault.Fault
module Obs = Vartune_obs.Obs

let src = Logs.Src.create "vartune.journal" ~doc:"run journal"

module Log = (val Logs.src_log src : Logs.LOG)

(* Version 2 added a wall-clock timestamp to every record (the report's
   journal timeline and ETA); version 3 replaced run-started's loose
   parameter fields with the run's canonical request line.  Older
   journals are refused cleanly. *)
let version = 3
let magic = "VTJRNL01"

exception Corrupt of string
exception Interrupted of string

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Vartune_journal.Journal.Corrupt(%s)" msg)
    | Interrupted msg -> Some (Printf.sprintf "Vartune_journal.Journal.Interrupted(%s)" msg)
    | _ -> None)

let c_appends = Obs.Counter.make "journal.appends"
let c_checkpoints = Obs.Counter.make "journal.checkpoints"
let c_replayed = Obs.Counter.make "journal.replayed_steps"

(* ------------------------------------------------------------------ *)
(* Steps                                                               *)
(* ------------------------------------------------------------------ *)

type step =
  | Run_started of { request : string; output : string option }
  | Block_done of { statlib : string; lo : int; hi : int }
  | Checkpoint of { statlib : string; blocks : int; samples_done : int; key : string }
  | Statlib_built of { key : string }
  | Min_period of { key : string; period : float }
  | Synthesis_done of { key : string; label : string; period : float }
  | Sweep_done of { tuning : string; period : float; points : int }
  | Resumed of { replayed : int }
  | Sealed of { reason : string }

let step_to_string = function
  | Run_started { request; output } ->
    Printf.sprintf "run-started request=%s%s" request
      (match output with None -> "" | Some o -> " output=" ^ o)
  | Block_done { statlib = _; lo; hi } -> Printf.sprintf "block-done lo=%d hi=%d" lo hi
  | Checkpoint { statlib = _; blocks; samples_done; key = _ } ->
    Printf.sprintf "checkpoint blocks=%d samples=%d" blocks samples_done
  | Statlib_built _ -> "statlib-built"
  | Min_period { key = _; period } -> Printf.sprintf "min-period %.17g" period
  | Synthesis_done { key = _; label; period } ->
    Printf.sprintf "synthesis-done label=%s period=%.17g" label period
  | Sweep_done { tuning; period; points } ->
    Printf.sprintf "sweep-done tuning=%s period=%.17g points=%d" tuning period points
  | Resumed { replayed } -> Printf.sprintf "resumed replayed=%d" replayed
  | Sealed { reason } -> Printf.sprintf "sealed reason=%s" reason

let w_opt_string b = function
  | None -> Codec.w_bool b false
  | Some v ->
    Codec.w_bool b true;
    Codec.w_string b v

let r_opt_string r = if Codec.r_bool r then Some (Codec.r_string r) else None

let encode_step step =
  let b = Buffer.create 128 in
  (match step with
  | Run_started { request; output } ->
    Codec.w_int b 0;
    Codec.w_string b request;
    w_opt_string b output
  | Block_done { statlib; lo; hi } ->
    Codec.w_int b 1;
    Codec.w_string b statlib;
    Codec.w_int b lo;
    Codec.w_int b hi
  | Checkpoint { statlib; blocks; samples_done; key } ->
    Codec.w_int b 2;
    Codec.w_string b statlib;
    Codec.w_int b blocks;
    Codec.w_int b samples_done;
    Codec.w_string b key
  | Statlib_built { key } ->
    Codec.w_int b 3;
    Codec.w_string b key
  | Min_period { key; period } ->
    Codec.w_int b 4;
    Codec.w_string b key;
    Codec.w_float b period
  | Synthesis_done { key; label; period } ->
    Codec.w_int b 5;
    Codec.w_string b key;
    Codec.w_string b label;
    Codec.w_float b period
  | Sweep_done { tuning; period; points } ->
    Codec.w_int b 6;
    Codec.w_string b tuning;
    Codec.w_float b period;
    Codec.w_int b points
  | Resumed { replayed } ->
    Codec.w_int b 7;
    Codec.w_int b replayed
  | Sealed { reason } ->
    Codec.w_int b 8;
    Codec.w_string b reason);
  Buffer.contents b

let decode_step r =
  match Codec.r_int r with
  | 0 ->
    let request = Codec.r_string r in
    let output = r_opt_string r in
    Run_started { request; output }
  | 1 ->
    let statlib = Codec.r_string r in
    let lo = Codec.r_int r in
    let hi = Codec.r_int r in
    Block_done { statlib; lo; hi }
  | 2 ->
    let statlib = Codec.r_string r in
    let blocks = Codec.r_int r in
    let samples_done = Codec.r_int r in
    let key = Codec.r_string r in
    Checkpoint { statlib; blocks; samples_done; key }
  | 3 -> Statlib_built { key = Codec.r_string r }
  | 4 ->
    let key = Codec.r_string r in
    let period = Codec.r_float r in
    Min_period { key; period }
  | 5 ->
    let key = Codec.r_string r in
    let label = Codec.r_string r in
    let period = Codec.r_float r in
    Synthesis_done { key; label; period }
  | 6 ->
    let tuning = Codec.r_string r in
    let period = Codec.r_float r in
    let points = Codec.r_int r in
    Sweep_done { tuning; period; points }
  | 7 -> Resumed { replayed = Codec.r_int r }
  | 8 -> Sealed { reason = Codec.r_string r }
  | tag -> raise (Corrupt (Printf.sprintf "unknown step tag %d" tag))

(* 62-bit FNV-1a digest: truncated so the value survives the codec's
   int64 <-> OCaml-int round trip exactly on 63-bit systems. *)
let checksum s =
  Int64.to_int (Int64.shift_right_logical (Store.Key.fnv1a64 0xcbf29ce484222325L s) 2)

(* ------------------------------------------------------------------ *)
(* Journal files                                                       *)
(* ------------------------------------------------------------------ *)

type t = {
  path : string;
  mutable fd : Unix.file_descr option;
  lock : Mutex.t;
  mutable is_degraded : bool;
}

let header () =
  let b = Buffer.create 24 in
  Buffer.add_string b magic;
  Codec.w_int b version;
  Codec.w_int b Codec.version;
  Buffer.contents b

let write_fully fd s =
  let len = String.length s in
  let rec go off =
    if off < len then begin
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
    end
  in
  go 0

let create path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_fully fd (header ());
  Unix.fsync fd;
  { path; fd = Some fd; lock = Mutex.create (); is_degraded = false }

let open_append path =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  { path; fd = Some fd; lock = Mutex.create (); is_degraded = false }

let degraded t = Mutex.protect t.lock (fun () -> t.is_degraded)

let degrade_locked t reason =
  Log.warn (fun m ->
      m "journal %s disabled (%s): the run continues correctly but may not be resumable"
        t.path reason);
  (match t.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.fd <- None;
  t.is_degraded <- true

let append t step =
  Mutex.protect t.lock (fun () ->
      match t.fd with
      | None -> ()
      | Some fd -> (
        try
          Fault.check Fault.Write ~site:"journal.append.write";
          (* Wall-clock ns since the epoch fits OCaml's 63-bit int; the
             timestamp rides inside the checksummed payload so a
             bit-flipped time is caught like any other damage. *)
          let payload =
            let b = Buffer.create 136 in
            Codec.w_int b (Int64.to_int (Obs.wall_ns ()));
            Buffer.add_string b (encode_step step);
            Buffer.contents b
          in
          let b = Buffer.create (String.length payload + 16) in
          Codec.w_int b (checksum payload);
          Codec.w_string b payload;
          let bytes = Buffer.contents b in
          (* An injected partial write lands a truncated record and then
             degrades — exactly what a crash mid-append leaves behind, so
             replay's corruption detection is exercised end to end. *)
          if Fault.fires Fault.Partial_write ~site:"journal.append.write" then begin
            write_fully fd (String.sub bytes 0 (String.length bytes / 2));
            (try Unix.fsync fd with Unix.Unix_error _ -> ());
            degrade_locked t "partial append"
          end
          else begin
            write_fully fd bytes;
            Fault.check Fault.Fsync ~site:"journal.append.fsync";
            Unix.fsync fd;
            Obs.Counter.incr c_appends
          end
        with
        | Unix.Unix_error (err, _, _) -> degrade_locked t (Unix.error_message err)
        | Sys_error reason -> degrade_locked t reason
        | Fault.Injected { point; _ } ->
          degrade_locked t
            (Printf.sprintf "injected %s fault" (Fault.point_to_string point))))

let close t =
  Mutex.protect t.lock (fun () ->
      match t.fd with
      | None -> ()
      | Some fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        t.fd <- None)

let seal t ~reason =
  append t (Sealed { reason });
  close t

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type timed = { at_ns : int64; step : step }

let replay_timed path =
  Fault.check Fault.Read ~site:"journal.replay.read";
  let contents = read_file path in
  let hlen = String.length (header ()) in
  if String.length contents < hlen then raise (Corrupt "truncated header");
  if String.sub contents 0 (String.length magic) <> magic then
    raise (Corrupt "bad magic: not a vartune journal");
  let steps =
    try
      let hdr = Codec.reader (String.sub contents (String.length magic) (hlen - String.length magic)) in
      let jver = Codec.r_int hdr in
      if jver <> version then
        raise (Corrupt (Printf.sprintf "journal version %d (supported: %d)" jver version));
      let cver = Codec.r_int hdr in
      if cver <> Codec.version then
        raise
          (Corrupt
             (Printf.sprintf
                "recorded under codec version %d but this build uses %d — cannot resume"
                cver Codec.version));
      let body = Codec.reader (String.sub contents hlen (String.length contents - hlen)) in
      let steps = ref [] in
      while not (Codec.at_end body) do
        let sum = Codec.r_int body in
        let payload = Codec.r_string body in
        if checksum payload <> sum then
          raise (Corrupt (Printf.sprintf "record %d failed its checksum" (List.length !steps)));
        let sr = Codec.reader payload in
        let at_ns = Int64.of_int (Codec.r_int sr) in
        let step = decode_step sr in
        if not (Codec.at_end sr) then
          raise (Corrupt (Printf.sprintf "record %d has trailing bytes" (List.length !steps)));
        steps := { at_ns; step } :: !steps
      done;
      List.rev !steps
    with Codec.Corrupt reason -> raise (Corrupt ("truncated or corrupt record: " ^ reason))
  in
  Obs.Counter.add c_replayed (List.length steps);
  steps

let replay path = List.map (fun t -> t.step) (replay_timed path)

(* ------------------------------------------------------------------ *)
(* Checkpoint context                                                  *)
(* ------------------------------------------------------------------ *)

type ctx = {
  journal : t;
  state : Store.t;
  stop : bool Atomic.t;
  every_blocks : int;
  replayed : step list;
  stop_after_blocks : int option;
  blocks_recorded : int Atomic.t;
}

let env_positive_int name ~default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v when String.trim v = "" -> default
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some n when n >= 1 -> n
    | Some _ | None ->
      invalid_arg (Printf.sprintf "%s=%S: expected a positive integer" name v))

let env_stop_after () =
  match Sys.getenv_opt "VARTUNE_STOP_AFTER_BLOCKS" with
  | None -> None
  | Some v when String.trim v = "" -> None
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some n when n >= 1 -> Some n
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf "VARTUNE_STOP_AFTER_BLOCKS=%S: expected a positive integer" v))

let make_ctx ~journal ~state ?(replayed = []) ?every_blocks () =
  let every_blocks =
    match every_blocks with
    | Some k when k >= 1 -> k
    | Some k -> invalid_arg (Printf.sprintf "Journal.make_ctx: every_blocks %d must be >= 1" k)
    | None -> env_positive_int "VARTUNE_CKPT_BLOCKS" ~default:4
  in
  {
    journal;
    state;
    stop = Atomic.make false;
    every_blocks;
    replayed;
    stop_after_blocks = env_stop_after ();
    blocks_recorded = Atomic.make 0;
  }

let request_stop ctx = Atomic.set ctx.stop true
let stop_requested ctx = Atomic.get ctx.stop

let check_stop ctx =
  if Atomic.get ctx.stop then
    raise (Interrupted "stop requested at a stage boundary; progress so far is journaled")

let record ctx step =
  append ctx.journal step;
  (match step with
  | Block_done _ -> (
    let n = Atomic.fetch_and_add ctx.blocks_recorded 1 + 1 in
    match ctx.stop_after_blocks with
    | Some limit when n >= limit && not (stop_requested ctx) ->
      Log.info (fun m -> m "VARTUNE_STOP_AFTER_BLOCKS=%d reached: requesting stop" limit);
      request_stop ctx
    | _ -> ())
  | Checkpoint _ -> Obs.Counter.incr c_checkpoints
  | _ -> ())

let checkpoints_for ctx ~statlib =
  List.fold_left
    (fun acc step ->
      match step with
      | Checkpoint { statlib = id; blocks; samples_done; key = _ } when id = statlib ->
        (blocks, samples_done) :: acc
      | _ -> acc)
    [] ctx.replayed

(* Probe order of every cached artifact: the shared store first, then
   the run's private state store.  Artifacts land in both, so a resume
   finds them even when the shared store is disabled or wiped. *)
let fetch ~kind ?scope ?store ctx key decode encode ~step compute =
  let tiers = Option.to_list store @ Option.to_list (Option.map (fun c -> c.state) ctx) in
  let v, hit = Store.fetch ~kind ?scope tiers key decode encode compute in
  Option.iter (fun c -> record c (step v)) ctx;
  (v, hit)
