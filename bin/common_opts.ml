(* Shared cmdliner terms for every vartune subcommand.

   One [term] carries the flags every pipeline stage understands —
   logging, worker pool, telemetry, randomness, fault injection, and
   the persistent artifact store — so a new common flag added here
   appears on all subcommands at once.  Precedence everywhere:
   command-line flag > environment variable > built-in default. *)

open Cmdliner
module Obs = Vartune_obs.Obs
module Pool = Vartune_util.Pool
module Store = Vartune_store.Store
module Fault = Vartune_fault.Fault
module Experiment = Vartune_flow.Experiment
module Request = Vartune_flow.Request
module Response = Vartune_flow.Response

let src = Logs.Src.create "vartune.cli" ~doc:"vartune command line"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  verbose : bool;
  jobs : int option;
  trace : string option;
  metrics_out : string option;
  seed : int;
  samples : int;
  store_dir : string option;
  no_store : bool;
  faults : string option;
}

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

(* A worker pool of zero or negative size has no meaning; reject it at
   parse time with a usage error instead of letting Pool.create raise
   Invalid_argument deep in the run. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "expected a positive integer, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker-pool size for the parallel stages (default: $(b,VARTUNE_JOBS), else the \
           recommended domain count; 1 forces serial execution; 0 or negative values are \
           rejected). Output is bit-identical at any value.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace-event JSON file of the run (spans per pipeline stage, one \
           track per worker domain). Load it in Perfetto or chrome://tracing. Telemetry \
           never changes pipeline outputs.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write a JSON summary of telemetry counters, gauges and histograms (cells \
           characterised, LUT entries merged, synthesis-cache and store hits/misses, pool \
           utilisation, ...).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let samples_arg =
  Arg.(
    value & opt int 50
    & info [ "n"; "samples" ] ~docv:"N" ~doc:"Monte-Carlo sample libraries (paper: 50).")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent artifact store directory (default: $(b,VARTUNE_STORE), else \
           \\$XDG_CACHE_HOME/vartune, else ~/.cache/vartune). Warm runs reuse stored \
           statistical libraries and synthesis results bit-identically.")

let no_store_arg =
  Arg.(
    value & flag
    & info [ "no-store" ]
        ~doc:"Disable the persistent artifact store: nothing is read or written.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject deterministic faults at the pipeline's syscall-shaped boundaries \
           (default: $(b,VARTUNE_FAULTS)). SPEC is comma-separated $(i,point=trigger) \
           items with an optional $(i,:seed) suffix, e.g. \
           $(b,write=0.25,rename=#2,worker_crash=0.1:42). Points: read, write, rename, \
           lock, fsync, worker_crash, enospc, partial_write, delay; triggers: a \
           probability in [0,1] or $(b,#N) for the N-th occurrence. Runs either complete \
           bit-identically to the fault-free run or exit non-zero with a typed error \
           ($(b,delay) only stretches service time, for overload chaos testing).")

let term =
  let make verbose jobs trace metrics_out seed samples store_dir no_store faults =
    { verbose; jobs; trace; metrics_out; seed; samples; store_dir; no_store; faults }
  in
  Term.(
    const make $ verbose_arg $ jobs_arg $ trace_arg $ metrics_arg $ seed_arg
    $ samples_arg $ store_arg $ no_store_arg $ faults_arg)

(* The one flag -> Request.t bridge every subcommand shares: the common
   seed/samples flags become the request's base record, so no shim
   re-reads those flags on its own. *)
let request_term =
  Term.(
    const (fun t -> (t, { Request.seed = t.seed; samples = t.samples })) $ term)

(* Telemetry is enabled the moment either output file is requested, and
   the exporters run from at_exit so every subcommand — and every exit
   path — flushes its trace. *)
let setup_obs t =
  if t.trace <> None || t.metrics_out <> None then begin
    Obs.set_enabled true;
    (* An exception escaping at_exit aborts the remaining exit work and
       clobbers the exit status the guard chose; a telemetry file that
       cannot be written (ENOSPC, bad path) must only cost the file. *)
    let write what writer path =
      try
        writer path;
        Log.info (fun m -> m "wrote %s to %s" what path)
      with Sys_error reason | Unix.Unix_error (_, _, reason) ->
        Log.err (fun m -> m "could not write %s to %s: %s" what path reason)
    in
    at_exit (fun () ->
        Option.iter (write "Chrome trace" Obs.write_trace) t.trace;
        Option.iter (write "metrics" Obs.write_metrics) t.metrics_out)
  end

let setup_faults t =
  let spec =
    match t.faults with
    | Some s -> Some s
    | None -> (
      match Sys.getenv_opt "VARTUNE_FAULTS" with Some s when s <> "" -> Some s | _ -> None)
  in
  Option.iter
    (fun s ->
      match Fault.configure s with
      | Ok () -> ()
      | Error msg ->
        Log.err (fun m -> m "bad fault spec %S: %s" s msg);
        exit 64 (* EX_USAGE *))
    spec

(* Tuning environment variables are validated up front so a typo exits
   64 naming the offending token before any work starts, instead of an
   Invalid_argument mid-pipeline (or, worse, a silently disarmed
   knob). *)
let validate_env () =
  let fail name value msg =
    Log.err (fun m -> m "bad %s=%S: %s" name value msg);
    exit 64 (* EX_USAGE *)
  in
  (match Sys.getenv_opt "VARTUNE_POOL_STALL_S" with
  | Some v when v <> "" -> (
    match Pool.parse_stall_timeout v with
    | Ok _ -> ()
    | Error msg -> fail "VARTUNE_POOL_STALL_S" v msg)
  | _ -> ());
  List.iter
    (fun name ->
      match Sys.getenv_opt name with
      | Some v when v <> "" -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> ()
        | _ -> fail name v "expected a positive integer")
      | _ -> ())
    [ "VARTUNE_CKPT_BLOCKS"; "VARTUNE_STOP_AFTER_BLOCKS" ]

(* Logging + telemetry + fault injection + worker-pool size in one step
   so every subcommand applies --jobs before its first parallel stage. *)
let setup t =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if t.verbose then Logs.Debug else Logs.Info));
  (* With SIGPIPE at its default disposition a closed stdout (vartune
     ... | head) kills the process with a signal; ignored, the write
     fails with EPIPE, surfaces as Sys_error and exits 74 through the
     guard like any other unrecoverable I/O error. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  validate_env ();
  setup_obs t;
  setup_faults t;
  Option.iter Pool.set_default_jobs t.jobs

let store t =
  if t.no_store then None
  else begin
    let dir = Option.value t.store_dir ~default:(Store.default_dir ()) in
    let store = Store.open_dir dir in
    Log.debug (fun m -> m "artifact store at %s" dir);
    at_exit (fun () ->
        let s = Store.stats store in
        if s.Store.hits + s.Store.misses + s.Store.writes + s.Store.errors > 0 then
          Log.info (fun m ->
              m "store %s: %d hits, %d misses, %d writes, %d evictions, %d retries, %d \
                 errors%s"
                dir s.Store.hits s.Store.misses s.Store.writes s.Store.evictions
                s.Store.retries s.Store.errors
                (if s.Store.degraded then " (degraded to no-store)" else "")));
    Some store
  end

(* Every subcommand body runs under this guard: pipeline failures that
   escape the hardened layers exit with a stable, typed status an
   operator (or CI) can branch on, instead of cmdliner's generic
   backtrace-and-exit-2. *)
(* Once stdout has failed (EPIPE, ENOSPC) its buffer cannot drain, and
   every later flush — including the runtime's and Format's at_exit
   hooks — would re-raise, clobbering the typed exit status the guard
   chose.  Point fd 1 at /dev/null so those flushes succeed by
   discarding; the data was already lost. *)
let neutralise_stdout () =
  try
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stdout;
    Unix.close devnull
  with Unix.Unix_error _ | Sys_error _ -> ()

let guard f =
  try
    f ();
    (* Flush inside the guard: stdout buffered against a closed or full
       pipe fails here, as a typed I/O error (74), not in the runtime's
       silent at_exit flush. *)
    flush stdout
  with exn -> (
    (try flush stdout with Sys_error _ -> neutralise_stdout ());
    match Experiment.classify_exn exn with
    | Some failure ->
      Log.err (fun m -> m "%s" (Experiment.failure_message failure));
      exit (Experiment.exit_code failure)
    | None -> raise exn)

let write_text path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

(* Lands one Response.t the way the pre-request subcommands did: a
   failure is logged and exits with its sysexits code; success prints
   the response's output bytes — unless [output] (the -o flag)
   redirects them to a file, leaving only the "wrote" line on stdout.
   [artifact_files] maps response artifact names to destination paths
   (synth's --verilog flag). *)
let deliver ?output ?(artifact_files = []) (resp : Response.t) =
  match resp.Response.error with
  | Some msg ->
    Log.err (fun m -> m "%s" msg);
    exit resp.Response.code
  | None ->
    (match output with
    | Some path ->
      write_text path resp.Response.output;
      Printf.printf "wrote %s (%s cells)\n" path
        (Option.value
           (List.assoc_opt "cells" resp.Response.meta)
           ~default:"?")
    | None -> print_string resp.Response.output);
    List.iter
      (fun (name, path) ->
        match List.assoc_opt name resp.Response.artifacts with
        | Some contents ->
          write_text path contents;
          Printf.printf "wrote %s\n" path
        | None -> ())
      artifact_files

let man =
  [
    `S "COMMON OPTIONS";
    `P
      "Options shared by every subcommand resolve with the precedence $(i,flag) > \
       $(i,environment variable) > $(i,default):";
    `I
      ( "$(b,--jobs)",
        "falls back to $(b,VARTUNE_JOBS), then the recommended domain count. Results are \
         bit-identical at any value." );
    `I
      ( "$(b,--store)",
        "falls back to $(b,VARTUNE_STORE), then \\$XDG_CACHE_HOME/vartune, then \
         ~/.cache/vartune. $(b,--no-store) disables persistence entirely; stored and \
         store-less runs produce byte-identical reports." );
    `I ("$(b,--faults)", "falls back to $(b,VARTUNE_FAULTS); no injection by default.");
    `I ("$(b,--seed), $(b,--samples)", "built-in defaults 42 and 50 (the paper's values).");
    `I
      ( "$(b,--run-dir)",
        "makes the run journaled and resumable: progress is checkpointed to \
         $(i,DIR)/journal.vtj and $(i,DIR)/state/, SIGINT/SIGTERM stop it gracefully \
         (exit 75) and $(b,vartune resume) $(i,DIR) continues to bit-identical output. \
         $(b,VARTUNE_CKPT_BLOCKS) sets the checkpoint cadence in sample blocks \
         (default 4)." );
    `S "PROTOCOL";
    `P
      "Every subcommand constructs a typed request and runs it through the same entry \
       point the $(b,serve) daemon uses, so batch and served execution are bit-identical \
       by construction. On the wire (a unix socket, see $(b,vartune serve)) each request \
       and response is one line of JSON, newline-terminated, no embedded newlines:";
    `Pre
      "  {\"vartune\":1,\"id\":7,\"kind\":\"statlib\",\"seed\":42,\"samples\":50}\n\
      \  {\"vartune\":1,\"id\":7,\"kind\":\"statlib\",\"code\":0,\"elapsed_s\":0.61,\
       \"dedup\":false,...}";
    `P
      "$(b,vartune) is the protocol version. A reader that sees a version it does not \
       speak rejects the line with exit-65 (EX_DATAERR) semantics — an error response \
       with code 65, never a guess. The version is bumped on any change that could make \
       an old reader misinterpret a new line (field renames or semantic changes); adding \
       a new request $(i,kind) is not a bump, because unknown kinds are already rejected \
       as malformed. $(b,id) is an optional caller-chosen correlation id echoed back in \
       the response. Field order is canonical and floats render shortest-round-trip, so \
       the encoded request line doubles as the serve layer's deduplication key. \
       Responses carry the sysexits $(b,code) (see EXIT STATUS), the exact stdout bytes \
       of the equivalent subcommand in $(b,output), the content-addressed store recipe \
       ids in $(b,recipes), and named deliverables (e.g. a Verilog netlist) in \
       $(b,artifacts). The daemon also answers the plain-text lines $(b,GET metrics), \
       $(b,GET profile) and $(b,GET health) with one line of JSON each.";
    `P
      "Requests may carry two optional scheduling fields in the envelope, between \
       $(b,id) and $(b,kind): $(b,priority) ($(i,\"interactive\") or $(i,\"batch\"); \
       default by kind — report/parse/characterize are interactive, the \
       statistical-library kinds batch) and $(b,deadline_s) (a positive number of \
       seconds from receipt after which the answer is worthless; checked at admission \
       and again at dequeue). Both steer the daemon's bounded admission queue only — \
       they never change the computation, are excluded from the deduplication key, and \
       encode nothing when absent, so pre-envelope request lines are byte-identical and \
       the version is not bumped. Under overload (queue full, connection cap, expired \
       deadline, drain) the daemon sheds the request with a code-75 response whose \
       $(b,retry_after_s) field is a deterministic back-off hint; clients should wait \
       at least that long before retrying, as $(b,vartune loadgen) and the bundled \
       client's retry ladder do.";
    `S "EXIT STATUS";
    `P "Pipeline failures map to sysexits.h-style codes:";
    `I
      ( "64",
        "usage error (bad flag value, malformed $(b,--faults) spec, malformed \
         $(b,VARTUNE_POOL_STALL_S)/$(b,VARTUNE_CKPT_BLOCKS) \
         value)." );
    `I
      ( "65",
        "data error: a Liberty file failed to lex or parse, or a run journal is \
         truncated or corrupt." );
    `I ("70", "internal error (a bug; includes an injected fault escaping its layer).");
    `I ("74", "unrecoverable I/O error (including a closed or full stdout).");
    `I
      ( "75",
        "temporary failure: worker domains kept crashing or stalled — retrying may \
         succeed — or a journaled run was interrupted after a checkpoint; \
         $(b,vartune resume) continues it." );
  ]
