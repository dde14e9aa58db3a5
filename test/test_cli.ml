(* Subprocess tests of the vartune CLI's typed exit codes and the
   journaled interrupt/resume cycle: usage errors (64) for malformed
   fault specs and tuning environment variables, data errors (65) for
   unparsable inputs and damaged journals, I/O errors (74) for a full
   stdout, valid JSON from [report --json], the byte-exact [figures
   all] golden, and the checkpoint → exit 75 → resume →
   bit-identical-output contract end to end through the real binary. *)

module Library = Vartune_liberty.Library
module Printer = Vartune_liberty.Printer
module Journal = Vartune_journal.Journal
module Run = Vartune_flow.Run
module Request = Vartune_flow.Request
module Store = Vartune_store.Store
module Json = Vartune_obs.Json

(* The binary is a declared dune dep, built next to this test:
   _build/default/{test/test_cli.exe, bin/vartune.exe}.  Resolve it
   from the test's own path so the suite works from any cwd. *)
let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "vartune.exe")

let temp_root =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "vartune_test_cli_%d" (Unix.getpid ()))

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let in_temp name =
  mkdir_p temp_root;
  Filename.concat temp_root name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Runs the vartune binary through the shell (for env assignments and
   redirections), returning the exit code; stdout+stderr land in
   [capture] when given, else /dev/null. *)
let vartune ?(env = []) ?capture ?(stdout_to = "") args =
  let out =
    match (capture, stdout_to) with
    | Some path, _ -> Printf.sprintf "> %s 2>&1" (Filename.quote path)
    | None, "" -> "> /dev/null 2>&1"
    | None, dest -> Printf.sprintf "> %s 2> /dev/null" dest
  in
  let assigns =
    String.concat " "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Filename.quote v)) env)
  in
  let cmd =
    Printf.sprintf "%s %s %s %s" assigns (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      out
  in
  Sys.command cmd

let check_exit name expected code = Alcotest.(check int) name expected code

(* ------------------------------------------------------------------ *)
(* Typed exit codes                                                    *)
(* ------------------------------------------------------------------ *)

let test_usage_errors () =
  check_exit "malformed --faults spec exits 64" 64
    (vartune [ "journal"; in_temp "none"; "--faults"; "bogus=1" ]);
  check_exit "unknown fault point exits 64" 64
    (vartune [ "journal"; in_temp "none"; "--faults"; "write=2.0" ]);
  check_exit "negative VARTUNE_POOL_STALL_S exits 64" 64
    (vartune ~env:[ ("VARTUNE_POOL_STALL_S", "-3") ] [ "journal"; in_temp "none" ]);
  check_exit "NaN VARTUNE_POOL_STALL_S exits 64" 64
    (vartune ~env:[ ("VARTUNE_POOL_STALL_S", "nan") ] [ "journal"; in_temp "none" ]);
  check_exit "malformed VARTUNE_CKPT_BLOCKS exits 64" 64
    (vartune ~env:[ ("VARTUNE_CKPT_BLOCKS", "zero") ] [ "journal"; in_temp "none" ]);
  check_exit "non-positive VARTUNE_STOP_AFTER_BLOCKS exits 64" 64
    (vartune ~env:[ ("VARTUNE_STOP_AFTER_BLOCKS", "0") ] [ "journal"; in_temp "none" ])

let test_data_error () =
  let bad = in_temp "garbage.lib" in
  write_file bad "this is not a liberty file {";
  check_exit "unparsable library exits 65" 65 (vartune [ "parse"; bad ])

(* A sample count below one is a data error naming the flag, before
   any work starts (it used to escape as Invalid_argument, exit 125). *)
let test_non_positive_counts () =
  let log = in_temp "counts.log" in
  List.iter
    (fun (label, flag, args) ->
      check_exit (label ^ " exits 65") 65 (vartune ~capture:log args);
      let out = read_file log in
      Alcotest.(check bool)
        (Printf.sprintf "%s names %s: %S" label flag out)
        true
        (Helpers.contains out flag && not (Helpers.contains out "exception")))
    [
      ("statlib -n 0", "--samples", [ "statlib"; "-n"; "0"; "--no-store" ]);
      ("statlib --samples=-3", "--samples", [ "statlib"; "--samples=-3"; "--no-store" ]);
      ( "experiment --mc-samples 0",
        "--mc-samples",
        [ "experiment"; "-n"; "2"; "--mc-samples"; "0"; "--period"; "5"; "--no-store" ] );
      ( "experiment --mc-samples=-1",
        "--mc-samples",
        [ "experiment"; "-n"; "2"; "--mc-samples=-1"; "--period"; "5"; "--no-store" ] );
    ]

let test_corrupt_library_data_error () =
  List.iteri
    (fun i (label, src, _) ->
      let path = in_temp (Printf.sprintf "corrupt_%d.lib" i) in
      write_file path src;
      check_exit (label ^ " exits 65") 65 (vartune [ "parse"; path ]))
    Helpers.corrupt_libraries

let tiny_lib_path () =
  let path = in_temp "tiny.lib" in
  Printer.write_file path (Library.make ~name:"tiny" ~corner:"tc" ~cells:[]);
  path

let test_io_error_full_stdout () =
  if Sys.file_exists "/dev/full" then begin
    let tiny = tiny_lib_path () in
    check_exit "write to full stdout exits 74" 74
      (vartune ~stdout_to:"/dev/full" [ "parse"; tiny ])
  end

let test_parse_ok () =
  let tiny = tiny_lib_path () in
  check_exit "well-formed library parses" 0 (vartune [ "parse"; tiny ])

let test_resume_damaged_journal () =
  let no_journal = in_temp "empty_run" in
  mkdir_p no_journal;
  check_exit "resume without a journal exits 65" 65
    (vartune [ "resume"; no_journal; "--no-store" ]);
  let corrupt = in_temp "corrupt_run" in
  mkdir_p corrupt;
  write_file (Filename.concat corrupt "journal.vtj") "VTJRNL01 not really a journal";
  check_exit "resume of a corrupt journal exits 65" 65
    (vartune [ "resume"; corrupt; "--no-store" ]);
  check_exit "journal listing of a corrupt journal exits 65" 65
    (vartune [ "journal"; corrupt ])

(* A run directory whose journal holds [steps] under a header claiming
   layout [version]. *)
let run_dir_with name ?(version = Journal.version) steps =
  let rd = in_temp name in
  mkdir_p rd;
  Helpers.journal_with_version (Run.journal_path rd) ~version steps;
  rd

let test_resume_old_version () =
  let rd =
    run_dir_with "v2_run" ~version:2
      [ Journal.Run_started
          { request = Request.to_line (Request.Statlib { seed = 1; samples = 2 });
            output = None } ]
  in
  check_exit "resume of a version-2 journal exits 65" 65
    (vartune [ "resume"; rd; "--no-store" ])

(* A run-started line that does not decode to a journal-able request is
   journal damage: [Run.resume] raises [Corrupt] (never [Failure] or
   [Invalid_argument]) and the CLI exits 65. *)
let test_resume_undecodable_request () =
  List.iter
    (fun (name, line) ->
      let rd =
        run_dir_with ("bad_request_" ^ name)
          [ Journal.Run_started { request = line; output = None } ]
      in
      (match Run.resume ~run_dir:rd () with
      | () -> Alcotest.failf "%s: resume accepted the run" name
      | exception Journal.Corrupt _ -> ()
      | exception exn ->
        Alcotest.failf "%s: resume raised %s, not Corrupt" name (Printexc.to_string exn));
      check_exit (name ^ " request line: resume exits 65") 65
        (vartune [ "resume"; rd; "--no-store" ]))
    [
      ("malformed", {|{"vartune":1,"kind":"statlib","seed":|});
      ("unsupported_version", {|{"vartune":99,"kind":"statlib","seed":1,"samples":2}|});
      ("not_journal_able", Request.to_line (Request.Parse { file = "x.lib" }));
    ]

(* [report --json] escapes journal strings as JSON, not as OCaml
   literals: an output path and a seal reason holding UTF-8 bytes and
   control characters come back byte for byte. *)
let test_report_json_escapes () =
  let output = "out/caf\xc3\xa9\x01\t.lib" and reason = "done \xc3\xa9\x02\"\\" in
  let steps =
    [
      Journal.Run_started
        { request = Request.to_line (Request.Statlib { seed = 1; samples = 2 });
          output = Some output };
      Journal.Sealed { reason };
    ]
  in
  let rd = run_dir_with "report_escapes" steps in
  let out = in_temp "report_escapes.json" in
  check_exit "report --json exits 0" 0
    (vartune ~stdout_to:(Filename.quote out) [ "report"; "--run-dir"; rd; "--json" ]);
  let json =
    match Json.parse (read_file out) with
    | Ok j -> j
    | Error e -> Alcotest.failf "report --json is not JSON: %s" e
  in
  let journal = Option.get (Json.member "journal" json) in
  Alcotest.(check (list string))
    "step strings round-trip byte for byte"
    (List.map Journal.step_to_string steps)
    (List.map
       (fun s -> Option.get (Option.bind (Json.member "step" s) Json.to_string_opt))
       (Option.get (Option.bind (Json.member "steps" journal) Json.to_list)));
  Alcotest.(check (option string))
    "sealed reason round-trips" (Some reason)
    (Option.bind (Json.member "sealed" journal) Json.to_string_opt)

(* ------------------------------------------------------------------ *)
(* The paper's exhibits                                                *)
(* ------------------------------------------------------------------ *)

(* [figures all] at the defaults (seed 42, N = 50) is pinned byte for
   byte.  A change that moves a number regenerates the golden and says
   why.  [dune runtest] copies it next to this test; a direct run from
   the repo root reads the source copy. *)
let test_figures_golden () =
  let golden =
    let beside = Filename.concat (Filename.dirname Sys.executable_name) "figures_all.golden" in
    if Sys.file_exists beside then beside else Filename.concat "test" "figures_all.golden"
  in
  let out = in_temp "figures_all.txt" in
  check_exit "figures all exits 0" 0
    (vartune ~stdout_to:(Filename.quote out) [ "figures"; "all"; "--no-store" ]);
  let lines path = String.split_on_char '\n' (read_file path) in
  let rec first_diff n = function
    | e :: es, a :: rest when e = a -> first_diff (n + 1) (es, rest)
    | [], [] -> ()
    | e :: _, a :: _ -> Alcotest.failf "line %d differs:\n  golden: %S\n  actual: %S" n e a
    | e :: _, [] -> Alcotest.failf "line %d missing from the output: golden %S" n e
    | [], a :: _ -> Alcotest.failf "line %d not in the golden: %S" n a
  in
  first_diff 1 (lines golden, lines out)

(* Table 2 prints constants: it needs no statistical library. *)
let test_static_exhibit_builds_nothing () =
  let log = in_temp "table2.log" in
  check_exit "figures table2 exits 0" 0
    (vartune ~capture:log [ "figures"; "table2"; "--no-store" ]);
  let out = read_file log in
  Alcotest.(check bool) "prints Table 2" true (Helpers.contains out "Table 2");
  Alcotest.(check bool)
    (Printf.sprintf "builds no statistical library: %S" out)
    false
    (Helpers.contains out "building statistical library")

(* ------------------------------------------------------------------ *)
(* Interrupt / resume through the real binary                          *)
(* ------------------------------------------------------------------ *)

(* The journal's record of a run is the canonical line of the request
   the subcommand submitted.  The stop hook interrupts the run during
   the statistical build, before the min-period search. *)
let test_experiment_run_record () =
  let rd = in_temp "experiment_run" in
  check_exit "interrupted experiment exits 75" 75
    (vartune
       ~env:[ ("VARTUNE_STOP_AFTER_BLOCKS", "1"); ("VARTUNE_CKPT_BLOCKS", "1") ]
       [ "experiment"; "-n"; "8"; "--mc-samples"; "100"; "--period"; "5"; "--no-store";
         "--run-dir"; rd ]);
  let submitted =
    Request.Sweep
      {
        base = { seed = 42; samples = 8 };
        tuning = Option.get (Vartune_tuning.Tuning_method.of_string "cell/ceiling=0.02");
        period = Some 5.0;
        parameters = [ 0.01; 0.02; 0.05 ];
        mc_samples = Some 100;
      }
  in
  let listing = in_temp "experiment_journal.txt" in
  check_exit "journal listing validates" 0 (vartune ~capture:listing [ "journal"; rd ]);
  Alcotest.(check (list string))
    "run-started line carries the submitted request's canonical line"
    [ "run-started request=" ^ Request.to_line submitted ]
    (List.filter
       (String.starts_with ~prefix:"run-started")
       (String.split_on_char '\n' (read_file listing)));
  match Journal.replay (Run.journal_path rd) with
  | Journal.Run_started { request; output = None } :: _ -> (
    match Request.of_line request with
    | Ok { Request.req = Request.Sweep { period = Some p; parameters; _ } as req; _ } ->
      Alcotest.(check bool) "decodes to the submitted request" true (req = submitted);
      Alcotest.(check (list int64))
        "period and parameters bit-exact"
        (List.map Int64.bits_of_float (5.0 :: [ 0.01; 0.02; 0.05 ]))
        (List.map Int64.bits_of_float (p :: parameters))
    | Ok _ -> Alcotest.failf "run-started decodes to another request: %s" request
    | Error e -> Alcotest.failf "run-started does not decode: %s" (Request.error_message e))
  | _ -> Alcotest.fail "journal does not open with run-started"

(* The steps a journaled sweep records, in order: one per fetched
   artifact, so the baseline every point is scored against is fetched
   (and journaled) once.  At jobs 1 the points land in parameter
   order. *)
let test_experiment_journal_steps () =
  let rd = in_temp "experiment_steps" in
  check_exit "journaled sweep completes" 0
    (vartune
       [ "experiment"; "-n"; "8"; "--mc-samples"; "20"; "--period"; "5"; "--no-store";
         "--jobs"; "1"; "--run-dir"; rd ]);
  let listing = in_temp "experiment_steps.txt" in
  check_exit "journal listing validates" 0 (vartune ~capture:listing [ "journal"; rd ]);
  let steps =
    String.split_on_char '\n' (read_file listing)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> if String.starts_with ~prefix:"run-started " l then "run-started" else l)
  in
  Alcotest.(check (list string))
    "journaled sweep steps"
    [
      "run-started";
      "block-done lo=0 hi=4";
      "block-done lo=4 hi=8";
      "statlib-built";
      "min-period 4.09912109375";
      "synthesis-done label=baseline period=5";
      "synthesis-done label=cell/ceiling=0.01 period=5";
      "synthesis-done label=cell/ceiling=0.02 period=5";
      "synthesis-done label=cell/ceiling=0.05 period=5";
      "sweep-done tuning=cell/ceiling=0.02 period=5 points=3";
      "sealed reason=completed";
    ]
    steps

let test_statlib_interrupt_resume () =
  let rd = in_temp "run" and rd_ref = in_temp "run_ref" in
  let common = [ "-n"; "8"; "--jobs"; "1"; "--no-store" ] in
  (* deterministic interrupt: stop after the first checkpointed block *)
  check_exit "interrupted run exits 75" 75
    (vartune
       ~env:[ ("VARTUNE_STOP_AFTER_BLOCKS", "1"); ("VARTUNE_CKPT_BLOCKS", "1") ]
       ([ "statlib"; "--run-dir"; rd ] @ common));
  let listing = in_temp "journal.txt" in
  check_exit "journal listing validates" 0 (vartune ~capture:listing [ "journal"; rd ]);
  let lines = String.split_on_char '\n' (read_file listing) in
  Alcotest.(check bool)
    "journal records a checkpoint" true
    (List.exists (fun l -> String.length l >= 10 && String.sub l 0 10 = "checkpoint") lines);
  check_exit "resume completes" 0 (vartune ([ "resume"; rd ] @ common));
  check_exit "uninterrupted reference run" 0
    (vartune ([ "statlib"; "--run-dir"; rd_ref ] @ common));
  Alcotest.(check string)
    "resumed statlib.lib bit-identical to uninterrupted"
    (read_file (Filename.concat rd_ref "statlib.lib"))
    (read_file (Filename.concat rd "statlib.lib"));
  Alcotest.(check string)
    "resumed report.txt identical to uninterrupted"
    (read_file (Filename.concat rd_ref "report.txt"))
    (read_file (Filename.concat rd "report.txt"))

(* The interrupt/resume cycle with a shared store next to the run's
   state store: both tiers are probed and written, and the resumed
   library is still bit-identical to a store-less reference. *)
let test_statlib_resume_with_store () =
  let rd = in_temp "run_store" and rd_ref = in_temp "run_store_ref" in
  let shared = in_temp "shared_store" in
  let common = [ "-n"; "8"; "--jobs"; "1" ] in
  check_exit "interrupted run exits 75" 75
    (vartune
       ~env:[ ("VARTUNE_STOP_AFTER_BLOCKS", "1"); ("VARTUNE_CKPT_BLOCKS", "1") ]
       ([ "statlib"; "--store"; shared; "--run-dir"; rd ] @ common));
  check_exit "resume completes" 0
    (vartune [ "resume"; rd; "--store"; shared; "--jobs"; "1" ]);
  check_exit "store-less reference run" 0
    (vartune ([ "statlib"; "--no-store"; "--run-dir"; rd_ref ] @ common));
  Alcotest.(check string)
    "resumed statlib.lib bit-identical to the store-less reference"
    (read_file (Filename.concat rd_ref "statlib.lib"))
    (read_file (Filename.concat rd "statlib.lib"));
  let entries dir = Store.entry_count (Store.open_dir dir) in
  Alcotest.(check int) "shared store holds the library" 1 (entries shared);
  Alcotest.(check int) "run state holds checkpoint and library" 2
    (entries (Filename.concat rd "state"))

(* ------------------------------------------------------------------ *)
(* Overload drain through the real binary                              *)
(* ------------------------------------------------------------------ *)

module Response = Vartune_flow.Response
module Client = Vartune_serve.Client

(* SIGTERM with the pipeline full: one request executing (stretched by
   the pinned delay fault), two queued behind the single worker.  The
   daemon must answer the in-flight request with its real result, shed
   both queued ones with typed code-75 replies before the socket file
   disappears, and itself exit 75 — no client left hanging. *)
let test_serve_sigterm_drain_under_load () =
  let socket = in_temp "overload.sock" in
  if Sys.file_exists socket then Sys.remove socket;
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  let env = Array.append (Unix.environment ()) [| "VARTUNE_FAULTS=delay=1.0:3" |] in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--socket"; socket; "--serve-workers"; "1"; "--queue-cap"; "4" |]
      env Unix.stdin dev_null dev_null
  in
  Unix.close dev_null;
  let deadline = Unix.gettimeofday () +. 30.0 in
  while not (Sys.file_exists socket) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  Alcotest.(check bool) "daemon bound its socket" true (Sys.file_exists socket);
  let results = Array.make 3 None in
  let fire i seed =
    Thread.create
      (fun () ->
        let client = Client.connect socket in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            results.(i) <-
              Some (Client.request client (Request.Statlib { Request.seed; samples = 2 }))))
      ()
  in
  (* GET health is answered inline even under overload, so it is the
     probe for the daemon's internal queue state. *)
  let health_field field =
    let client = Client.connect socket in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    match Json.parse (Client.get client "health") with
    | Ok json -> (
      match Json.member field json with Some (Json.Number n) -> int_of_float n | _ -> 0)
    | Error _ -> 0
  in
  let wait_for field n =
    let deadline = Unix.gettimeofday () +. 30.0 in
    let rec go () =
      if health_field field >= n then true
      else if Unix.gettimeofday () >= deadline then false
      else begin
        Unix.sleepf 0.02;
        go ()
      end
    in
    go ()
  in
  let ta = fire 0 300 in
  Alcotest.(check bool) "one request reached the worker" true (wait_for "active" 1);
  let tb = fire 1 301 in
  let tc = fire 2 302 in
  Alcotest.(check bool) "two requests queued behind it" true (wait_for "queued" 2);
  Unix.kill pid Sys.sigterm;
  List.iter Thread.join [ ta; tb; tc ];
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> check_exit "SIGTERM drains to exit 75" 75 code
  | _, Unix.WSIGNALED s -> Alcotest.failf "daemon killed by signal %d instead of draining" s
  | _, Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped unexpectedly");
  Alcotest.(check bool) "socket file removed on drain" false (Sys.file_exists socket);
  let resp tag i =
    match results.(i) with
    | Some (Ok r) -> r
    | Some (Error e) -> Alcotest.failf "%s response unreadable: %s" tag e
    | None -> Alcotest.failf "%s request got no reply" tag
  in
  Alcotest.(check int) "in-flight request answered with its result" 0
    (resp "in-flight" 0).Response.code;
  List.iter
    (fun (tag, i) ->
      let r = resp tag i in
      Alcotest.(check int) (tag ^ " shed with 75") 75 r.Response.code;
      Alcotest.(check bool)
        (tag ^ " carries a retry hint")
        true
        (r.Response.retry_after_s <> None))
    [ ("queued B", 1); ("queued C", 2) ]

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "usage errors (64)" `Quick test_usage_errors;
          Alcotest.test_case "data error (65)" `Quick test_data_error;
          Alcotest.test_case "non-positive sample counts (65)" `Quick test_non_positive_counts;
          Alcotest.test_case "corrupt library contents (65)" `Quick
            test_corrupt_library_data_error;
          Alcotest.test_case "full stdout (74)" `Quick test_io_error_full_stdout;
          Alcotest.test_case "parse ok (0)" `Quick test_parse_ok;
          Alcotest.test_case "damaged journal (65)" `Quick test_resume_damaged_journal;
          Alcotest.test_case "version-2 journal (65)" `Quick test_resume_old_version;
          Alcotest.test_case "undecodable request line (65)" `Quick
            test_resume_undecodable_request;
          Alcotest.test_case "report --json escapes journal strings" `Quick
            test_report_json_escapes;
        ] );
      ( "resume",
        [
          Alcotest.test_case "statlib interrupt/resume" `Slow test_statlib_interrupt_resume;
          Alcotest.test_case "statlib interrupt/resume with store" `Slow
            test_statlib_resume_with_store;
          Alcotest.test_case "experiment run record" `Slow test_experiment_run_record;
          Alcotest.test_case "experiment journal steps" `Slow test_experiment_journal_steps;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figures all matches the golden" `Slow test_figures_golden;
          Alcotest.test_case "table2 builds no set-up" `Quick
            test_static_exhibit_builds_nothing;
        ] );
      ( "serve",
        [
          Alcotest.test_case "SIGTERM drain under load" `Slow
            test_serve_sigterm_drain_under_load;
        ] );
    ]
