(* Tests for Vartune_obs: span recording and nesting across pool sizes,
   Chrome-trace export validity, exact counter accounting against known
   workloads, and the bit-identity guarantee that enabling telemetry
   never changes pipeline output. *)

module Obs = Vartune_obs.Obs
module Json = Vartune_obs.Json
module Trace_check = Vartune_obs.Trace_check
module Pool = Vartune_util.Pool
module Characterize = Vartune_charlib.Characterize
module Statistical = Vartune_statlib.Statistical
module Sampler = Vartune_charlib.Sampler
module Catalog = Vartune_stdcell.Catalog
module Mismatch = Vartune_process.Mismatch
module Library = Vartune_liberty.Library
module Cell = Vartune_liberty.Cell
module Arc = Vartune_liberty.Arc
module Lut = Vartune_liberty.Lut
module Printer = Vartune_liberty.Printer
module Path_mc = Vartune_monte.Path_mc
module Netlist = Vartune_netlist.Netlist
module Timing = Vartune_sta.Timing
module Path = Vartune_sta.Path

(* Every test leaves telemetry disabled and empty, whatever happens. *)
let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let with_pool jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let small_specs = List.filter_map Catalog.find [ "INV"; "ND2" ]

let build_small ?pool () =
  Statistical.build ?pool Characterize.default_config ~mismatch:Mismatch.default ~seed:11
    ~n:6 ~specs:small_specs ()

let ok_stats = function
  | Ok (s : Trace_check.stats) -> s
  | Error e -> Alcotest.failf "trace rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_transparent () =
  Obs.reset ();
  Obs.set_enabled false;
  let r = Obs.span "ghost" (fun () -> 41 + 1) in
  Alcotest.(check int) "span returns f ()" 42 r;
  let ghost = Obs.Counter.make "ghost.counter" in
  Obs.Counter.incr ghost;
  Obs.observe "ghost.histo" 1.0;
  Alcotest.(check int) "no events recorded" 0 (List.length (Obs.events ()));
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value ghost);
  (* registered counter handles stay visible at 0, but nothing may have
     accumulated and no gauge/histogram may exist *)
  List.iter
    (fun (name, v) ->
      match v with
      | Obs.Count 0 -> ()
      | Obs.Count n -> Alcotest.failf "counter %s accumulated %d while disabled" name n
      | Obs.Value _ | Obs.Stats _ ->
        Alcotest.failf "gauge/histogram %s recorded while disabled" name)
    (Obs.metrics ())

let test_span_records_on_exception () =
  with_obs (fun () ->
      (try Obs.span "exploding" (fun () -> failwith "boom") with Failure _ -> ());
      match Obs.events () with
      | [ e ] -> Alcotest.(check string) "event name" "exploding" e.Obs.name
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let test_span_nesting_under_pool_sizes () =
  List.iter
    (fun jobs ->
      with_obs (fun () ->
          with_pool jobs (fun pool ->
              let out =
                Pool.map pool
                  (fun i ->
                    Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> i * i)))
                  (List.init 20 Fun.id)
              in
              Alcotest.(check (list int))
                (Printf.sprintf "results at jobs=%d" jobs)
                (List.init 20 (fun i -> i * i))
                out);
          let stats = ok_stats (Trace_check.validate_string (Obs.trace_json ())) in
          Alcotest.(check bool)
            (Printf.sprintf "outer+inner spans at jobs=%d" jobs)
            true
            (List.mem "outer" stats.Trace_check.names
            && List.mem "inner" stats.Trace_check.names
            && List.mem "pool.map" stats.Trace_check.names);
          (* 20 outer + 20 inner + pool.map (+ pool.task when parallel) *)
          Alcotest.(check bool)
            (Printf.sprintf "span count at jobs=%d" jobs)
            true
            (stats.Trace_check.spans >= 41);
          if jobs = 1 then
            Alcotest.(check bool)
              "no pool.task spans on the serial path" false
              (List.mem "pool.task" stats.Trace_check.names)
          else
            Alcotest.(check int)
              (Printf.sprintf "every task wrapped at jobs=%d" jobs)
              20
              (Obs.counter_value "pool.tasks_run")))
    [ 1; 2; 7 ]

let test_pipeline_trace_is_valid () =
  with_obs (fun () ->
      with_pool 3 (fun pool -> ignore (build_small ~pool ()));
      let stats = ok_stats (Trace_check.validate_string (Obs.trace_json ())) in
      List.iter
        (fun required ->
          Alcotest.(check bool)
            (Printf.sprintf "trace contains %s" required)
            true
            (List.mem required stats.Trace_check.names))
        [ "statlib.build"; "statlib.chunk"; "statlib.merge"; "charlib.library"; "pool.map" ];
      Alcotest.(check bool) "at least one domain track" true (stats.Trace_check.domains >= 1))

(* ------------------------------------------------------------------ *)
(* Counters vs known workloads                                         *)
(* ------------------------------------------------------------------ *)

let entries_per_library lib =
  List.fold_left
    (fun acc cell ->
      List.fold_left
        (fun acc (a : Arc.t) ->
          let count lut =
            let r, c = Lut.dims lut in
            r * c
          in
          acc + count a.Arc.rise_delay + count a.Arc.fall_delay
          + count a.Arc.rise_transition + count a.Arc.fall_transition)
        acc (Cell.arcs cell))
    0 (Library.cells lib)

let test_statlib_counters_exact () =
  let one_sample =
    Sampler.sample_library Characterize.default_config ~mismatch:Mismatch.default ~seed:11
      ~index:0 ~specs:small_specs ()
  in
  with_obs (fun () ->
      with_pool 2 (fun pool -> ignore (build_small ~pool ()));
      Alcotest.(check int) "samples accumulated" 6 (Obs.counter_value "statlib.samples");
      Alcotest.(check int)
        "cells characterised" (6 * Library.size one_sample)
        (Obs.counter_value "charlib.cells");
      Alcotest.(check int)
        "LUT entries merged"
        (6 * entries_per_library one_sample)
        (Obs.counter_value "statlib.lut_entries_merged"))

(* an inverter-chain path extracted from a real timing run, as in
   test_monte, cheap enough for exact counter accounting *)
let chain_path depth =
  let lib = Lazy.force Helpers.small_statlib in
  let inv = Library.find lib "INV_2" in
  let dff = Library.find lib "DFF_1" in
  let nl = Netlist.create ~name:"obs_mc" in
  let clk = Netlist.add_net nl ~net_name:"clk" () in
  Netlist.set_clock nl clk;
  let a = Netlist.add_net nl () in
  Netlist.mark_primary_input nl a;
  let last =
    List.fold_left
      (fun prev i ->
        let out = Netlist.add_net nl () in
        ignore
          (Netlist.add_instance nl
             ~inst_name:(Printf.sprintf "i%d" i)
             ~cell:inv ~inputs:[ ("A", prev) ] ~outputs:[ ("Z", out) ]);
        out)
      a
      (List.init depth Fun.id)
  in
  let q = Netlist.add_net nl () in
  ignore
    (Netlist.add_instance nl ~inst_name:"ff" ~cell:dff
       ~inputs:[ ("D", last); ("CK", clk) ]
       ~outputs:[ ("Q", q) ]);
  let timing = Timing.run (Timing.default_config ~clock_period:5.0) nl in
  List.hd (Path.worst_per_endpoint timing nl)

let test_mc_counter_exact () =
  let path = chain_path 5 in
  with_obs (fun () ->
      with_pool 2 (fun pool ->
          ignore (Path_mc.simulate ~pool { Path_mc.default_config with n = 123 } ~seed:3 path));
      Alcotest.(check int) "mc samples drawn" 123 (Obs.counter_value "mc.samples");
      let stats = ok_stats (Trace_check.validate_string (Obs.trace_json ())) in
      Alcotest.(check bool)
        "mc.simulate span present" true
        (List.mem "mc.simulate" stats.Trace_check.names))

let test_sta_forward_span_and_gc () =
  with_obs (fun () ->
      ignore (chain_path 5);
      let forward =
        List.filter (fun e -> e.Obs.name = "sta.forward") (Obs.events ())
      in
      Alcotest.(check bool) "sta.forward span recorded" true (forward <> []);
      (* the forward sweep interpolates LUTs for every eval; its span
         must attribute that allocation *)
      Alcotest.(check bool) "LUT sweep allocation attributed" true
        (List.exists (fun e -> e.Obs.gc.Obs.minor_words > 0.0) forward);
      let stats = ok_stats (Trace_check.validate_string (Obs.trace_json ())) in
      Alcotest.(check bool) "trace still validates" true (stats.Trace_check.spans > 0))

let test_pool_counters_exact () =
  with_obs (fun () ->
      with_pool 3 (fun pool ->
          ignore (Pool.map pool (fun x -> x + 1) (List.init 10 Fun.id)));
      Alcotest.(check int) "tasks enqueued" 10 (Obs.counter_value "pool.tasks_enqueued");
      Alcotest.(check int) "tasks run" 10 (Obs.counter_value "pool.tasks_run");
      match List.assoc_opt "pool.queue_depth" (Obs.metrics ()) with
      | Some (Obs.Stats s) ->
        Alcotest.(check int) "one submit batch" 1 s.Obs.count;
        Alcotest.(check (float 0.0)) "depth equals batch size" 10.0 s.Obs.max_v
      | _ -> Alcotest.fail "pool.queue_depth histogram missing")

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_metrics_json_well_formed () =
  with_obs (fun () ->
      Obs.Counter.add (Obs.Counter.make "unit.counter") 3;
      Obs.gauge "unit.gauge" 2.5;
      Obs.observe "unit.histo" 1.0;
      Obs.observe "unit.histo" 3.0;
      let json =
        match Json.parse (Json.to_string (Obs.metrics_json ())) with
        | Ok j -> j
        | Error e -> Alcotest.failf "metrics JSON invalid: %s" e
      in
      let counter =
        Option.bind (Json.member "counters" json) (Json.member "unit.counter")
      in
      Alcotest.(check (option (float 0.0)))
        "counter exported" (Some 3.0)
        (Option.bind counter Json.to_float);
      let mean =
        Option.bind (Json.member "histograms" json) (fun h ->
            Option.bind (Json.member "unit.histo" h) (Json.member "mean"))
      in
      Alcotest.(check (option (float 1e-9)))
        "histogram mean" (Some 2.0)
        (Option.bind mean Json.to_float))

(* Both exporters print through Json: floats come back with the same
   bits, and span names and attributes with the same bytes. *)
let test_exports_bit_exact () =
  with_obs (fun () ->
      let odd = "q\"b\\c\x01t\tcaf\xc3\xa9" in
      for i = 1 to 5 do
        Obs.span odd ~attrs:(fun () -> [ (odd, odd) ]) (fun () ->
            ignore (Sys.opaque_identity (List.init (i * 1000) Fun.id)))
      done;
      Obs.gauge "unit.gauge" (0.1 +. 0.2);
      Obs.observe "unit.histo" (1.0 /. 3.0);
      let parse s =
        match Json.parse s with Ok j -> j | Error e -> Alcotest.failf "invalid JSON: %s" e
      in
      let bits = Alcotest.(list int64) in
      let field name j = Option.bind (Json.member name j) Json.to_float |> Option.get in
      let spans =
        Json.member "traceEvents" (parse (Obs.trace_json ()))
        |> Fun.flip Option.bind Json.to_list
        |> Option.get
        |> List.filter (fun e -> Json.member "ph" e = Some (Json.String "X"))
      in
      let evs = Obs.events () in
      Alcotest.(check bits) "ts bits"
        (List.map (fun e -> Int64.bits_of_float e.Obs.ts_us) evs)
        (List.map (fun e -> Int64.bits_of_float (field "ts" e)) spans);
      Alcotest.(check bits) "dur bits"
        (List.map (fun e -> Int64.bits_of_float e.Obs.dur_us) evs)
        (List.map (fun e -> Int64.bits_of_float (field "dur" e)) spans);
      List.iter
        (fun e ->
          Alcotest.(check (option string)) "name bytes" (Some odd)
            (Option.bind (Json.member "name" e) Json.to_string_opt);
          Alcotest.(check (option string)) "attr bytes" (Some odd)
            (Option.bind (Option.bind (Json.member "args" e) (Json.member odd))
               Json.to_string_opt))
        spans;
      let metrics = parse (Json.to_string (Obs.metrics_json ())) in
      let section name = Option.get (Json.member name metrics) in
      Alcotest.(check bits) "gauge bits"
        [ Int64.bits_of_float (0.1 +. 0.2) ]
        [ Int64.bits_of_float (field "unit.gauge" (section "gauges")) ];
      let histo = Option.get (Json.member "unit.histo" (section "histograms")) in
      Alcotest.(check bits) "histogram sum bits"
        [ Int64.bits_of_float (1.0 /. 3.0) ]
        [ Int64.bits_of_float (field "sum" histo) ])

let test_trace_check_rejects_bad_traces () =
  let reject label s =
    match Trace_check.validate_string s with
    | Ok _ -> Alcotest.failf "%s: should have been rejected" label
    | Error _ -> ()
  in
  reject "no traceEvents" {|{"foo": []}|};
  reject "no spans" {|{"traceEvents": [{"ph":"M","pid":1,"tid":0,"name":"thread_name"}]}|};
  reject "missing dur"
    {|{"traceEvents": [{"ph":"X","pid":1,"tid":0,"name":"a","ts":1.0}]}|};
  reject "negative dur"
    {|{"traceEvents": [{"ph":"X","pid":1,"tid":0,"name":"a","ts":1.0,"dur":-2.0}]}|};
  reject "ts goes backwards"
    {|{"traceEvents": [
        {"ph":"X","pid":1,"tid":0,"name":"a","ts":10.0,"dur":1.0},
        {"ph":"X","pid":1,"tid":0,"name":"b","ts":5.0,"dur":1.0}]}|};
  reject "overlapping spans"
    {|{"traceEvents": [
        {"ph":"X","pid":1,"tid":0,"name":"a","ts":0.0,"dur":10.0},
        {"ph":"X","pid":1,"tid":0,"name":"b","ts":5.0,"dur":10.0}]}|};
  match
    Trace_check.validate_string
      {|{"traceEvents": [
          {"ph":"X","pid":1,"tid":0,"name":"parent","ts":0.0,"dur":10.0},
          {"ph":"X","pid":1,"tid":0,"name":"child","ts":2.0,"dur":3.0},
          {"ph":"X","pid":1,"tid":1,"name":"other","ts":1.0,"dur":50.0}]}|}
  with
  | Ok s ->
    Alcotest.(check int) "spans" 3 s.Trace_check.spans;
    Alcotest.(check int) "domains" 2 s.Trace_check.domains
  | Error e -> Alcotest.failf "valid nested trace rejected: %s" e

let test_json_parser_basics () =
  let ok s = match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "%S: %s" s e in
  (match ok {| {"a": [1, 2.5, -3e2], "b": "x\n\"y", "c": true, "d": null} |} with
  | Json.Object kvs ->
    Alcotest.(check int) "four members" 4 (List.length kvs);
    Alcotest.(check (option (float 0.0)))
      "number" (Some 2.5)
      (match List.assoc "a" kvs with
      | Json.Array [ _; x; _ ] -> Json.to_float x
      | _ -> None);
    Alcotest.(check (option string))
      "escaped string" (Some "x\n\"y")
      (Json.to_string_opt (List.assoc "b" kvs))
  | _ -> Alcotest.fail "expected object");
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ "{"; "[1,"; {|{"a" 1}|}; "tru"; ""; "1 2" ];
  (* \u escapes: exactly four hex digits, decoded to UTF-8 with surrogate
     pairs combined; anything else is an error that names its byte *)
  let str s = Json.to_string_opt (ok s) in
  Alcotest.(check (option string)) "ASCII \\u" (Some "A") (str {|"\u0041"|});
  Alcotest.(check (option string)) "U+00E9 as UTF-8" (Some "\xc3\xa9") (str {|"\u00e9"|});
  Alcotest.(check (option string)) "U+20AC as UTF-8" (Some "\xe2\x82\xac") (str {|"\u20AC"|});
  Alcotest.(check (option string))
    "surrogate pair as one code point" (Some "a\xf0\x9f\x98\x80b") (str {|"a\ud83d\ude00b"|});
  List.iter
    (fun (bad, msg) ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error e ->
        Alcotest.(check string) (Printf.sprintf "error for %S" bad) msg e)
    [
      ({|"\u1_2_"|}, "bad \\u escape at byte 1");
      ({|"\uZZZZ"|}, "bad \\u escape at byte 1");
      ({|"x\u12"|}, "truncated \\u escape at byte 2");
      ({|"\ud83d"|}, "lone high surrogate at byte 1");
      ({|"\ud83dx"|}, "lone high surrogate at byte 1");
      ({|"\ud83d\u0041"|}, "lone high surrogate at byte 1");
      ({|"\ude00"|}, "lone low surrogate at byte 1");
    ];
  (* every byte survives the codec, escapes and runs alike *)
  let all = String.init 256 Char.chr ^ {|"\"|} ^ "tail" in
  Alcotest.(check (option string)) "escape/parse round trip" (Some all)
    (str (Json.to_string (Json.String all)))

(* ------------------------------------------------------------------ *)
(* Bit-identity: telemetry on/off, any pool size                       *)
(* ------------------------------------------------------------------ *)

let test_bit_identity_with_telemetry () =
  Obs.reset ();
  Obs.set_enabled false;
  let reference = with_pool 1 (fun pool -> Printer.to_string (build_small ~pool ())) in
  List.iter
    (fun (jobs, enabled) ->
      Obs.reset ();
      Obs.set_enabled enabled;
      let got =
        Fun.protect
          ~finally:(fun () ->
            Obs.set_enabled false;
            Obs.reset ())
          (fun () -> with_pool jobs (fun pool -> Printer.to_string (build_small ~pool ())))
      in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical at jobs=%d telemetry=%b" jobs enabled)
        true (String.equal reference got))
    [ (1, true); (2, false); (2, true); (7, true) ]

(* the STA forward sweep gained a span (and GC bookkeeping): timing
   results must stay bit-identical whether or not it records *)
let test_timing_bit_identity () =
  Obs.reset ();
  Obs.set_enabled false;
  let signature () =
    let p = chain_path 7 in
    (Int64.bits_of_float p.Path.arrival, Int64.bits_of_float p.Path.slack,
     List.length p.Path.steps)
  in
  let reference = signature () in
  List.iter
    (fun enabled ->
      Obs.reset ();
      Obs.set_enabled enabled;
      let got =
        Fun.protect
          ~finally:(fun () ->
            Obs.set_enabled false;
            Obs.reset ())
          signature
      in
      Alcotest.(check bool)
        (Printf.sprintf "timing bit-identical with telemetry=%b" enabled)
        true (reference = got))
    [ false; true ]

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "disabled is transparent" `Quick test_disabled_is_transparent;
          Alcotest.test_case "records on exception" `Quick test_span_records_on_exception;
          Alcotest.test_case "nesting under pool sizes 1/2/7" `Quick
            test_span_nesting_under_pool_sizes;
          Alcotest.test_case "pipeline trace is valid" `Quick test_pipeline_trace_is_valid;
        ] );
      ( "counters",
        [
          Alcotest.test_case "statlib counters exact" `Quick test_statlib_counters_exact;
          Alcotest.test_case "mc counter isolated" `Quick test_mc_counter_exact;
          Alcotest.test_case "sta.forward span and GC attribution" `Quick
            test_sta_forward_span_and_gc;
          Alcotest.test_case "pool counters exact" `Quick test_pool_counters_exact;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "metrics JSON well-formed" `Quick test_metrics_json_well_formed;
          Alcotest.test_case "exports bit-exact" `Quick test_exports_bit_exact;
          Alcotest.test_case "trace checker rejects bad traces" `Quick
            test_trace_check_rejects_bad_traces;
          Alcotest.test_case "json parser basics" `Quick test_json_parser_basics;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "telemetry never changes output" `Quick
            test_bit_identity_with_telemetry;
          Alcotest.test_case "timing unchanged by telemetry" `Quick test_timing_bit_identity;
        ] );
    ]
