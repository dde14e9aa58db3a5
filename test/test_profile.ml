(* Tests for the profiling layer: log-bucket quantile edge cases,
   span-tree aggregation (synthetic event lists and real pool runs at
   1/2/7 jobs, where child-exclusive self times must sum back to the
   root totals), GC/allocation attribution, and the report assembly
   entry points. *)

module Obs = Vartune_obs.Obs
module Json = Vartune_obs.Json
module Profile = Vartune_obs.Profile
module Run_report = Vartune_flow.Run_report
module Pool = Vartune_util.Pool

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

let ev ?(dom = 0) ?(gc = Obs.gc_zero) name ts dur =
  { Obs.name; dom; ts_us = ts; dur_us = dur; wall_start_ns = 0L; gc; attrs = [] }

(* ------------------------------------------------------------------ *)
(* Bucket quantiles                                                    *)
(* ------------------------------------------------------------------ *)

let test_quantile_empty () =
  let counts = Array.make Obs.Buckets.count 0 in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "empty histogram q=%g" q)
        0.0
        (Obs.Buckets.quantile ~counts ~total:0 ~min_v:infinity ~max_v:neg_infinity q))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_quantile_single_observation () =
  List.iter
    (fun v ->
      let counts = Array.make Obs.Buckets.count 0 in
      counts.(Obs.Buckets.index v) <- 1;
      List.iter
        (fun q ->
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "n=1 v=%g q=%g answers exactly" v q)
            v
            (Obs.Buckets.quantile ~counts ~total:1 ~min_v:v ~max_v:v q))
        [ 0.0; 0.5; 0.9; 0.99 ])
    [ 1e-6; 0.4; 1.0; 37.0; 8192.0; 3.5e9 ]

let test_quantile_monotone_and_bounded () =
  let values = [ 1.0; 2.0; 4.0; 8.0; 100.0; 100.0; 3000.0 ] in
  let counts = Array.make Obs.Buckets.count 0 in
  List.iter (fun v -> counts.(Obs.Buckets.index v) <- counts.(Obs.Buckets.index v) + 1) values;
  let total = List.length values in
  let min_v = List.fold_left min infinity values
  and max_v = List.fold_left max neg_infinity values in
  let q p = Obs.Buckets.quantile ~counts ~total ~min_v ~max_v p in
  let p50 = q 0.5 and p90 = q 0.9 and p99 = q 0.99 in
  Alcotest.(check bool) "p50 <= p90" true (p50 <= p90);
  Alcotest.(check bool) "p90 <= p99" true (p90 <= p99);
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " within [min, max]") true (v >= min_v && v <= max_v))
    [ ("p50", p50); ("p90", p90); ("p99", p99) ]

let test_bucket_layout () =
  Alcotest.(check int) "non-positive values in bucket 0" 0 (Obs.Buckets.index (-3.0));
  Alcotest.(check int) "zero in bucket 0" 0 (Obs.Buckets.index 0.0);
  Alcotest.(check bool) "overflow edge is infinite" true
    (Obs.Buckets.upper (Obs.Buckets.count - 1) = infinity);
  (* every finite value lands strictly below its bucket's upper edge *)
  List.iter
    (fun v ->
      let i = Obs.Buckets.index v in
      Alcotest.(check bool)
        (Printf.sprintf "%g < upper(%d)" v i)
        true
        (v < Obs.Buckets.upper i))
    [ 1e-12; 0.3; 1.0; 7.0; 1e6; 1e300 ]

let test_histogram_quantile_via_observe () =
  with_obs (fun () ->
      List.iter (Obs.observe "q.histo") [ 1.0; 1.0; 1.0; 1.0; 1000.0 ];
      match List.assoc_opt "q.histo" (Obs.metrics ()) with
      | Some (Obs.Stats s) ->
        Alcotest.(check bool) "p50 near the cluster" true (Obs.histogram_quantile s 0.5 < 10.0);
        Alcotest.(check bool) "p99 pulled to the outlier" true
          (Obs.histogram_quantile s 0.99 > 100.0)
      | _ -> Alcotest.fail "histogram missing")

(* ------------------------------------------------------------------ *)
(* Aggregation on synthetic event lists                                *)
(* ------------------------------------------------------------------ *)

let test_synthetic_tree () =
  let p =
    Profile.of_events
      [
        (* shuffled on purpose: of_events must re-sort *)
        ev "child2" 4.0 3.0;
        ev "parent" 0.0 10.0;
        ev ~dom:1 "other" 0.0 5.0;
        ev "child1" 1.0 2.0;
      ]
  in
  Alcotest.(check int) "span count" 4 p.Profile.span_count;
  Alcotest.(check (float 1e-9)) "wall is the trace extent" 10.0 p.Profile.wall_us;
  (match List.find_opt (fun n -> n.Profile.label = "parent") p.Profile.roots with
  | Some parent ->
    Alcotest.(check (float 1e-9)) "parent self excludes children" 5.0 parent.Profile.self_us;
    Alcotest.(check (list string))
      "children sorted by total desc" [ "child2"; "child1" ]
      (List.map (fun n -> n.Profile.label) parent.Profile.children)
  | None -> Alcotest.fail "parent root missing");
  (match List.find_opt (fun n -> n.Profile.label = "other") p.Profile.roots with
  | Some other -> Alcotest.(check (float 1e-9)) "leaf self = total" 5.0 other.Profile.self_us
  | None -> Alcotest.fail "other-domain root missing");
  let self_sum = List.fold_left (fun a r -> a +. r.Profile.r_self_us) 0.0 p.Profile.rows in
  let root_total = List.fold_left (fun a n -> a +. n.Profile.total_us) 0.0 p.Profile.roots in
  Alcotest.(check (float 1e-9)) "self times sum to root totals" root_total self_sum;
  Alcotest.(check int) "two domain tracks" 2 (List.length p.Profile.domains)

let test_same_label_different_paths () =
  (* pool.task under two different parents must stay separate in the
     tree but merge in the flat table *)
  let p =
    Profile.of_events
      [
        ev "a" 0.0 10.0;
        ev "pool.task" 1.0 2.0;
        ev "b" 20.0 10.0;
        ev "pool.task" 21.0 4.0;
      ]
  in
  let tasks_in_tree =
    List.concat_map
      (fun root ->
        List.filter (fun n -> n.Profile.label = "pool.task") root.Profile.children)
      p.Profile.roots
  in
  Alcotest.(check int) "two tree nodes" 2 (List.length tasks_in_tree);
  match List.find_opt (fun r -> r.Profile.r_label = "pool.task") p.Profile.rows with
  | Some r ->
    Alcotest.(check int) "one merged row" 2 r.Profile.r_count;
    Alcotest.(check (float 1e-9)) "merged total" 6.0 r.Profile.r_total_us
  | None -> Alcotest.fail "pool.task row missing"

let test_self_time_sums_under_pool_sizes () =
  List.iter
    (fun jobs ->
      with_obs (fun () ->
          with_pool jobs (fun pool ->
              ignore
                (Pool.map pool
                   (fun i ->
                     Obs.span "outer" (fun () ->
                         Obs.span "inner" (fun () -> Sys.opaque_identity (i * i))))
                   (List.init 24 Fun.id)));
          let p = Profile.of_events (Obs.events ()) in
          let rec node_self acc n =
            List.fold_left node_self (acc +. n.Profile.self_us) n.Profile.children
          in
          let tree_self = List.fold_left node_self 0.0 p.Profile.roots in
          let root_total =
            List.fold_left (fun a n -> a +. n.Profile.total_us) 0.0 p.Profile.roots
          in
          Alcotest.(check bool)
            (Printf.sprintf "tree self sums to root totals at jobs=%d" jobs)
            true
            (abs_float (tree_self -. root_total) <= 1e-6 *. Float.max 1.0 root_total);
          let row_self =
            List.fold_left (fun a r -> a +. r.Profile.r_self_us) 0.0 p.Profile.rows
          in
          Alcotest.(check bool)
            (Printf.sprintf "row self agrees at jobs=%d" jobs)
            true
            (abs_float (row_self -. root_total) <= 1e-6 *. Float.max 1.0 root_total);
          (* flat table: 24 inner calls under 24 outer calls, whatever
             the domain layout *)
          (match List.find_opt (fun r -> r.Profile.r_label = "inner") p.Profile.rows with
          | Some r -> Alcotest.(check int) "inner calls" 24 r.Profile.r_count
          | None -> Alcotest.fail "inner row missing");
          if jobs > 1 then
            Alcotest.(check bool)
              (Printf.sprintf "pool.task utilization rows at jobs=%d" jobs)
              true
              (List.exists (fun d -> d.Profile.tasks > 0) p.Profile.domains)))
    [ 1; 2; 7 ]

let test_trace_round_trip () =
  with_obs (fun () ->
      with_pool 2 (fun pool ->
          ignore
            (Pool.map pool
               (fun i -> Obs.span "work" (fun () -> Sys.opaque_identity (i + 1)))
               (List.init 8 Fun.id)));
      let live = Profile.of_events (Obs.events ()) in
      let parsed =
        match Profile.of_trace_string (Obs.trace_json ()) with
        | Ok p -> p
        | Error e -> Alcotest.failf "trace did not round-trip: %s" e
      in
      Alcotest.(check int) "span count survives" live.Profile.span_count parsed.Profile.span_count;
      let labels p = List.map (fun r -> r.Profile.r_label) p.Profile.rows |> List.sort compare in
      Alcotest.(check (list string)) "row labels survive" (labels live) (labels parsed);
      let row label p = List.find (fun r -> r.Profile.r_label = label) p.Profile.rows in
      Alcotest.(check int) "work count survives" (row "work" live).Profile.r_count
        (row "work" parsed).Profile.r_count;
      (* timestamps go through the %.3f us export grid: totals agree to
         well under a microsecond per span *)
      Alcotest.(check bool) "work total survives the export grid" true
        (abs_float
           ((row "work" live).Profile.r_total_us -. (row "work" parsed).Profile.r_total_us)
        <= 0.002 *. 8.0))

let test_of_json_rejects_spanless () =
  (match Profile.of_trace_string {|{"traceEvents": []}|} with
  | Ok _ -> Alcotest.fail "empty trace should not profile"
  | Error _ -> ());
  match Profile.of_trace_string {|{"counters": {}}|} with
  | Ok _ -> Alcotest.fail "metrics file should not profile"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* GC attribution                                                      *)
(* ------------------------------------------------------------------ *)

let test_gc_attribution_positive () =
  with_obs (fun () ->
      let keep =
        Obs.span "alloc.heavy" (fun () -> Sys.opaque_identity (List.init 50_000 Fun.id))
      in
      ignore (Sys.opaque_identity keep);
      (match Obs.events () with
      | [ e ] ->
        if e.Obs.gc.Obs.minor_words < 100_000.0 then
          Alcotest.failf "minor words attributed: got %g" e.Obs.gc.Obs.minor_words
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
      let p = Profile.of_events (Obs.events ()) in
      match List.find_opt (fun r -> r.Profile.r_label = "alloc.heavy") p.Profile.rows with
      | Some r ->
        Alcotest.(check bool) "row carries the delta" true
          (r.Profile.r_gc.Obs.minor_words >= 100_000.0)
      | None -> Alcotest.fail "alloc.heavy row missing")

let test_gc_zero_when_disabled () =
  Obs.reset ();
  Obs.set_enabled false;
  let r = Obs.span "alloc.ghost" (fun () -> List.length (List.init 10_000 Fun.id)) in
  Alcotest.(check int) "span still runs f" 10_000 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.events ()))

(* ------------------------------------------------------------------ *)
(* Report assembly                                                     *)
(* ------------------------------------------------------------------ *)

let write_temp name contents =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let test_report_classify_and_build () =
  (match Run_report.build () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty report request should fail");
  let metrics_path =
    write_temp "vt_test_metrics.json" {|{"counters": {"x": 1}, "gauges": {}, "histograms": {}}|}
  in
  let trace_path =
    with_obs (fun () ->
        Obs.span "unit.work" (fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id)));
        write_temp "vt_test_trace.json" (Obs.trace_json ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove metrics_path;
      Sys.remove trace_path)
    (fun () ->
      (match Run_report.classify_file metrics_path with
      | Ok `Metrics -> ()
      | _ -> Alcotest.fail "metrics file misclassified");
      (match Run_report.classify_file trace_path with
      | Ok `Trace -> ()
      | _ -> Alcotest.fail "trace file misclassified");
      match Run_report.build ~trace:trace_path ~metrics:metrics_path () with
      | Error e -> Alcotest.failf "report build failed: %s" e
      | Ok r ->
        let text = Run_report.to_text r in
        List.iter
          (fun needle ->
            let nl = String.length needle and tl = String.length text in
            let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
            Alcotest.(check bool) (Printf.sprintf "report mentions %S" needle) true (go 0))
          [ "profile"; "unit.work"; "metrics" ];
        match Json.parse (Run_report.to_json r) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "report JSON invalid: %s" e)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* The metrics exporter stamps a schema version; the classifier accepts
   the current one (and legacy files without any), and rejects files
   from a future writer instead of misreading them. *)
let test_report_schema_version () =
  let live = write_temp "vt_test_metrics_live.json" (Json.to_string (Obs.metrics_json ())) in
  let current =
    write_temp "vt_test_metrics_cur.json"
      (Printf.sprintf {|{"schema": %d, "counters": {"x": 1}}|} Obs.metrics_schema_version)
  in
  let legacy = write_temp "vt_test_metrics_old.json" {|{"counters": {"x": 1}}|} in
  let future =
    write_temp "vt_test_metrics_fut.json"
      (Printf.sprintf {|{"schema": %d, "counters": {"x": 1}}|}
         (Obs.metrics_schema_version + 1))
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ live; current; legacy; future ])
    (fun () ->
      Alcotest.(check bool)
        "exporter emits the version" true
        (contains ~needle:(Printf.sprintf "\"schema\":%d" Obs.metrics_schema_version)
           (Json.to_string (Obs.metrics_json ())));
      List.iter
        (fun (name, path) ->
          match Run_report.classify_file path with
          | Ok `Metrics -> ()
          | Ok `Trace -> Alcotest.failf "%s metrics file classified as trace" name
          | Error e -> Alcotest.failf "%s metrics file rejected: %s" name e)
        [ ("live", live); ("current", current); ("legacy", legacy) ];
      match Run_report.classify_file future with
      | Ok _ -> Alcotest.fail "future schema version accepted"
      | Error msg ->
        Alcotest.(check bool) "error names the schema version" true
          (contains ~needle:"schema" msg))

let () =
  Alcotest.run "profile"
    [
      ( "quantiles",
        [
          Alcotest.test_case "empty histogram" `Quick test_quantile_empty;
          Alcotest.test_case "single observation exact" `Quick test_quantile_single_observation;
          Alcotest.test_case "monotone and bounded" `Quick test_quantile_monotone_and_bounded;
          Alcotest.test_case "bucket layout" `Quick test_bucket_layout;
          Alcotest.test_case "observe feeds quantiles" `Quick test_histogram_quantile_via_observe;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "synthetic tree" `Quick test_synthetic_tree;
          Alcotest.test_case "same label, different paths" `Quick
            test_same_label_different_paths;
          Alcotest.test_case "self sums at jobs 1/2/7" `Quick
            test_self_time_sums_under_pool_sizes;
          Alcotest.test_case "live vs exported trace" `Quick test_trace_round_trip;
          Alcotest.test_case "rejects spanless documents" `Quick test_of_json_rejects_spanless;
        ] );
      ( "gc",
        [
          Alcotest.test_case "attribution positive" `Quick test_gc_attribution_positive;
          Alcotest.test_case "nothing recorded when disabled" `Quick test_gc_zero_when_disabled;
        ] );
      ( "report",
        [
          Alcotest.test_case "classify and build" `Quick test_report_classify_and_build;
          Alcotest.test_case "metrics schema version" `Quick test_report_schema_version;
        ] );
    ]
