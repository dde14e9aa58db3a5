(* Wire-codec tests for the typed request/response vocabulary: QCheck
   round-trips (encode -> decode -> structurally equal, floats
   bit-exact), canonical-key/id separation, unknown-version rejection
   (exit 65 semantics: a reader never guesses) and malformed-line
   diagnostics. *)

module Request = Vartune_flow.Request
module Response = Vartune_flow.Response
module Tuning_method = Vartune_tuning.Tuning_method
module Cluster = Vartune_tuning.Cluster
module Threshold = Vartune_tuning.Threshold

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let base_gen =
  QCheck2.Gen.map
    (fun (seed, samples) -> { Request.seed; samples })
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 500))

let method_gen =
  let open QCheck2.Gen in
  map
    (fun (population, (pick, p)) ->
      let criterion =
        match pick mod 3 with
        | 0 -> Threshold.Load_slope p
        | 1 -> Threshold.Slew_slope p
        | _ -> Threshold.Sigma_ceiling p
      in
      { Tuning_method.population; criterion })
    (pair
       (oneofl [ Cluster.Per_cell; Cluster.Per_drive_strength ])
       (pair (int_range 0 2) (float_range 1e-6 2.0)))

(* printable includes '"', '\\' and '\n', so these exercise the JSON
   string escaper and the one-line framing guarantee *)
let name_gen = QCheck2.Gen.(string_size ~gen:printable (int_range 0 15))

let request_gen =
  let open QCheck2.Gen in
  oneof
    [
      return Request.Characterize;
      map (fun b -> Request.Statlib b) base_gen;
      map (fun b -> Request.Min_period b) base_gen;
      map (fun (base, tuning) -> Request.Tune { base; tuning }) (pair base_gen method_gen);
      map
        (fun ((base, tuning), (period, (parameters, mc_samples))) ->
          Request.Sweep { base; tuning; period; parameters; mc_samples })
        (pair (pair base_gen method_gen)
           (pair
              (option (float_range 0.1 100.0))
              (pair
                 (list_size (int_range 0 6) (float_range 1e-4 1.0))
                 (option (int_range 1 10_000)))));
      map
        (fun ((base, period), (tuning, (timing_report, (power, verilog)))) ->
          Request.Design_sigma { base; period; tuning; timing_report; power; verilog })
        (pair
           (pair base_gen (option (float_range 0.1 100.0)))
           (pair (option method_gen) (pair bool (pair bool bool))));
      map
        (fun ((trace, metrics), (run_dir, json)) ->
          Request.Report { trace; metrics; run_dir; json })
        (pair (pair (option name_gen) (option name_gen)) (pair (option name_gen) bool));
      map (fun file -> Request.Parse { file }) name_gen;
    ]

let with_id_gen = QCheck2.Gen.(pair (option (int_range 0 1_000_000)) request_gen)

let envelope_gen =
  let open QCheck2.Gen in
  map
    (fun ((id, priority), (deadline_s, req)) ->
      { Request.id; priority; deadline_s; req })
    (pair
       (pair
          (option (int_range 0 1_000_000))
          (option (oneofl [ Request.Interactive; Request.Batch ])))
       (pair (option (float_range 1e-3 3600.0)) request_gen))

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Request round-trips                                                 *)
(* ------------------------------------------------------------------ *)

let request_round_trip =
  qtest "request of_line inverts to_line (full envelope)"
    ~count:500 envelope_gen (fun env ->
      let line =
        Request.to_line ?id:env.Request.id ?priority:env.Request.priority
          ?deadline_s:env.Request.deadline_s env.Request.req
      in
      if String.contains line '\n' then
        QCheck2.Test.fail_reportf "embedded newline in %S" line;
      match Request.of_line line with
      | Ok env' -> env' = env
      | Error e ->
        QCheck2.Test.fail_reportf "decode of %S failed: %s" line
          (Request.error_message e))

let encoding_canonical =
  qtest "to_line is deterministic and key drops only the envelope" with_id_gen
    (fun (id, req) ->
      Request.to_line ?id req = Request.to_line ?id req
      && Request.key req = Request.to_line req
      && Request.of_line (Request.key req)
         = Ok { Request.id = None; priority = None; deadline_s = None; req })

(* Envelope fields steer scheduling only: they never reach the dedup
   key, and when absent the wire line is byte-identical to the
   pre-envelope protocol — pinned against literal bytes, so any codec
   change that would bump the wire format fails here first. *)
let test_envelope_bytes () =
  let req = Request.Statlib { Request.seed = 42; samples = 50 } in
  Alcotest.(check string)
    "pre-envelope statlib line is byte-identical"
    {|{"vartune":1,"kind":"statlib","seed":42,"samples":50}|}
    (Request.to_line req);
  Alcotest.(check string)
    "id sits between version and kind"
    {|{"vartune":1,"id":7,"kind":"statlib","seed":42,"samples":50}|}
    (Request.to_line ~id:7 req);
  Alcotest.(check string)
    "envelope fields sit between id and kind"
    {|{"vartune":1,"id":7,"priority":"batch","deadline_s":2.5,"kind":"statlib","seed":42,"samples":50}|}
    (Request.to_line ~id:7 ~priority:Request.Batch ~deadline_s:2.5 req);
  Alcotest.(check string)
    "key ignores the envelope" (Request.key req)
    (match
       Request.of_line
         (Request.to_line ~id:9 ~priority:Request.Interactive ~deadline_s:0.5 req)
     with
    | Ok env -> Request.key env.Request.req
    | Error e -> Alcotest.failf "decode failed: %s" (Request.error_message e));
  Alcotest.(check string)
    "parse kind round-trips"
    {|{"vartune":1,"kind":"parse","file":"lib.lib"}|}
    (Request.to_line (Request.Parse { file = "lib.lib" }))

let test_default_priorities () =
  let interactive =
    [
      Request.Characterize;
      Request.Parse { file = "x.lib" };
      Request.Report { trace = None; metrics = None; run_dir = None; json = false };
    ]
  and batch =
    [
      Request.Statlib { Request.seed = 1; samples = 2 };
      Request.Min_period { Request.seed = 1; samples = 2 };
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check string)
        (Request.kind_string r) "interactive"
        (Request.priority_to_string (Request.default_priority r)))
    interactive;
  List.iter
    (fun r ->
      Alcotest.(check string)
        (Request.kind_string r) "batch"
        (Request.priority_to_string (Request.default_priority r)))
    batch

let version_rejected =
  qtest "future wire versions are rejected, never guessed" request_gen (fun req ->
      let line = Request.to_line req in
      let prefix = Printf.sprintf "{\"vartune\":%d" Request.version in
      let plen = String.length prefix in
      if String.length line < plen || String.sub line 0 plen <> prefix then
        QCheck2.Test.fail_reportf "line does not lead with the version: %S" line;
      let bumped =
        Printf.sprintf "{\"vartune\":%d%s" (Request.version + 1)
          (String.sub line plen (String.length line - plen))
      in
      match Request.of_line bumped with
      | Error (Request.Unsupported_version v) -> v = Request.version + 1
      | Error (Request.Malformed e) ->
        QCheck2.Test.fail_reportf "version bump misread as malformed: %s" e
      | Ok _ -> QCheck2.Test.fail_reportf "future version accepted: %S" bumped)

let test_malformed () =
  List.iter
    (fun line ->
      match Request.of_line line with
      | Error (Request.Malformed _) -> ()
      | Error (Request.Unsupported_version _) ->
        Alcotest.failf "%S rejected as a version problem" line
      | Ok _ -> Alcotest.failf "%S accepted" line)
    [
      "";
      "not json";
      "{}";
      "[1,2]";
      {|{"vartune":"x","kind":"statlib","seed":1,"samples":2}|};
      Printf.sprintf {|{"vartune":%d}|} Request.version;
      Printf.sprintf {|{"vartune":%d,"kind":"frobnicate"}|} Request.version;
      Printf.sprintf {|{"vartune":%d,"kind":"statlib","seed":1}|} Request.version;
      Printf.sprintf {|{"vartune":%d,"kind":"tune","seed":1,"samples":2,"method":"bogus"}|}
        Request.version;
      Printf.sprintf {|{"vartune":%d,"priority":"urgent","kind":"characterize"}|}
        Request.version;
      Printf.sprintf {|{"vartune":%d,"deadline_s":0,"kind":"characterize"}|}
        Request.version;
      Printf.sprintf {|{"vartune":%d,"deadline_s":-1.5,"kind":"characterize"}|}
        Request.version;
      Printf.sprintf {|{"vartune":%d,"kind":"parse"}|} Request.version;
    ];
  match Request.of_line (Printf.sprintf {|{"vartune":%d,"kind":"statlib"}|} 99) with
  | Error (Request.Unsupported_version 99) ->
    let msg = Request.error_message (Request.Unsupported_version 99) in
    Alcotest.(check bool) "message names the version" true (contains ~needle:"99" msg)
  | _ -> Alcotest.fail "version 99 not rejected as unsupported"

(* Every kind that carries a sample count, with [samples] (and, for a
   sweep, [mc_samples]) set to a non-positive value: the line decodes
   to [Malformed] naming the field — which the daemon answers with code
   65 — and never raises. *)
let non_positive_counts =
  let open QCheck2.Gen in
  let count = oneof [ int_range (-1_000_000) 0; oneofl [ 0; -1; min_int ] ] in
  let valid_base = { Request.seed = 1; samples = 2 } in
  let tuning =
    { Tuning_method.population = Cluster.Per_cell; criterion = Threshold.Sigma_ceiling 0.02 }
  in
  let req_gen =
    map
      (fun (pick, n) ->
        let base = { valid_base with samples = n } in
        let sweep ~base ~mc =
          Request.Sweep
            { base; tuning; period = None; parameters = [ 0.01 ];
              mc_samples = mc }
        in
        match pick mod 6 with
        | 0 -> (Request.Statlib base, "samples")
        | 1 -> (Request.Min_period base, "samples")
        | 2 -> (Request.Tune { base; tuning }, "samples")
        | 3 -> (sweep ~base ~mc:None, "samples")
        | 4 -> (sweep ~base:valid_base ~mc:(Some n), "mc_samples")
        | _ ->
          ( Request.Design_sigma
              { base; period = None; tuning = None; timing_report = false; power = false;
                verilog = false },
            "samples" ))
      (pair (int_range 0 5) count)
  in
  qtest "non-positive sample counts are malformed, naming the field" req_gen
    (fun (req, field) ->
      let line = Request.to_line req in
      match Request.of_line line with
      | Error (Request.Malformed msg) ->
        contains ~needle:(Printf.sprintf "%S" field) msg
        || QCheck2.Test.fail_reportf "%S: message %S does not name %s" line msg field
      | Error (Request.Unsupported_version _) ->
        QCheck2.Test.fail_reportf "%S rejected as a version problem" line
      | Ok _ -> QCheck2.Test.fail_reportf "%S accepted" line
      | exception exn ->
        QCheck2.Test.fail_reportf "%S raised %s" line (Printexc.to_string exn))

(* ------------------------------------------------------------------ *)
(* Response round-trips                                                *)
(* ------------------------------------------------------------------ *)

let response_gen =
  let open QCheck2.Gen in
  let assoc = list_size (int_range 0 3) (pair name_gen name_gen) in
  map
    (fun ((((id, kind), (code, elapsed_s)), ((dedup, recipes), ((meta, output), (artifacts, error)))), retry_after_s) ->
      {
        Response.id;
        kind;
        code;
        elapsed_s;
        dedup;
        recipes;
        meta;
        output;
        artifacts;
        error;
        retry_after_s;
      })
    (pair
       (pair
          (pair
             (pair (option (int_range 0 1_000_000)) name_gen)
             (pair (oneofl [ 0; 65; 70; 74; 75 ]) (float_range 0.0 1e4)))
          (pair
             (pair bool (list_size (int_range 0 3) name_gen))
             (pair
                (pair assoc (string_size ~gen:printable (int_range 0 200)))
                (pair assoc (option name_gen)))))
       (option (float_range 1e-3 5.0)))

let response_round_trip =
  qtest "response of_line inverts to_line" ~count:500 response_gen (fun resp ->
      let line = Response.to_line resp in
      if String.contains line '\n' then
        QCheck2.Test.fail_reportf "embedded newline in %S" line;
      match Response.of_line line with
      | Ok resp' -> resp' = resp
      | Error e -> QCheck2.Test.fail_reportf "decode of %S failed: %s" line e)

let () =
  Alcotest.run "request"
    [
      ( "codec",
        [
          request_round_trip;
          encoding_canonical;
          version_rejected;
          Alcotest.test_case "malformed lines diagnosed" `Quick test_malformed;
          non_positive_counts;
          Alcotest.test_case "envelope bytes pinned" `Quick test_envelope_bytes;
          Alcotest.test_case "default priorities by kind" `Quick test_default_priorities;
          response_round_trip;
        ] );
    ]
