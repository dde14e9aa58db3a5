type stats = { total : int; spans : int; domains : int; names : string list }

(* A span end is ts + dur in float microseconds, so a child's end can
   pass its parent's by rounding; traces written before floats were
   exported bit-exact also sit on a %.3f-µs (nanosecond) grid. *)
let eps = 0.002

type span = { sname : string; tid : int; ts : float; dur : float }

(* "X" spans take the full monotonicity + nesting treatment; "C"
   counter samples still carry a per-track timestamp that must be
   monotone even though they have no extent. *)
type parsed = Span of span | Sample of span | Meta

let ( let* ) = Result.bind

let event_fields idx ev =
  let fail msg = Error (Printf.sprintf "event %d: %s" idx msg) in
  match Json.member "ph" ev with
  | None -> fail "missing ph"
  | Some ph -> (
    match Json.to_string_opt ph with
    | None -> fail "ph is not a string"
    | Some ph ->
      let str key = Option.bind (Json.member key ev) Json.to_string_opt in
      let num key = Option.bind (Json.member key ev) Json.to_float in
      (* exported wall_start_ns is an integer rendered as a string
         (JSON has no 64-bit integers); anything unparseable means the
         exporter (or a hand-edited trace) is corrupt *)
      let* () =
        match Option.bind (Json.member "args" ev) (Json.member "wall_start_ns") with
        | None -> Ok ()
        | Some w -> (
          match Option.bind (Json.to_string_opt w) Int64.of_string_opt with
          | Some _ -> Ok ()
          | None -> fail "args.wall_start_ns is not an integer string")
      in
      if str "name" = None then fail "missing string name"
      else if num "pid" = None then fail "missing numeric pid"
      else if num "tid" = None then fail "missing numeric tid"
      else (
        match ph with
        | "M" -> Ok Meta
        | "C" -> (
          match num "ts" with
          | Some ts when Float.is_finite ts && ts >= 0.0 ->
            Ok
              (Sample
                 {
                   sname = Option.get (str "name");
                   tid = int_of_float (Option.get (num "tid"));
                   ts;
                   dur = 0.0;
                 })
          | Some _ -> fail "C event with non-finite or negative ts"
          | None -> fail "C event missing numeric ts")
        | "X" -> (
          match (num "ts", num "dur") with
          | Some ts, Some dur
            when Float.is_finite ts && ts >= 0.0 && Float.is_finite dur && dur >= 0.0 ->
            Ok
              (Span
                 {
                   sname = Option.get (str "name");
                   tid = int_of_float (Option.get (num "tid"));
                   ts;
                   dur;
                 })
          | Some ts, Some dur ->
            if not (Float.is_finite ts) || ts < 0.0 then
              fail "non-finite or negative ts"
            else if not (Float.is_finite dur) then fail "non-finite dur"
            else fail "negative dur"
          | _ -> fail "X event missing numeric ts/dur")
        | other -> fail (Printf.sprintf "unsupported phase %S" other)))

(* File order within a track must already be monotone in ts. *)
let check_monotone spans =
  let tracks = Hashtbl.create 8 in
  let rec go = function
    | [] -> Ok ()
    | s :: rest -> (
      match Hashtbl.find_opt tracks s.tid with
      | Some prev when s.ts < prev -. eps ->
        Error
          (Printf.sprintf "track %d: ts %.3f goes backwards (previous %.3f)" s.tid s.ts prev)
      | _ ->
        Hashtbl.replace tracks s.tid s.ts;
        go rest)
  in
  go spans

(* Within a track, spans sorted by (start, -dur) must nest: each span
   ends no later than the innermost span still open at its start. *)
let check_nesting spans =
  let by_track = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let cur = Option.value (Hashtbl.find_opt by_track s.tid) ~default:[] in
      Hashtbl.replace by_track s.tid (s :: cur))
    spans;
  Hashtbl.fold
    (fun tid track acc ->
      let* () = acc in
      let sorted =
        List.sort
          (fun a b ->
            let c = compare a.ts b.ts in
            if c <> 0 then c else compare b.dur a.dur)
          track
      in
      let rec go stack = function
        | [] -> Ok ()
        | s :: rest ->
          let fin = s.ts +. s.dur in
          let stack = List.filter (fun open_end -> open_end > s.ts +. eps) stack in
          (match stack with
          | open_end :: _ when fin > open_end +. eps ->
            Error
              (Printf.sprintf
                 "track %d: span %s [%.3f, %.3f] overlaps its enclosing span ending at %.3f"
                 tid s.sname s.ts fin open_end)
          | _ -> go (fin :: stack) rest)
      in
      go [] sorted)
    by_track (Ok ())

let validate json =
  match Json.member "traceEvents" json with
  | None -> Error "root object has no traceEvents"
  | Some evs -> (
    match Json.to_list evs with
    | None -> Error "traceEvents is not an array"
    | Some evs ->
      let* spans, samples =
        List.fold_left
          (fun acc (idx, ev) ->
            let* spans, samples = acc in
            let* parsed = event_fields idx ev in
            Ok
              (match parsed with
              | Span s -> (s :: spans, samples)
              | Sample s -> (spans, s :: samples)
              | Meta -> (spans, samples)))
          (Ok ([], []))
          (List.mapi (fun i e -> (i, e)) evs)
      in
      let spans = List.rev spans and samples = List.rev samples in
      if spans = [] then Error "trace contains no complete (X) span events"
      else
        let* () = check_monotone spans in
        let* () = check_monotone samples in
        let* () = check_nesting spans in
        Ok
          {
            total = List.length evs;
            spans = List.length spans;
            domains = List.length (List.sort_uniq compare (List.map (fun s -> s.tid) spans));
            names = List.sort_uniq compare (List.map (fun s -> s.sname) spans);
          })

let validate_string s =
  let* json = Json.parse s in
  validate json

let validate_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  validate_string s
