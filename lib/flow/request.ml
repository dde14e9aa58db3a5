module Tuning_method = Vartune_tuning.Tuning_method
module Json = Vartune_obs.Json

let version = 1

type base = { seed : int; samples : int }

type t =
  | Characterize
  | Statlib of base
  | Min_period of base
  | Tune of { base : base; tuning : Tuning_method.t }
  | Sweep of {
      base : base;
      tuning : Tuning_method.t;
      period : float option;
      parameters : float list;
      mc_samples : int option;
    }
  | Design_sigma of {
      base : base;
      period : float option;
      tuning : Tuning_method.t option;
      timing_report : bool;
      power : bool;
      verilog : bool;
    }
  | Report of {
      trace : string option;
      metrics : string option;
      run_dir : string option;
      json : bool;
    }
  | Parse of { file : string }

let kind_string = function
  | Characterize -> "characterize"
  | Statlib _ -> "statlib"
  | Min_period _ -> "min_period"
  | Tune _ -> "tune"
  | Sweep _ -> "sweep"
  | Design_sigma _ -> "design_sigma"
  | Report _ -> "report"
  | Parse _ -> "parse"

let base_of = function
  | Characterize | Report _ | Parse _ -> None
  | Statlib b | Min_period b -> Some b
  | Tune { base; _ } | Sweep { base; _ } | Design_sigma { base; _ } -> Some base

(* ------------------------------------------------------------------ *)
(* Priorities                                                          *)
(* ------------------------------------------------------------------ *)

type priority = Interactive | Batch

let priority_to_string = function Interactive -> "interactive" | Batch -> "batch"

let priority_of_string = function
  | "interactive" -> Some Interactive
  | "batch" -> Some Batch
  | _ -> None

(* Short requests an operator sits on ahead of the pipeline-heavy batch
   kinds.  Tune builds a full statistical library, so it is batch. *)
let default_priority = function
  | Characterize | Report _ | Parse _ -> Interactive
  | Statlib _ | Min_period _ | Tune _ | Sweep _ | Design_sigma _ -> Batch

type envelope = {
  id : int option;
  priority : priority option;
  deadline_s : float option;
  req : t;
}

type error = Unsupported_version of int | Malformed of string

let error_message = function
  | Unsupported_version v ->
    Printf.sprintf "unsupported request version %d (this build speaks version %d)" v
      version
  | Malformed msg -> Printf.sprintf "malformed request: %s" msg

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Fields are emitted in one canonical order and optional fields are
   omitted when absent, so [to_line] is a stable identity for the
   computation (see [key]). *)

let num f = Json.Number f
let int_ i = num (float_of_int i)
let str s = Json.String s

let opt name conv = function None -> [] | Some v -> [ (name, conv v) ]

let base_fields { seed; samples } =
  [ ("seed", int_ seed); ("samples", int_ samples) ]

let method_field m = ("method", str (Tuning_method.to_string m))

let fields = function
  | Characterize -> []
  | Statlib b | Min_period b -> base_fields b
  | Tune { base; tuning } -> base_fields base @ [ method_field tuning ]
  | Sweep { base; tuning; period; parameters; mc_samples } ->
    base_fields base
    @ [ method_field tuning ]
    @ opt "period" num period
    @ [ ("parameters", Json.Array (List.map num parameters)) ]
    @ opt "mc_samples" int_ mc_samples
  | Design_sigma { base; period; tuning; timing_report; power; verilog } ->
    base_fields base
    @ opt "period" num period
    @ opt "method" (fun m -> str (Tuning_method.to_string m)) tuning
    @ [
        ("timing_report", Json.Bool timing_report);
        ("power", Json.Bool power);
        ("verilog", Json.Bool verilog);
      ]
  | Report { trace; metrics; run_dir; json } ->
    opt "trace" str trace @ opt "metrics" str metrics @ opt "run_dir" str run_dir
    @ [ ("json", Json.Bool json) ]
  | Parse { file } -> [ ("file", str file) ]

(* [priority] and [deadline_s] are envelope fields: they steer scheduling
   but do not change the computation, so they sit between [id] and
   [kind] and — like [id] — are excluded from [key].  When absent they
   encode nothing, keeping pre-existing request lines byte-identical. *)
let to_line ?id ?priority ?deadline_s t =
  Json.to_string
    (Json.Object
       (("vartune", int_ version)
       :: (opt "id" int_ id
          @ opt "priority" (fun p -> str (priority_to_string p)) priority
          @ opt "deadline_s" num deadline_s
          @ (("kind", str (kind_string t)) :: fields t))))

let key t = to_line t

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Bad of string
exception Wrong_version of int

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let get_int name json =
  match Json.member name json with
  | Some (Json.Number f) when Float.is_integer f -> int_of_float f
  | Some _ -> bad "field %S must be an integer" name
  | None -> bad "missing field %S" name

let get_int_opt name json =
  match Json.member name json with
  | None -> None
  | Some (Json.Number f) when Float.is_integer f -> Some (int_of_float f)
  | Some _ -> bad "field %S must be an integer" name

let get_float_opt name json =
  match Json.member name json with
  | None -> None
  | Some (Json.Number f) -> Some f
  | Some _ -> bad "field %S must be a number" name

let get_string_opt name json =
  match Json.member name json with
  | None -> None
  | Some (Json.String s) -> Some s
  | Some _ -> bad "field %S must be a string" name

let get_bool ?(default = false) name json =
  match Json.member name json with
  | None -> default
  | Some (Json.Bool b) -> b
  | Some _ -> bad "field %S must be a boolean" name

let get_method name json =
  match get_string_opt name json with
  | None -> bad "missing field %S" name
  | Some s -> (
    match Tuning_method.of_string s with
    | Some m -> m
    | None -> bad "field %S: unknown tuning method %S" name s)

let get_method_opt name json =
  match get_string_opt name json with
  | None -> None
  | Some s -> (
    match Tuning_method.of_string s with
    | Some m -> Some m
    | None -> bad "field %S: unknown tuning method %S" name s)

(* A sample count below one asks for statistics of nothing. *)
let check_count name = function
  | n when n < 1 -> bad "field %S: %d is not a positive count" name n
  | n -> n

let get_base json =
  { seed = get_int "seed" json; samples = check_count "samples" (get_int "samples" json) }

let get_parameters json =
  match Json.member "parameters" json with
  | None -> bad "missing field \"parameters\""
  | Some (Json.Array l) ->
    List.map
      (function Json.Number f -> f | _ -> bad "field \"parameters\" must be numbers")
      l
  | Some _ -> bad "field \"parameters\" must be an array"

let of_line line =
  match Json.parse line with
  | Error e -> Error (Malformed e)
  | Ok json -> (
    try
      (match Json.member "vartune" json with
      | Some (Json.Number f) when Float.is_integer f ->
        if int_of_float f <> version then raise (Wrong_version (int_of_float f))
      | Some _ -> bad "field \"vartune\" must be an integer"
      | None -> bad "missing field \"vartune\" (protocol version)");
      let id = get_int_opt "id" json in
      let priority =
        match get_string_opt "priority" json with
        | None -> None
        | Some s -> (
          match priority_of_string s with
          | Some p -> Some p
          | None ->
            bad "field %S: unknown priority %S (want interactive or batch)" "priority" s)
      in
      let deadline_s =
        match get_float_opt "deadline_s" json with
        | None -> None
        | Some d when d > 0.0 && Float.is_finite d -> Some d
        | Some d -> bad "field %S: %g is not a positive finite number" "deadline_s" d
      in
      let t =
        match get_string_opt "kind" json with
        | None -> bad "missing field \"kind\""
        | Some "characterize" -> Characterize
        | Some "statlib" -> Statlib (get_base json)
        | Some "min_period" -> Min_period (get_base json)
        | Some "tune" -> Tune { base = get_base json; tuning = get_method "method" json }
        | Some "sweep" ->
          Sweep
            {
              base = get_base json;
              tuning = get_method "method" json;
              period = get_float_opt "period" json;
              parameters = get_parameters json;
              mc_samples = Option.map (check_count "mc_samples") (get_int_opt "mc_samples" json);
            }
        | Some "design_sigma" ->
          Design_sigma
            {
              base = get_base json;
              period = get_float_opt "period" json;
              tuning = get_method_opt "method" json;
              timing_report = get_bool "timing_report" json;
              power = get_bool "power" json;
              verilog = get_bool "verilog" json;
            }
        | Some "report" ->
          Report
            {
              trace = get_string_opt "trace" json;
              metrics = get_string_opt "metrics" json;
              run_dir = get_string_opt "run_dir" json;
              json = get_bool "json" json;
            }
        | Some "parse" -> (
          match get_string_opt "file" json with
          | Some file -> Parse { file }
          | None -> bad "missing field \"file\"")
        | Some other -> bad "unknown request kind %S" other
      in
      Ok { id; priority; deadline_s; req = t }
    with
    | Bad s -> Error (Malformed s)
    | Wrong_version v -> Error (Unsupported_version v))
