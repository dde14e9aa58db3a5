(** The single typed request vocabulary of the flow layer.

    Every way of asking vartune for work — the CLI subcommands, the
    [vartune serve] daemon, perfbench — constructs a {!t} and
    hands it to {!Run_request.exec}, so batch and served execution are
    bit-identical by construction.

    A request is a pure computation spec: no output paths, no run
    directories.  Delivery (writing [-o] files, journaling under
    [--run-dir]) stays with the caller, which is what makes {!key} a
    sound deduplication key for the serve layer's single-flight cache.

    {2 Wire format}

    One request per line, JSON, no embedded newlines:

    {v
    {"vartune":1,"id":7,"kind":"statlib","seed":42,"samples":50}
    v}

    [vartune] is the protocol version ({!version}); a reader that sees
    a version it does not know rejects the line with
    {!error.Unsupported_version} — exit 65 (EX_DATAERR) semantics —
    rather than guessing.  The version is bumped on any change that
    could make an old reader misinterpret a new line (field renames,
    semantic changes); adding a new [kind] is not a bump, since old
    readers reject unknown kinds as malformed.  [id] is an optional
    caller-chosen correlation id echoed back in the response.  Field
    order is canonical ({!to_line} always emits the same bytes for the
    same request), floats render shortest-round-trip, and absent
    optional fields are omitted. *)

type base = { seed : int; samples : int }
(** The knobs every statistical-library-building request shares. *)

type t =
  | Characterize  (** nominal characterisation of the catalog *)
  | Statlib of base  (** build the statistical library *)
  | Min_period of base  (** measure the minimum period ladder (Table 1) *)
  | Tune of { base : base; tuning : Vartune_tuning.Tuning_method.t }
      (** per-pin slew/load restrictions for one tuning method *)
  | Sweep of {
      base : base;
      tuning : Vartune_tuning.Tuning_method.t;
      period : float option;  (** [None]: the measured minimum *)
      parameters : float list;
      mc_samples : int option;
          (** [Some n]: finish with a path-level Monte Carlo of [n]
              samples (the [experiment] subcommand's validation stage) *)
    }  (** baseline + constraint-parameter sweep, the pipeline body *)
  | Design_sigma of {
      base : base;
      period : float option;
      tuning : Vartune_tuning.Tuning_method.t option;
      timing_report : bool;
      power : bool;
      verilog : bool;  (** ship the netlist as a [verilog] artifact *)
    }  (** one synthesis run (the [synth] subcommand) *)
  | Report of {
      trace : string option;
      metrics : string option;
      run_dir : string option;
      json : bool;
    }
      (** run report; with all three sources [None] it reports on the
          executing process's own live telemetry (the serve daemon's
          full-report endpoint) *)
  | Parse of { file : string }
      (** parse and summarise one liberty file (the [parse]
          subcommand); the path is resolved by the executing process *)

val version : int
(** Current wire protocol version (1). *)

val kind_string : t -> string
(** ["statlib"], ["sweep"], ... — the wire [kind] field, also used as
    span and response labels. *)

val base_of : t -> base option
(** The seed/samples knobs of the request, if it has any. *)

(** {2 Scheduling envelope}

    [priority] and [deadline_s] are optional envelope fields: they
    steer the serve layer's admission control but do not change the
    computation, so — like [id] — they are excluded from {!key} and
    omitted from the wire line when absent (existing lines stay
    byte-identical; no version bump). *)

type priority =
  | Interactive  (** answered ahead of any queued batch work *)
  | Batch  (** pipeline-heavy work, shed first under overload *)

val priority_to_string : priority -> string
(** ["interactive"] / ["batch"] — the wire spelling. *)

val default_priority : t -> priority
(** The class used when a request carries no explicit [priority]:
    [Report]/[Parse]/[Characterize] are interactive, the
    statistical-library kinds are batch. *)

type envelope = {
  id : int option;  (** caller correlation id, echoed in the response *)
  priority : priority option;  (** [None]: {!default_priority} applies *)
  deadline_s : float option;
      (** seconds from receipt after which the answer is worthless;
          checked at admission and again at dequeue *)
  req : t;
}
(** A decoded wire line: the computation plus its scheduling fields. *)

(** {2 Codec} *)

type error =
  | Unsupported_version of int
      (** the line declared a [vartune] version this reader does not
          speak — exit 65 semantics, never a guess *)
  | Malformed of string  (** not JSON / missing or ill-typed fields *)

val error_message : error -> string

val to_line : ?id:int -> ?priority:priority -> ?deadline_s:float -> t -> string
(** Canonical one-line JSON encoding, no trailing newline.  Omitted
    optional arguments encode nothing. *)

val of_line : string -> (envelope, error) result
(** Parses one wire line; inverse of {!to_line} (structurally equal,
    floats bit-exact).  An unknown [priority] spelling, a non-positive
    [deadline_s], and a [samples] or [mc_samples] count below 1 are
    {!error.Malformed}, naming the field. *)

val key : t -> string
(** Canonical identity of the computation ({!to_line} without [id]) —
    the serve layer's single-flight deduplication key.  Two requests
    with equal [key] produce byte-identical responses. *)
