(** The [vartune report] back end: one run report assembled from any
    combination of an exported Chrome trace (span profile, domain
    utilization, GC attribution), a metrics JSON file, and a journaled
    run directory (step timeline, progress, ETA). *)

type timeline = {
  steps : Vartune_journal.Journal.timed list;
  samples : int;
      (** target sample count of the [Run_started] request line; 0 if
          absent or undecodable *)
  samples_done : int;  (** highest [Block_done] upper bound *)
  blocks : int;
  checkpoints : int;
  sealed : string option;
  elapsed_s : float;  (** wall time between first and last record *)
}

type t = {
  profile : Vartune_obs.Profile.t option;
  metrics : Vartune_obs.Json.t option;
  timeline : timeline option;
}

val build :
  ?trace:string -> ?metrics:string -> ?run_dir:string -> unit -> (t, string) result
(** At least one source must be given.  Raises
    {!Vartune_journal.Journal.Corrupt} on a damaged journal (the CLI
    guard maps it to exit 65); unreadable or malformed trace/metrics
    files come back as [Error]. *)

val classify_file : string -> ([ `Trace | `Metrics ], string) result
(** Sniffs a JSON file: [traceEvents] at the root makes it a trace,
    [counters] a metrics file. *)

val to_text : t -> string

val to_json : t -> string
(** [{"profile": ..., "metrics": ..., "journal": ...}] on one line and
    a newline; an absent source is [null]. *)
