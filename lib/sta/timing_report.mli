(** Human-readable timing reports (PrimeTime-flavoured).

    Renders the K worst setup paths with the per-cell delay breakdown the
    paper's Fig 14 reasons about, plus a summary line with worst slack,
    total negative slack and the hold check. *)

val report : ?max_paths:int -> Timing.t -> Vartune_netlist.Netlist.t -> string
(** The [max_paths] (default 5) worst endpoint paths plus the summary. *)

val summary : Timing.t -> string
(** One line: endpoints, worst setup slack, TNS, worst hold slack. *)
