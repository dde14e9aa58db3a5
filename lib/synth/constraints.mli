(** Synthesis constraints.

    Besides the usual clock/electrical rules this carries the paper's
    contribution: optional per-output-pin (slew, load) windows produced
    by library tuning, which the mapper and sizer treat as hard limits on
    cell choice.  The window queries read the restriction table's
    per-cell {!Vartune_tuning.Restrict.summary}: one lookup by cell name
    each. *)

type t = {
  clock_period : float;  (** ns *)
  guard_band : float;  (** clock uncertainty, ns (paper: 300 ps) *)
  input_slew : float;
  clock_slew : float;
  output_load : float;  (** external load on primary outputs, pF *)
  max_fanout : int;  (** buffering threshold *)
  max_transition : float;  (** global slew limit, ns *)
  restrictions : Vartune_tuning.Restrict.table option;
  max_iterations : int;  (** timing-optimisation iteration budget *)
  area_recovery : bool;  (** downsize off-critical cells when slack allows *)
}

val make :
  clock_period:float ->
  ?guard_band:float ->
  ?input_slew:float ->
  ?clock_slew:float ->
  ?output_load:float ->
  ?max_fanout:int ->
  ?max_transition:float ->
  ?restrictions:Vartune_tuning.Restrict.table ->
  ?max_iterations:int ->
  ?area_recovery:bool ->
  unit ->
  t

val timing_config : t -> Vartune_sta.Timing.config

val allows :
  t -> cell:Vartune_liberty.Cell.t -> slew:float -> load:float -> bool
(** Whether every output-pin window of [cell] admits the operating point.
    True when no restrictions are installed. *)

val usable : t -> Vartune_liberty.Cell.t -> bool
(** False iff tuning marked some output pin of the cell unusable. *)

val window_load_max : t -> Vartune_liberty.Cell.t -> float
(** Tightest load upper bound across the cell's output-pin windows;
    [infinity] when unrestricted. *)

val window_slew_max : t -> Vartune_liberty.Cell.t -> float
