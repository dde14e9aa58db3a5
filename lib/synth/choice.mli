(** Drive-strength selection within a cell family, honouring electrical
    limits and tuning windows. *)

val pick :
  Constraints.t ->
  Vartune_liberty.Library.t ->
  family:string ->
  load:float ->
  slew:float ->
  Vartune_liberty.Cell.t
(** Smallest drive meeting: library [max_capacitance >= load], window
    admits [(slew, load)].  Falls back to the largest usable drive (the
    least-violating choice) when nothing fits, and to the largest drive
    outright when tuning marked the whole family unusable — synthesis
    must keep the netlist functional. *)

val upsize :
  Constraints.t ->
  Vartune_liberty.Library.t ->
  Vartune_liberty.Cell.t ->
  load:float ->
  slew:float ->
  Vartune_liberty.Cell.t option
(** Next usable drive strictly above the current cell's, admitting the
    operating point; [None] at the top of the ladder. *)

val downsize :
  Constraints.t ->
  Vartune_liberty.Library.t ->
  Vartune_liberty.Cell.t ->
  load:float ->
  slew:float ->
  Vartune_liberty.Cell.t option
(** Next usable drive strictly below, still fitting the operating
    point. *)
