(** Row-based standard cell placement.

    Implements the paper's stated future work ("does the local variation
    reduction survive place and route?") far enough to answer it within
    the model: cells are packed into rows of a square die sized from the
    total area and a utilisation target, ordered by connectivity, then
    refined with force-directed passes that pull each cell toward the
    centroid of its neighbours.  Wire capacitance then comes from
    half-perimeter wirelength instead of the synthesis fanout model. *)

type t

val place : ?utilization:float -> ?passes:int -> Vartune_netlist.Netlist.t -> t
(** Places every live instance.  [utilization] defaults to 0.7, [passes]
    to 4 refinement iterations.  Deterministic. *)

val position : t -> Vartune_netlist.Netlist.inst_id -> float * float
(** Centre of the placed cell, µm.  Raises [Not_found] for unplaced
    (removed) instances. *)

val die : t -> float * float
(** Die width and height, µm. *)

val hpwl : t -> Vartune_netlist.Netlist.t -> Vartune_netlist.Netlist.net_id -> float
(** Half-perimeter wirelength of a net over its driver and sink cells,
    µm; [0.] for nets touching fewer than two placed cells. *)

val total_wirelength : t -> Vartune_netlist.Netlist.t -> float

val wire_caps :
  ?cap_per_um:float -> t -> Vartune_netlist.Netlist.t ->
  Vartune_netlist.Netlist.net_id -> float
(** HPWL-based wire capacitance (default 0.18 fF/µm), suitable for
    {!Vartune_sta.Timing.config}'s [wire_caps] hook. *)

val overlap_free : t -> Vartune_netlist.Netlist.t -> bool
(** Whether no two cells in a row overlap — the basic legality check. *)
