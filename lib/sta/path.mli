(** Critical-path extraction.

    The paper's design-level metrics are computed over the worst path to
    each unique endpoint (Figs. 12–14); a path is the ordered list of
    cells traversed from a launch point (register output or primary
    input) to the endpoint, with the operating point (input slew, output
    load) each cell saw. *)

type step = {
  inst : Vartune_netlist.Netlist.inst_id;
  cell : Vartune_liberty.Cell.t;
  out_pin : string;
  arc : Vartune_liberty.Arc.t;
  input_slew : float;
  load : float;
  delay : float;
}

type t = {
  endpoint : Timing.endpoint;
  steps : step list;  (** launch to capture order *)
  arrival : float;
  required : float;
  slack : float;
}

val extract : Timing.t -> Vartune_netlist.Netlist.t -> Timing.endpoint_timing -> t
(** Backtraces the critical path into the given endpoint. *)

val worst_per_endpoint : Timing.t -> Vartune_netlist.Netlist.t -> t list
(** One critical path per endpoint, every endpoint of the design, in
    {!Timing.endpoints} order, inside an [sta.paths] span.  It builds
    the timing's endpoint lists on first use (see
    {!Timing.endpoints}). *)

val depth : t -> int
(** Number of cells on the path. *)

val mean_delay : t -> float
(** Sum of step delays (paper eq. 5). *)

val depth_histogram : t list -> (int * int) list
(** [(depth, path count)] pairs, sorted by depth. *)
