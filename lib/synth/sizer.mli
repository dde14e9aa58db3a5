(** Post-mapping netlist optimisation.

    Iterates static timing with local moves:

    - {b electrical repair}: upsize or buffer drivers whose load exceeds
      the cell's drive limit (or its tuning window's load bound), split
      high-fanout nets with buffer trees;
    - {b timing recovery}: upsize cells on violating paths; when a cell
      is already at (or blocked from) its top drive, decompose complex
      cells into faster simple-cell networks (full adders into
      XOR3+MAJ3, AND/OR into NAND/NOR+INV, muxes into inverting muxes) —
      the mechanism behind the paper's observation that tight timing
      yields a larger variety of simple cells;
    - {b window repair}: when tuning restricts a cell to a slew window,
      upsize the driver of any input whose slew exceeds it;
    - {b area recovery}: downsize off-critical cells while their path
      slack allows. *)

type report = {
  iterations : int;
  resized : int;
  buffered : int;
  decomposed : int;
  downsized : int;
  window_violations : int;  (** remaining hard window violations *)
}

val optimize :
  ?incremental:bool ->
  Constraints.t -> Vartune_liberty.Library.t -> Vartune_netlist.Netlist.t ->
  Vartune_sta.Timing.t * report
(** Runs the full loop and returns the final timing analysis.

    With [incremental] (the default) the loop runs one full analysis and
    refreshes it between move rounds with {!Vartune_sta.Timing.retime},
    which follows every edit — swaps, buffering, decomposition — through
    the netlist's edit log in O(affected cone) instead of O(design).
    The electrical and window repair scans then visit only candidates:
    instances the log names since the analysis they last read, drivers
    of logged nets, readers of nets whose slew moved, and instances whose
    trigger held at their last visit.  Both are exact, so
    [~incremental:false] (a full run per refresh and full scans) changes
    cost only; it is the oracle the incremental trajectory is tested
    against. *)
