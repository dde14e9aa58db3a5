(** Static timing analysis over a mapped netlist.

    Propagates arrival times and slews topologically, computing per-net
    load from sink pin capacitances plus a simple fanout-based wire model.
    Delays and output transitions come from the library LUTs via bilinear
    interpolation; when several arcs reach an output the worst arrival and
    slew win, and the winning arc is recorded for path backtracing.

    Internally the analysis runs over a levelized timing graph built once
    per netlist: one evaluation unit per driven output pin, evaluated in
    a topological level order, with arcs and resolved input nets
    flattened into arrays and every per-net quantity held in a flat
    float array.  {!run} builds the
    graph and performs a full analysis; {!retime} extends the graph with
    the netlist edits made since and re-propagates only the cone they
    affect, bit-identically to a fresh {!run}. *)

type config = {
  clock_period : float;  (** ns *)
  guard_band : float;  (** clock uncertainty subtracted from the period *)
  input_slew : float;  (** slew at primary inputs *)
  clock_slew : float;  (** slew of the clock edge at sequential cells *)
  output_load : float;  (** external load on primary outputs, pF *)
  wire_cap_base : float;  (** per-net wire capacitance, pF *)
  wire_cap_per_sink : float;  (** additional wire capacitance per sink, pF *)
  wire_caps : (Vartune_netlist.Netlist.net_id -> float) option;
  (** when set (post-placement), overrides the fanout-based wire model
      with actual per-net wire capacitance *)
}

val default_config : clock_period:float -> config
(** The paper's setup: 300 ps guard band, 50 ps input slew. *)

type endpoint =
  | Reg_data of { inst : Vartune_netlist.Netlist.inst_id; pin : string }
      (** a sequential cell's data input *)
  | Primary_output of Vartune_netlist.Netlist.net_id

type endpoint_timing = {
  endpoint : endpoint;
  arrival : float;
  required : float;
  slack : float;
}

type t

val run : config -> Vartune_netlist.Netlist.t -> t
(** Full timing analysis.  Raises {!Vartune_netlist.Check.Combinational_loop}
    on cyclic logic.  The analysis stays tied to the netlist: {!retime}
    follows its later edits. *)

val retime : t -> unit
(** [retime t] brings [t] up to date with every edit made to its netlist
    since the last [run] or [retime], in place.  It reads the netlist's
    {{!Vartune_netlist.Netlist.edits}edit log} from the position the
    analysis remembers, so callers name nothing.  Every edit the
    {!Vartune_netlist.Netlist} mutators make is handled as a cone update
    on the same graph, never by rebuilding it:
    - a cell swap that keeps the instance's arc shape (same output pins,
      as many arcs each, same sequential kind — family ladder moves)
      refreshes its arcs in place;
    - any other swap, and every added or removed instance, tombstones
      the instance's old evaluation nodes and appends its new ones;
    - added nets extend the per-net arrays, rewired inputs and new
      drivers re-derive the reader index and the level order from the
      graph's integer arrays, and primary-output marks add endpoints.
    Then only the affected cone is re-propagated: forward from the
    edited nodes and from every net whose load or driver changed,
    backward from every net whose slew, readers, reader arcs or
    endpoint requirement moved.  The result — every per-net value,
    winning arc, and both endpoint lists — is bit-for-bit identical to
    [run (config t) nl].  With nothing logged it does no work.  Raises
    {!Vartune_netlist.Check.Combinational_loop} if an edit closed a
    cycle. *)

val iter_slew_changes : t -> f:(Vartune_netlist.Netlist.net_id -> unit) -> unit
(** The nets whose {!net_slew} the last {!retime} changed, bit for bit,
    each once; none after {!run}.  A scan that depends on slews can
    revisit only these nets' readers. *)

val config : t -> config
val net_load : t -> Vartune_netlist.Netlist.net_id -> float
val net_arrival : t -> Vartune_netlist.Netlist.net_id -> float
val net_slew : t -> Vartune_netlist.Netlist.net_id -> float

val net_required : t -> Vartune_netlist.Netlist.net_id -> float
(** Latest time the net may settle while meeting every downstream
    endpoint; [infinity] for nets reaching no endpoint. *)

val net_slack : t -> Vartune_netlist.Netlist.net_id -> float
(** [net_required - net_arrival]. *)

val critical_input :
  t ->
  Vartune_netlist.Netlist.inst_id ->
  out_pin:string ->
  (string * Vartune_liberty.Arc.t * float) option
(** The (input pin, arc, delay) that set the output's arrival, if the
    instance has timing arcs. *)

val critical_arc :
  t -> Vartune_netlist.Netlist.net_id -> (string * Vartune_liberty.Arc.t * float) option
(** {!critical_input} of the net's driver, by the net it drives. *)

val endpoints : t -> endpoint_timing list
val worst_slack : t -> float
(** [infinity] when the design has no endpoints. *)

val net_min_arrival : t -> Vartune_netlist.Netlist.net_id -> float
(** Earliest register-launched arrival (min of rise/fall delays along the
    fastest path); [infinity] for nets reached only from primary inputs,
    which are unconstrained for hold without input delays. *)

val hold_endpoints : t -> endpoint_timing list
(** Hold checks at sequential data pins: [arrival] is the earliest
    register-launched arrival, [required] the cell's hold time, [slack]
    their difference.  Pins with no register-launched fanin are omitted. *)

val worst_hold_slack : t -> float
(** [infinity] when no hold check applies. *)

val total_negative_slack : t -> float
(** Sum of negative endpoint slacks (a non-positive number). *)

val endpoint_name : Vartune_netlist.Netlist.t -> endpoint -> string
