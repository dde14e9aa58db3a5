(** Mutable gate-level netlists.

    The synthesis flow builds a netlist once and then mutates it in place:
    resizing swaps an instance's library cell within its family, buffering
    inserts instances and rewires sinks, decomposition replaces one
    instance with several.  Instances and nets are addressed by dense
    integer ids; removed instances leave tombstones so ids stay stable.
    Every mutator appends the ids it touches to an {{!edits}edit log},
    from which an analysis built on the netlist finds what changed since
    it last looked.  The [mutable] record fields below are changed only
    through these mutators, never directly. *)

type net_id = int
type inst_id = int

type pin_ref = { inst : inst_id; pin : string }

type net = {
  net_id : net_id;
  net_name : string;
  mutable driver : pin_ref option;  (** [None] for primary inputs *)
  mutable sinks : pin_ref list;
}

type instance = {
  inst_id : inst_id;
  inst_name : string;
  mutable cell : Vartune_liberty.Cell.t;
  mutable inputs : (string * net_id) list;  (** pin name → driven-by net *)
  mutable outputs : (string * net_id) list;  (** pin name → driven net *)
}

type t

val create : name:string -> t
val name : t -> string

val add_net : t -> ?net_name:string -> unit -> net_id
val net : t -> net_id -> net
val net_count : t -> int

val add_instance :
  t ->
  inst_name:string ->
  cell:Vartune_liberty.Cell.t ->
  inputs:(string * net_id) list ->
  outputs:(string * net_id) list ->
  inst_id
(** Creates an instance and hooks its pins onto the nets.  Raises
    [Invalid_argument] if an output net already has a driver. *)

val remove_instance : t -> inst_id -> unit
(** Detaches the instance from all nets and tombstones it. *)

val instance : t -> inst_id -> instance
(** Raises [Invalid_argument] for removed or out-of-range ids. *)

val instance_opt : t -> inst_id -> instance option

val set_cell : t -> inst_id -> Vartune_liberty.Cell.t -> unit
(** Swaps the library cell of an instance (resizing).  The new cell must
    expose the pin names the instance uses. *)

val rewire_input : t -> inst:inst_id -> pin:string -> net_id -> unit
(** Moves one input pin of an instance onto a different net. *)

val iter_instances : t -> f:(instance -> unit) -> unit
(** Live instances only, in id order. *)

val fold_instances : t -> init:'a -> f:('a -> instance -> 'a) -> 'a
val iter_nets : t -> f:(net -> unit) -> unit

val instance_count : t -> int
(** Live instances. *)

val instance_bound : t -> int
(** One more than the largest instance id allocated so far, tombstones
    included; {!iter_instances} visits the live ids below it. *)

val mark_primary_input : t -> net_id -> unit
val mark_primary_output : t -> net_id -> unit
val set_clock : t -> net_id -> unit
val primary_inputs : t -> net_id list
val primary_outputs : t -> net_id list
val clock : t -> net_id option

val total_area : t -> float
val cell_usage : t -> (string * int) list
(** Instance count per cell name, sorted descending then by name. *)

val family_usage : t -> (string * int) list

(** {1:edits Edit log}

    Each mutator appends what it touched, in call order:
    - {!add_net}: [Net] of the new net;
    - {!add_instance} and {!remove_instance}: [Instance], then [Net] of
      every input and output net (their sinks or driver changed);
    - {!set_cell}: [Instance], then [Net] of every input net (the sink
      pin capacitances changed);
    - {!rewire_input}: [Instance], then [Net] of the old and new net;
    - {!mark_primary_input}, {!set_clock}: [Net];
    - {!mark_primary_output}: [Output].

    Ids repeat when touched repeatedly; readers deduplicate.  Recording
    starts when a reader first takes a position ({!edit_count}): edits
    made before that are not kept, since no reader can ask for them.  A
    snapshot ({!import}) starts with an empty log. *)

type edit =
  | Instance of inst_id  (** created, removed, re-celled or rewired *)
  | Net of net_id  (** created, or its driver, sinks, sink cells or port marks changed *)
  | Output of net_id  (** marked as a primary output *)

val edit_count : t -> int
(** Entries logged so far: a position to read the log from later.  The
    first call starts the recording. *)

val iter_edits : t -> from:int -> f:(edit -> unit) -> unit
(** The entries from position [from] on, oldest first. *)

val fresh_name : t -> prefix:string -> string
(** A fresh, design-unique instance name. *)

(** {1 Faithful snapshots}

    [export]/[import] capture the {e exact} internal state — tombstone
    slots, sink-list order (which fixes the float summation order of net
    loads, hence last-ulp timing bits) and the name counter — so a
    round-tripped netlist is indistinguishable from the original to
    every downstream analysis.  Rebuilding through {!add_instance} could
    not guarantee that.  Used by the persistent artifact store. *)

type repr = {
  repr_name : string;
  repr_nets : (string * pin_ref option * pin_ref list) array;
      (** per net: name, driver, sinks in live order *)
  repr_instances :
    (string * Vartune_liberty.Cell.t * (string * net_id) list * (string * net_id) list)
    option
    array;  (** per slot: name, cell, inputs, outputs; [None] = tombstone *)
  repr_pis : net_id list;  (** in {!primary_inputs} order *)
  repr_pos : net_id list;
  repr_clock : net_id option;
  repr_name_counter : int;
}

val export : t -> repr

val import : repr -> t
(** Rebuilds a netlist from a snapshot, re-validating structural
    consistency (pins exist on their cells, net endpoints agree with
    instance connections).  Raises [Invalid_argument] on any
    inconsistency — malformed snapshots are rejected, not repaired. *)
