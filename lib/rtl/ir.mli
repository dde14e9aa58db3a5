(** Technology-independent gate network.

    Elaborated RTL becomes a DAG of single-output generic nodes.  Adders
    appear as [Xor3]/[Maj3] pairs over the same three fanins, which the
    technology mapper may fuse into full-adder cells; everything else maps
    one node to one (or a few) library cells.

    The graph hash-conses combinational nodes, so logically identical
    subterms are shared. *)

type node_id = int

type op =
  | Input of string
  | Const0
  | Const1
  | Not
  | Buf
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Mux2  (** fanins [a; b; s]: output = s ? b : a *)
  | Xor3  (** adder sum *)
  | Maj3  (** adder carry *)
  | Ff of string  (** D flip-flop; fanin [d]; the node is the Q output *)

type t

val create : name:string -> t
val name : t -> string

val input : t -> string -> node_id
val const0 : t -> node_id
val const1 : t -> node_id
val not_ : t -> node_id -> node_id
val and2 : t -> node_id -> node_id -> node_id
val or2 : t -> node_id -> node_id -> node_id
val xor2 : t -> node_id -> node_id -> node_id
val xnor2 : t -> node_id -> node_id -> node_id
val nand2 : t -> node_id -> node_id -> node_id
val nor2 : t -> node_id -> node_id -> node_id
val mux2 : t -> a:node_id -> b:node_id -> s:node_id -> node_id
val xor3 : t -> node_id -> node_id -> node_id -> node_id
val maj3 : t -> node_id -> node_id -> node_id -> node_id

val ff : t -> ?name:string -> d:node_id -> unit -> node_id
(** A flip-flop; never hash-consed. *)

val ff_forward : t -> ?name:string -> unit -> node_id
(** A flip-flop whose D input is supplied later with {!set_ff_data} —
    needed for feedback structures such as enabled registers. *)

val set_ff_data : t -> node_id -> node_id -> unit
(** [set_ff_data t ff d] connects the D input of a forward-declared
    flip-flop.  Raises [Invalid_argument] if [ff] is not a flip-flop or is
    already connected. *)

val ff_data_connected : t -> node_id -> bool

val output : t -> string -> node_id -> unit
(** Declares a primary output. *)

val op_of : t -> node_id -> op
val fanins : t -> node_id -> node_id array
val node_count : t -> int
val outputs : t -> (string * node_id) list
val inputs : t -> (string * node_id) list

val iter_nodes : t -> f:(node_id -> op -> node_id array -> unit) -> unit
(** Visits every node in creation (topological) order. *)

val fingerprint : t -> int
(** Structural hash over every node (op, fanins) and the output bindings.
    Designs that differ anywhere in the graph get different fingerprints
    (up to hash collisions), making it a safe memoisation key where the
    node count alone is not. *)

val stats : t -> (string * int) list
(** Node count per op tag. *)
