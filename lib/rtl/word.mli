(** Word-level combinators over the generic gate IR.

    A word is an array of node ids, least-significant bit first. *)

type word = Ir.node_id array

val const : Ir.t -> width:int -> int -> word
(** Two's-complement constant. *)

val inputs : Ir.t -> prefix:string -> width:int -> word

val outputs : Ir.t -> prefix:string -> word -> unit

val lognot : Ir.t -> word -> word
val logand : Ir.t -> word -> word -> word
val logor : Ir.t -> word -> word -> word
val logxor : Ir.t -> word -> word -> word

val add : Ir.t -> ?carry_in:Ir.node_id -> word -> word -> word * Ir.node_id
(** Ripple-carry adder built from Xor3/Maj3 pairs; returns (sum, carry
    out). *)

val add_fast : Ir.t -> ?carry_in:Ir.node_id -> ?group:int -> word -> word -> word * Ir.node_id
(** Carry-select adder: ripple groups of [group] bits (default 4)
    computed for both carry polarities, selected by the incoming group
    carry.  Logic depth is O(width/group + group) instead of O(width). *)

val one_hot_mux : Ir.t -> onehot:Ir.node_id array -> word list -> word
(** AND-OR selection network over one-hot select lines — the structure a
    synthesis tool builds for register-file read ports. *)

val sub : Ir.t -> word -> word -> word * Ir.node_id
(** [a - b]; the second component is the *borrow-free* flag (carry out). *)

val mux : Ir.t -> sel:Ir.node_id -> word -> word -> word
(** Bitwise 2:1 mux: [sel ? second : first]. *)

val mux_tree : Ir.t -> sel:word -> word list -> word
(** N-way mux over a power-of-two (padded) list of words, selector LSB
    first. *)

val barrel_shift_left : Ir.t -> word -> amount:word -> word
(** Logical left shift by a log2-width selector word. *)

val barrel_shift_right : Ir.t -> word -> amount:word -> word

val equal : Ir.t -> word -> word -> Ir.node_id
val less_than : Ir.t -> word -> word -> Ir.node_id
(** Unsigned [a < b]. *)

val reduce_or : Ir.t -> word -> Ir.node_id

val multiply : Ir.t -> word -> word -> word
(** Unsigned array multiplier; result width is the sum of the operand
    widths. *)

val reg : Ir.t -> ?enable:Ir.node_id -> ?name:string -> word -> word
(** Registers a word; with [enable], bits recirculate when disabled. *)

val decoder : Ir.t -> word -> Ir.node_id array
(** Full binary decoder: [2^width] one-hot lines. *)

val priority_encode : Ir.t -> Ir.node_id array -> word * Ir.node_id
(** Lowest-index-wins priority encoder; returns (index word, any-valid). *)
