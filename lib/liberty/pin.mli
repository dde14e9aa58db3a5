(** Cell pins. *)

type direction = Input | Output

type t = {
  name : string;
  direction : direction;
  capacitance : float;  (** input capacitance presented to the driving net *)
  max_capacitance : float option;  (** output drive limit, outputs only *)
  arcs : Arc.t list;  (** timing arcs ending at this pin; outputs only *)
}

val input : name:string -> capacitance:float -> t
(** An input pin with no arcs. *)

val output : name:string -> ?max_capacitance:float -> arcs:Arc.t list -> unit -> t
(** An output pin.  Output pins present no load ([capacitance = 0.]). *)

val is_output : t -> bool
val is_input : t -> bool

val direction_to_string : direction -> string
