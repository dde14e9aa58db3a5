(** Serialiser for the liberty-like text format; inverse of {!Parser}. *)

val to_string : Library.t -> string

val write_file : string -> Library.t -> unit
(** Writes exactly the {!to_string} bytes to the given path. *)
