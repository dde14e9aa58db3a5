(** Generic syntax tree for the liberty-like text format.

    The format mirrors Liberty's structure: nested named groups with
    optional arguments, simple attributes ([name : value ;]) and complex
    attributes ([name("...", "...") ;]). *)

type value = Number of float | String of string | Ident of string

type group = {
  gname : string;  (** e.g. ["library"], ["cell"], ["timing"] *)
  args : string list;  (** e.g. the cell name in [cell(ND2_1)] *)
  attrs : (string * value) list;  (** simple attributes, in order *)
  complex : (string * value list) list;  (** complex attributes, in order *)
  groups : group list;  (** child groups, in order *)
}

val attr : group -> string -> value option
(** First simple attribute with the given name. *)

val attr_string : group -> string -> string option
(** Attribute as a string (accepts [String] and [Ident]). *)

val attr_float : group -> string -> float option

val attr_int : group -> string -> int option

val complex_values : group -> string -> value list option
(** First complex attribute with the given name. *)

val child_groups : group -> string -> group list
(** All child groups with the given name, in order. *)

val float_list_of_values : value list -> float array
(** Flattens complex-attribute values into floats: numbers pass through and
    strings are split on commas/whitespace, as liberty's
    [index_1("0.1, 0.2")] requires.  Raises [Failure] on malformed input. *)
