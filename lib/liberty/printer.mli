(** Serialiser for the liberty-like text format; inverse of {!Parser}. *)

val to_string : ?pool:Vartune_util.Pool.t -> Library.t -> string
(** The library as text.  Contiguous runs of cells are rendered on
    [pool]'s domains (default {!Vartune_util.Pool.default}) and joined
    in input order into one string of the exact total length, so the
    bytes do not depend on the job count or the run size. *)

val write_file : string -> Library.t -> unit
(** Writes exactly the {!to_string} bytes to the given path. *)
