(** A timing library: a named set of characterised cells at one process
    corner. *)

type t

val make : name:string -> corner:string -> cells:Cell.t list -> t
(** Raises [Invalid_argument] on duplicate cell names. *)

val name : t -> string
val corner : t -> string

val cells : t -> Cell.t list
(** In insertion order. *)

val size : t -> int

val find : t -> string -> Cell.t
(** Raises [Not_found]. *)

val find_opt : t -> string -> Cell.t option

val mem : t -> string -> bool

val families : t -> string list
(** Distinct cell families, sorted. *)

val family_members : t -> string -> Cell.t list
(** Cells of one family, sorted by drive strength. *)

val drive_cluster : t -> int -> Cell.t list
(** All cells with the given drive strength. *)

val filter : t -> f:(Cell.t -> bool) -> t
(** Sub-library keeping cells satisfying [f]. *)

val total_area : t -> float
