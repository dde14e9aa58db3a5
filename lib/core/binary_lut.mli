(** Boolean LUT masks (Section VI-B).

    A binary LUT marks which (slew, load) entries of a table are
    acceptable: 1 where a value passes its threshold, 0 elsewhere. *)

type t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> bool

val of_threshold : Vartune_liberty.Lut.t -> threshold:float -> t
(** Entries strictly below [threshold] become 1 — "all table entries which
    are smaller than the slope threshold become a logic one". *)

val of_ceiling : Vartune_liberty.Lut.t -> ceiling:float -> t
(** Entries at or below [ceiling] become 1 (used for sigma ceilings where
    the bound itself must remain usable). *)

val logical_and : t -> t -> t
(** Pointwise conjunction; dimensions must agree. *)

val all_true_in : t -> row_lo:int -> col_lo:int -> row_hi:int -> col_hi:int -> bool
(** Whether the inclusive rectangle contains only ones. *)

val count_true : t -> int

val of_bool_rows : bool array array -> t
(** For tests; rows must be non-ragged and non-empty. *)
