(** Plain-text rendering of tables and figures.

    Every experiment prints through these helpers so [vartune figures]
    reads like the paper's tables/figures, with paper-reported values
    alongside measured ones where applicable. *)

val table : header:string list -> rows:string list list -> unit
(** Aligned ASCII table on stdout. *)

val bar_chart : ?width:int -> ?unit_label:string -> (string * float) list -> unit
(** Horizontal bars scaled to the maximum value. *)

val surface : Vartune_liberty.Lut.t -> unit
(** A LUT as a shaded character grid (slew rows × load columns), dark =
    low, plus the numeric range — the textual cousin of the paper's
    surface plots. *)

val int_histogram : ?width:int -> (int * int) list -> unit
(** [(bucket, count)] pairs as a vertical profile. *)

val binned_scatter :
  ?bins:int -> x_label:string -> y_label:string -> float array -> float array -> unit
(** [binned_scatter ~x_label ~y_label xs ys]: scatter data reduced to
    per-bin mean/max rows. *)

val pct : float -> string
(** [0.371] → ["37.1%"]. *)

val ns : float -> string
(** [2.41] → ["2.410 ns"]. *)

val heading : string -> unit
(** Underlined section heading. *)

val sub_heading : string -> unit
