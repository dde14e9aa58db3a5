(** Per-pin look-up-table restriction (Section VI-C).

    Synthesis tools confine a LUT per output pin, so the worst case over
    that pin's arcs is taken: the maximum-equivalent sigma LUT is
    thresholded into a binary mask and the largest all-ones rectangle
    becomes the pin's allowed (slew, load) window. *)

type window = {
  slew_min : float;
  slew_max : float;
  load_min : float;
  load_max : float;
}

type status =
  | Unrestricted  (** no statistics on the pin (e.g. tie cells) *)
  | Window of window
  | Unusable  (** no LUT entry satisfies the threshold *)

type table
(** Restriction table for a whole library: (cell, output pin) → status,
    with a {!summary} per cell kept current by {!set}. *)

val window_allows : window -> slew:float -> load:float -> bool

val lut_window : Vartune_liberty.Lut.t -> ceiling:float -> status
(** The largest all-ones rectangle of the LUT's entries at or under
    [ceiling], as a [Window]; [Unusable] when no entry qualifies. *)

val pin_window :
  Vartune_liberty.Pin.t -> threshold:float -> status
(** Stage-two restriction of one output pin: {!lut_window} of the
    maximum-equivalent sigma LUT over its arcs. *)

val empty_table : unit -> table

val set : table -> cell:string -> pin:string -> status -> unit
(** Enters the status of one output pin of a cell, replacing any
    earlier one, and updates the cell's {!summary}. *)

val find : table -> cell:string -> pin:string -> status
(** Defaults to [Unrestricted] for absent entries. *)

val allows : table -> cell:string -> pin:string -> slew:float -> load:float -> bool

(** {1 Per-cell summaries}

    What synthesis asks of a cell — may it be used, does every output
    pin's window admit an operating point, how tight are the bounds —
    answered with one lookup by cell name instead of a fold over its
    pins.  A summary covers the pins entered for the cell, which are
    its output pins. *)

type summary = {
  usable : bool;  (** no pin is [Unusable] *)
  windowed : bool;  (** some pin has a [Window] *)
  slew_lo : float;  (** the intersection of the pins' windows... *)
  slew_hi : float;
  load_lo : float;
  load_hi : float;  (** ...infinite bounds when [windowed] is false *)
  load_max : float;
      (** tightest window [load_max], [0.0] folded in for an unusable
          pin; [infinity] when unrestricted *)
  slew_max : float;  (** likewise for [slew_max] *)
}

val unrestricted : summary
(** The summary of a cell with no entries. *)

val summary : table -> cell:string -> summary

val summary_allows : summary -> slew:float -> load:float -> bool
(** Whether every pin of the summarised cell admits the point: the
    cell is usable and the point lies in every window.  Equal to
    {!allows} holding for each of the cell's pins. *)

val restricted_pins : table -> (string * string * status) list
(** All entries, sorted, for reporting. *)

val restriction_fraction : table -> Vartune_liberty.Library.t -> float
(** Fraction of LUT entries removed from use across the library — a
    coarse aggressiveness measure for reports. *)
