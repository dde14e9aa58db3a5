(** A timing arc: one input-pin → output-pin propagation path of a cell.

    Each arc carries four nominal tables (rise/fall delay, rise/fall output
    transition).  In a statistical library the delay tables are accompanied
    by sigma tables holding the per-entry standard deviation of the delay
    under local variation (Section IV of the paper). *)

type sense = Positive_unate | Negative_unate | Non_unate

type t = {
  related_pin : string;  (** name of the triggering input pin *)
  sense : sense;
  rise_delay : Lut.t;
  fall_delay : Lut.t;
  rise_transition : Lut.t;
  fall_transition : Lut.t;
  rise_delay_sigma : Lut.t option;  (** statistical libraries only *)
  fall_delay_sigma : Lut.t option;
  internal_power : Lut.t option;
  (** internal (short-circuit + internal-node) energy per output
      transition, fJ, over the same (slew, load) grid *)
}

val make :
  related_pin:string ->
  sense:sense ->
  rise_delay:Lut.t ->
  fall_delay:Lut.t ->
  rise_transition:Lut.t ->
  fall_transition:Lut.t ->
  ?rise_delay_sigma:Lut.t ->
  ?fall_delay_sigma:Lut.t ->
  ?internal_power:Lut.t ->
  unit ->
  t
(** Builds an arc; all tables must share axes.
    Raises [Invalid_argument] otherwise. *)

val worst_delay : t -> Lut.t
(** Pointwise max of rise and fall delay. *)

val worst_sigma : t -> Lut.t option
(** Pointwise max of the sigma tables, when present. *)

val delay : t -> slew:float -> load:float -> float
(** Worst-case (max of rise/fall) interpolated delay. *)

val min_delay : t -> slew:float -> load:float -> float
(** Best-case (min of rise/fall) interpolated delay — used by hold
    analysis. *)

val transition : t -> slew:float -> load:float -> float
(** Worst-case interpolated output transition. *)

val eval_into : t -> slew:float -> load:float -> out:float array -> unit
(** One-shot arc evaluation for the STA inner loop: a single fused
    segment search over the arc's shared axes computes all four
    surfaces, leaving [out.(0) = delay], [out.(1) = min_delay] and
    [out.(2) = transition] — each bit-identical to the corresponding
    scalar query above.  [out] must have length >= 4 ([out.(3)] is
    internal scratch); it is caller-owned so repeated evaluation
    allocates nothing.  Raises [Invalid_argument] if [out] is too
    short. *)

val sigma : t -> slew:float -> load:float -> float
(** Worst-case interpolated delay sigma; [0.] for nominal libraries. *)

val has_sigma : t -> bool

val energy : t -> slew:float -> load:float -> float
(** Interpolated internal energy per transition, fJ; [0.] when the
    library carries no power tables. *)

val sense_to_string : sense -> string
val sense_of_string : string -> sense option
