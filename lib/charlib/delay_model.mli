(** Analytic CMOS gate delay model — the project's stand-in for SPICE.

    The model is logical-effort flavoured:

    {v
    delay = corner * [ out_f * (tau*p*(1+di) + R0*(1+dr)*load)
                       + k_slew * slew * (1 + vt_slew_gain * di) ]
    v}

    where [R0 = r_unit / drive], [di]/[dr] are the local-mismatch samples
    of the intrinsic (threshold-linked) delay and drive resistance, and
    [out_f] is the per-output factor of multi-output cells.  The
    [vt_slew_gain] term models the physical fact that threshold-voltage
    mismatch converts input slew directly into switching-time spread, so
    slow edges amplify local variation.

    Because the corner factor multiplies the whole expression, mean and
    sigma scale together across corners — the property the paper verifies
    in Section VII-C.

    The delay and transition formulas exist once in this module:
    {!fill_arc} evaluates them over a whole table with the per-(cell,
    output, edge, sample) terms hoisted, and {!delay}/{!transition}
    evaluate the same expressions at one point, bit-identically.  Every
    characterised table, nominal or sampled, comes from {!fill_arc}. *)

type params = {
  tau : float;  (** intrinsic delay unit, ns *)
  r_unit : float;  (** drive-1 output resistance, ns/pF *)
  k_slew : float;  (** input-slew to delay coefficient *)
  vt_slew_gain : float;  (** mismatch amplification of the slew term *)
  t_slew_base : float;  (** minimum output transition, ns *)
  k_trans : float;  (** R·C to output-transition coefficient *)
  k_trans_slew : float;  (** input-slew leak into output transition *)
  self_load : float;  (** parasitic output cap per drive unit, in c_unit *)
}

val default : params

type edge = Rise | Fall

val stage_count : Vartune_stdcell.Spec.t -> int
(** Inversion stages of a cell family; complex multi-stage cells average
    independent per-stage mismatch, lowering their relative sigma. *)

val delay :
  params ->
  Vartune_stdcell.Spec.t ->
  drive:int ->
  output:string ->
  edge:edge ->
  corner_factor:float ->
  sample:Vartune_process.Mismatch.sample ->
  slew:float ->
  load:float ->
  float
(** Propagation delay in ns at the given operating point. *)

val transition :
  params ->
  Vartune_stdcell.Spec.t ->
  drive:int ->
  output:string ->
  edge:edge ->
  corner_factor:float ->
  sample:Vartune_process.Mismatch.sample ->
  slew:float ->
  load:float ->
  float
(** Output transition time in ns. *)

val fill_arc :
  params ->
  Vartune_stdcell.Spec.t ->
  drive:int ->
  output:string ->
  corner_factor:float ->
  sample:Vartune_process.Mismatch.sample ->
  slews:float array ->
  loads:float array ->
  float array ->
  int ->
  unit
(** [fill_arc p spec ... ~slews ~loads dst pos] writes the four timing
    surfaces of one output of one cell sample into [dst] from [pos]:
    rise delay, fall delay, rise transition, fall transition, each
    row-major over [slews] × [loads] ([size = rows * cols] entries
    each, [4 * size] in all).  This is the model's one kernel: the
    terms that depend only on (cell, output, edge, sample) are hoisted
    out of the table loop, and every entry is bit-identical to {!delay}
    and {!transition} at that operating point, which evaluate the same
    per-entry formulas.  No entry depends on the input pin, so every
    arc into [output] has these surfaces.  Raises [Invalid_argument]
    when the surfaces do not fit [dst] from [pos]. *)

val internal_energy :
  params ->
  Vartune_stdcell.Spec.t ->
  drive:int ->
  slew:float ->
  load:float ->
  float
(** Internal (short-circuit + internal-node) energy per output transition,
    fJ.  Grows with drive (bigger internal nodes) and with input slew
    (longer short-circuit overlap). *)

val leakage :
  Vartune_stdcell.Spec.t -> drive:int -> float
(** Static leakage power, nW: scales with device count and width. *)

val delay_sigma :
  params ->
  Vartune_stdcell.Spec.t ->
  mismatch:Vartune_process.Mismatch.t ->
  drive:int ->
  output:string ->
  edge:edge ->
  corner_factor:float ->
  slew:float ->
  load:float ->
  float
(** Closed-form standard deviation of {!delay} under the mismatch model —
    the analytic ground truth against which the Monte-Carlo statistical
    library is validated. *)
