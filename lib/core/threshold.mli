(** Sigma-threshold extraction (Section VI-B).

    For the slope-bound methods, the cluster's maximum-equivalent sigma
    LUT is converted to load- and slew-slope tables, both are thresholded
    into binary masks (one bound swept, the other at its default), the
    masks are conjoined, and the largest all-ones rectangle yields the
    threshold: the sigma at the rectangle corner furthest from the
    origin.  The sigma-ceiling method uses its bound directly. *)

type criterion =
  | Load_slope of float
  | Slew_slope of float
  | Sigma_ceiling of float

type defaults = {
  load_bound : float;  (** applied when the load slope is not swept *)
  slew_bound : float;  (** applied when the slew slope is not swept *)
}

val paper_defaults : defaults
(** Table 2: load 1.0, slew 0.06 (the sigma-ceiling default of 100 means
    "no ceiling" and needs no representation here). *)

val extract_slope_threshold :
  Vartune_liberty.Lut.t -> load_bound:float -> slew_bound:float -> float option
(** Largest-rectangle threshold extraction on the conjoined mask; [None]
    when no flat region exists. *)

val of_criterion :
  ?defaults:defaults -> criterion -> cluster_lut:Vartune_liberty.Lut.t -> float option
(** The sigma threshold a criterion assigns to a cluster. *)
