(** Small descriptive-statistics toolkit used throughout the project. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (divides by [n - 1]); [0.] for n < 2. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val population_variance : float array -> float
(** Population variance (divides by [n]). *)

val coefficient_of_variation : float array -> float
(** [stddev / mean] — the paper's "variability" metric (eq. 1). *)

val min_max : float array -> float * float
(** Smallest and largest element.  Raises [Invalid_argument] on empty. *)

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [\[0,1\]]; linear interpolation between
    order statistics.  Does not mutate its argument. *)

val histogram : bins:int -> float array -> (float * float * int) array
(** [histogram ~bins a] buckets the samples into [bins] equal-width bins
    over [\[min, max\]]; each cell is [(lo, hi, count)]. *)

val covariance : float array -> float array -> float
(** Unbiased sample covariance of two equal-length series. *)

val correlation : float array -> float array -> float
(** Pearson correlation; [0.] if either series is constant. *)
