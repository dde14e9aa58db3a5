(** Path-level convolution of cell delay distributions (Section V-B).

    A data-path's delay distribution follows from its cells':
    - eq. (5): the path mean is the sum of cell means;
    - eqs. (6)–(9): the path variance sums the full covariance matrix,
      which under a uniform correlation [rho] collapses to
      [sum sigma_i^2 + sum_{i<>j} rho sigma_i sigma_j];
    - eq. (10): with [rho = 0] (the paper's assumption for local
      variation) the variance is just the sum of squared sigmas. *)

val path_variance_cov : float array array -> float
(** eq. (8): sum of all entries of a covariance matrix.
    Raises [Invalid_argument] if the matrix is not square. *)

val covariance_matrix : sigmas:float array -> rho:float -> float array array
(** eqs. (6)–(7) with a uniform correlation coefficient. *)

val path_dist_rho : rho:float -> (float * float) list -> Dist.t
(** Path distribution from [(mean, sigma)] cell pairs under uniform
    correlation [rho] (eq. 9).  [rho] must lie in [\[0, 1\]]. *)

val path_dist : (float * float) list -> Dist.t
(** eq. (10): the [rho = 0] special case. *)

val of_path : Vartune_sta.Path.t -> Dist.t
(** [path_dist] of the path's per-step [(mean, sigma)]: the mean is the
    step delay the timer computed; the sigma is interpolated from the
    arc's sigma tables at the same (slew, load) operating point.  Sigma
    is [0.] when the library carries no statistics. *)

val of_path_rho : rho:float -> Vartune_sta.Path.t -> Dist.t
