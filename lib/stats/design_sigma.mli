(** Design-level local-variation metric (Section V, eq. 11).

    The design distribution aggregates the worst path to every unique
    endpoint: means sum, variances sum.  It is the figure the tuning
    methods are judged by (Figs. 10–11). *)

type t = {
  dist : Dist.t;  (** the design's aggregate (mean, sigma) *)
  paths : int;  (** number of endpoint paths aggregated *)
  worst_path_3sigma : float;  (** max over paths of mean + 3 sigma *)
}

val of_paths : Vartune_sta.Path.t list -> t
(** Aggregates pre-extracted critical paths (eq. 11). *)

val of_dists : Dist.t list -> Dist.t
(** eq. (11) over already-convolved path distributions. *)

val measure : Vartune_sta.Timing.t -> Vartune_netlist.Netlist.t -> t
(** [of_paths (Vartune_sta.Path.worst_per_endpoint timing nl)], bit for
    bit in every field, without building the path list.  It walks each
    endpoint's critical chain ({!Vartune_sta.Timing.critical_arc}) the
    way {!Vartune_sta.Path.extract} does, keeps each step's delay and
    {!Vartune_liberty.Arc.sigma} in a scratch array reused across
    endpoints, and folds them launch to capture in the order
    {!Convolve.of_path} and {!Dist.sum_independent} add.  On the mcu it
    takes about half the time of extracting the paths and convolving
    them.  Like the path extraction, it builds the timing's endpoint
    lists if no earlier call did. *)
