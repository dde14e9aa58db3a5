(** The paper's evaluation as one table of exhibits.

    Each generator prints a self-contained plain-text reproduction of
    one table or figure, annotated with the paper's reported values
    where the paper gives any.  Generators share synthesis results
    through the setup that holds every run it fetched (see
    {!Experiment}), so running them in sequence (as {!run_all} does)
    costs each synthesis only once. *)

val paper_bounds : float list
(** Table 2 slope-bound sweep: 1, 0.05, 0.03, 0.01. *)

val paper_ceilings : float list
(** Table 2 sigma-ceiling sweep: 0.04, 0.03, 0.02, 0.01. *)

val guard_band : float
(** The clock uncertainty (ns) every timing run subtracts from the
    clock period: {!Vartune_sta.Timing.default_config}'s. *)

val clock_for_yield :
  Vartune_stats.Dist.t list -> target:float -> period:float -> float
(** The clock (ns, rounded up to 1 ps) at which the paths' parametric
    yield, evaluated at the clock minus {!guard_band}, reaches [target];
    the effective period is searched in [\[period / 2, 2 period\]].
    This is the clock the [ext-yield] exhibit prints. *)

val exhibits : (string list * (Experiment.setup Lazy.t -> unit)) list
(** Every exhibit in {!run_all} order: the names [vartune figures]
    accepts for it and its generator.  [fig10] and [table3] name one
    entry, which prints Fig 10 and then Table 3.  A generator forces
    the setup only if it reads it, so Fig 1, Fig 3 and Table 2 print
    without building one. *)

val run_all : Experiment.setup Lazy.t -> unit
(** Every exhibit in paper order. *)
