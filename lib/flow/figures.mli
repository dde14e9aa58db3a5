(** One generator per table and figure of the paper's evaluation.

    Each function prints a self-contained plain-text reproduction of the
    corresponding exhibit, annotated with the paper's reported values
    where the paper gives any.  Generators share synthesis results
    through the setup that holds every run it fetched (see
    {!Experiment}), so calling them in sequence (as {!run_all} and
    [vartune figures] do) costs each synthesis only once. *)

val paper_bounds : float list
(** Table 2 slope-bound sweep: 1, 0.05, 0.03, 0.01. *)

val paper_ceilings : float list
(** Table 2 sigma-ceiling sweep: 0.04, 0.03, 0.02, 0.01. *)

val fig1_metric : unit -> unit
(** Variability vs sigma as a selection metric. *)

val fig2_statlib : Experiment.setup -> unit
(** Statistical library construction: Monte-Carlo sigma vs the analytic
    closed form for a sample of cells. *)

val fig3_bilinear : unit -> unit
(** Bilinear interpolation (eqs. 2–4) against a closed-form surface. *)

val fig4_inv_surfaces : Experiment.setup -> unit
(** Sigma surfaces across the inverter drive ladder. *)

val fig5_drive6 : Experiment.setup -> unit
(** Sigma surfaces of the drive-6 cluster. *)

val fig6_rectangle : Experiment.setup -> unit
(** Largest-rectangle extraction on a real binary LUT. *)

val fig7_all_luts : Experiment.setup -> unit
(** Library-wide sigma envelope surface. *)

val fig8_period_area : Experiment.setup -> unit
(** Clock period vs area of baseline synthesis. *)

val table1_periods : Experiment.setup -> unit
(** The clock-period ladder, paper values alongside. *)

val table2_parameters : unit -> unit
(** The constraint-parameter grid used during threshold extraction. *)

val fig9_cell_use : Experiment.setup -> unit
(** Cell-use histograms: baseline vs sigma-ceiling tuned, at the high
    and low performance clocks. *)

type winner = {
  period_label : string;
  period : float;
  method_name : string;
  parameter : float;
  reduction : float;
  area_delta : float;
  sigma : float;
  area : float;
}

val fig10_method_sweep : Experiment.setup -> winner list
(** The headline experiment: per period, the best (area < +10 %) point
    of each of the five methods.  Prints the figure and returns the
    winners for {!table3_winners}. *)

val table3_winners : winner list -> unit

val fig11_tradeoff : Experiment.setup -> unit
(** Sigma-reduction vs area-increase across the sigma-ceiling sweep at
    the high-performance clock. *)

val fig12_depths : Experiment.setup -> unit
(** Path-depth histograms, baseline vs sigma ceiling. *)

val fig13_sigma_depth : Experiment.setup -> unit
(** Path sigma vs path depth. *)

val fig14_mean3sigma : Experiment.setup -> unit
(** Mean + 3 sigma per path against the effective clock period. *)

val fig15_corners : Experiment.setup -> unit
(** Path Monte Carlo across corners: mean and sigma scale together. *)

val fig16_local_share : Experiment.setup -> unit
(** Local vs global+local MC: local dominates short paths. *)

val extension_power : Experiment.setup -> unit
(** Beyond the paper: the power cost of robustness.  Average-power report
    (switching / internal / leakage) for the baseline and the winning
    sigma-ceiling design at the high-performance clock. *)

val extension_yield : Experiment.setup -> unit
(** Beyond the paper: parametric timing yield vs clock period for the
    baseline and tuned designs — the quantity the guard band protects. *)

val extension_hold : Experiment.setup -> unit
(** Beyond the paper: hold (min-delay) checks are unaffected by the
    restriction, since tuning only forbids slow operating points. *)

val futurework_layout : Experiment.setup -> unit
(** The paper's future work, implemented: re-measure the design sigma
    after row-based placement (HPWL wire loads replacing the synthesis
    fanout model) and synthesise a clock tree to report the skew the
    paper wonders about.  Shows whether the tuning reduction survives
    layout within this model. *)

val ablation_guard_band : Experiment.setup -> unit
(** Section III's motivation quantified: local variation is budgeted as
    clock uncertainty, so a sigma reduction converts into a smaller guard
    band and hence a faster usable clock.  Compares the 3-sigma guard
    band implied by the worst path of the baseline vs the tuned design. *)

val ablation_mapping_style : Experiment.setup -> unit
(** Mapper design choice: Area-style initial covering (complex cells,
    full-adder fusion) vs Delay-style (NAND/NOR + inverter networks),
    compared on area, sigma and worst slack at the medium clock. *)

val ablation_rho : Experiment.setup -> unit
(** Design sigma under correlation assumptions ρ ∈ {0, 0.1, 0.3}
    (eqs. 8–10). *)

val ablation_variability_metric : Experiment.setup -> unit
(** Section III's rejected metric: tuning on a coefficient-of-variation
    ceiling instead of a sigma ceiling. *)

val run_all : Experiment.setup -> unit
(** Every exhibit in paper order. *)
