module Lut = Vartune_liberty.Lut
module Cell = Vartune_liberty.Cell
module Pin = Vartune_liberty.Pin
module Arc = Vartune_liberty.Arc
module Library = Vartune_liberty.Library
module Grid = Vartune_util.Grid
module Stat = Vartune_util.Stat
module Rng = Vartune_util.Rng
module Corner = Vartune_process.Corner
module Mismatch = Vartune_process.Mismatch
module Delay_model = Vartune_charlib.Delay_model
module Characterize = Vartune_charlib.Characterize
module Catalog = Vartune_stdcell.Catalog
module Spec = Vartune_stdcell.Spec
module Netlist = Vartune_netlist.Netlist
module Synthesis = Vartune_synth.Synthesis
module Constraints = Vartune_synth.Constraints
module Path = Vartune_sta.Path
module Dist = Vartune_stats.Dist
module Convolve = Vartune_stats.Convolve
module Design_sigma = Vartune_stats.Design_sigma
module Cluster = Vartune_tuning.Cluster
module Threshold = Vartune_tuning.Threshold
module Restrict = Vartune_tuning.Restrict
module Rectangle = Vartune_tuning.Rectangle
module Binary_lut = Vartune_tuning.Binary_lut
module Slope = Vartune_tuning.Slope
module Tuning_method = Vartune_tuning.Tuning_method
module Path_mc = Vartune_monte.Path_mc

let paper_bounds = [ 1.0; 0.05; 0.03; 0.01 ]
let paper_ceilings = [ 0.04; 0.03; 0.02; 0.01 ]

let design_sigma_of (run : Experiment.run) =
  run.Experiment.design_sigma.Design_sigma.dist.Dist.sigma

(* ------------------------------------------------------------------ *)

let fig1_metric () =
  Report.heading "Fig 1 — variability is not the right selection metric";
  let left = Dist.make ~mean:0.5 ~sigma:0.01 in
  let right = Dist.make ~mean:5.0 ~sigma:0.1 in
  Report.table
    ~header:[ "distribution"; "mean"; "sigma"; "variability (eq 1)" ]
    ~rows:
      [
        [ "left"; "0.5"; "0.01"; Printf.sprintf "%.3f" (Dist.variability left) ];
        [ "right"; "5.0"; "0.10"; Printf.sprintf "%.3f" (Dist.variability right) ];
      ];
  Printf.printf
    "  identical variability %.3f, but sigma differs 10x -> selection must use sigma.\n"
    (Dist.variability left)

let worst_sigma_lut cell =
  match List.concat_map (fun (p : Pin.t) -> List.filter_map Arc.worst_sigma p.arcs)
          (Cell.output_pins cell)
  with
  | [] -> None
  | luts -> Some (Slope.max_equivalent_by_index luts)

let fig2_statlib (setup : Experiment.setup) =
  Report.heading "Fig 2 — statistical library construction (MC sigma vs closed form)";
  Printf.printf "  %d sample libraries merged entry-wise (Welford), N=%d\n"
    setup.Experiment.samples setup.Experiment.samples;
  let probe_cells = [ "INV_1"; "INV_32"; "ND2_4"; "NR4_6"; "FA1_8"; "DFF_1" ] in
  let rows =
    List.filter_map
      (fun name ->
        match Library.find_opt setup.Experiment.statlib name with
        | None -> None
        | Some cell ->
          let spec = Option.get (Catalog.find cell.Cell.family) in
          let errs = ref [] in
          List.iter
            (fun (p : Pin.t) ->
              List.iter
                (fun (arc : Arc.t) ->
                  Option.iter
                    (fun sigma_lut ->
                      let slews = Lut.slews sigma_lut and loads = Lut.loads sigma_lut in
                      Array.iter
                        (fun slew ->
                          Array.iter
                            (fun load ->
                              let mc = Lut.lookup sigma_lut ~slew ~load in
                              let cf =
                                Delay_model.delay_sigma setup.Experiment.char_config.Characterize.params
                                  spec ~mismatch:setup.Experiment.mismatch
                                  ~drive:cell.Cell.drive_strength ~output:p.Pin.name
                                  ~edge:Delay_model.Rise
                                  ~corner_factor:(Corner.delay_factor Corner.typical)
                                  ~slew ~load
                              in
                              if cf > 1e-9 then errs := Float.abs (mc -. cf) /. cf :: !errs)
                            loads)
                        slews)
                    arc.Arc.rise_delay_sigma)
                p.Pin.arcs)
            (Cell.output_pins cell);
          let errors = Array.of_list !errs in
          if Array.length errors = 0 then None
          else
            Some
              [
                name;
                Report.pct (Stat.mean errors);
                Report.pct (snd (Stat.min_max errors));
              ])
      probe_cells
  in
  Report.table ~header:[ "cell"; "mean |MC-analytic|/analytic"; "max" ] ~rows;
  Printf.printf "  (sampling error of a stddev over N=%d is ~%s, so agreement at this level\n"
    setup.Experiment.samples
    (Report.pct (1.0 /. sqrt (2.0 *. float_of_int (setup.Experiment.samples - 1))));
  Printf.printf "   validates the entry-wise merge; the paper saw up to 2x at N=50.)\n"

let fig3_bilinear () =
  Report.heading "Fig 3 — bilinear interpolation (eqs 2-4)";
  let f ~slew ~load = 0.01 +. (0.3 *. slew) +. (2.0 *. load) +. (0.5 *. slew *. load) in
  let lut =
    Lut.of_fn ~slews:[| 0.01; 0.1; 0.4; 1.0 |] ~loads:[| 0.001; 0.01; 0.05; 0.1 |] f
  in
  let rng = Rng.create 7 in
  let max_err = ref 0.0 in
  for _ = 1 to 1000 do
    let slew = 0.01 +. Rng.float rng 0.99 in
    let load = 0.001 +. Rng.float rng 0.099 in
    let exact = f ~slew ~load in
    let interp = Lut.lookup lut ~slew ~load in
    max_err := Float.max !max_err (Float.abs (interp -. exact) /. exact)
  done;
  Printf.printf
    "  1000 random probes of a bilinear surface: max relative error %.2e (exact up to fp).\n"
    !max_err

let fig4_inv_surfaces (setup : Experiment.setup) =
  Report.heading "Fig 4 — INV sigma surfaces across drive strengths";
  List.iter
    (fun name ->
      match Library.find_opt setup.Experiment.statlib name with
      | None -> ()
      | Some cell ->
        Option.iter
          (fun lut ->
            Report.sub_heading name;
            Report.surface lut)
          (worst_sigma_lut cell))
    [ "INV_1"; "INV_4"; "INV_12"; "INV_32" ];
  print_endline
    "  Higher drives: lower sigma overall and flatter gradient (bigger devices match better)."

let fig5_drive6 (setup : Experiment.setup) =
  Report.heading "Fig 5 — sigma envelope of every drive-6 cell";
  let cluster =
    Cluster.clusters setup.Experiment.statlib Cluster.Per_drive_strength
    |> List.find_opt (fun c -> c.Cluster.label = "drive_6")
  in
  match cluster with
  | None -> print_endline "  (no drive-6 cells)"
  | Some c ->
    Printf.printf "  cluster of %d cells: " (List.length c.Cluster.cells);
    List.iteri
      (fun i (cell : Cell.t) -> if i < 12 then Printf.printf "%s " cell.Cell.name)
      c.Cluster.cells;
    print_newline ();
    (match Cluster.equivalent_lut c with
    | Some lut -> Report.surface lut
    | None -> ());
    (* per-cell sigma ranges, like the stacked surfaces of the figure *)
    let rows =
      List.filter_map
        (fun (cell : Cell.t) ->
          Option.map
            (fun lut ->
              let g = Lut.values lut in
              [ cell.Cell.name;
                Printf.sprintf "%.4f" (Grid.min_value g);
                Printf.sprintf "%.4f" (Grid.max_value g) ])
            (worst_sigma_lut cell))
        c.Cluster.cells
    in
    Report.table ~header:[ "cell"; "min sigma (ns)"; "max sigma (ns)" ]
      ~rows:(List.filteri (fun i _ -> i < 14) rows)

let fig6_rectangle (setup : Experiment.setup) =
  Report.heading "Fig 6 — largest rectangle on a binary LUT (Algorithm 1)";
  let cell = Library.find setup.Experiment.statlib "ND2_2" in
  match worst_sigma_lut cell with
  | None -> ()
  | Some lut ->
    let g = Lut.values lut in
    let threshold = (Grid.min_value g +. Grid.max_value g) /. 2.0 in
    let mask = Binary_lut.of_ceiling lut ~ceiling:threshold in
    (match Rectangle.naive_largest mask with
    | None -> print_endline "  no all-ones rectangle"
    | Some rect ->
      Printf.printf "  cell ND2_2, threshold %.4f ns; R marks the extracted rectangle:\n"
        threshold;
      for i = 0 to Binary_lut.rows mask - 1 do
        print_string "  ";
        for j = 0 to Binary_lut.cols mask - 1 do
          let c =
            if Rectangle.contains rect ~row:i ~col:j then 'R'
            else if Binary_lut.get mask i j then '1'
            else '.'
          in
          print_char c;
          print_char c
        done;
        print_newline ()
      done;
      let row, col = Rectangle.far_corner rect in
      Printf.printf "  far corner (%d,%d): extracted sigma threshold = %.4f ns\n" row col
        (Lut.get lut row col);
      (* cross-check the optimised algorithm *)
      let optimised = Rectangle.largest mask in
      let naive_area = Rectangle.area rect in
      let opt_area = Option.fold ~none:0 ~some:Rectangle.area optimised in
      Printf.printf "  optimised max-rectangle agrees on area: %d = %d\n" naive_area opt_area)

let fig7_all_luts (setup : Experiment.setup) =
  Report.heading "Fig 7 — all cell delay-sigma LUTs of the statistical library";
  let luts =
    List.filter_map worst_sigma_lut (Library.cells setup.Experiment.statlib)
  in
  let envelope = Slope.max_equivalent_by_index luts in
  Printf.printf "  %d sigma tables; library-wide envelope surface:\n" (List.length luts);
  Report.surface envelope;
  let sigmas =
    List.concat_map (fun lut -> Array.to_list (Array.concat (Array.to_list (Grid.to_arrays (Lut.values lut))))) luts
  in
  let arr = Array.of_list sigmas in
  Printf.printf "  sigma entries: min %.4f  median %.4f  p95 %.4f  max %.4f (ns)\n"
    (fst (Stat.min_max arr)) (Stat.percentile arr 0.5) (Stat.percentile arr 0.95)
    (snd (Stat.min_max arr))

let fig8_period_area (setup : Experiment.setup) =
  Report.heading "Fig 8 — clock period vs area (baseline synthesis)";
  let tmin = setup.Experiment.min_period in
  (* the sub-minimum points show the hockey stick: synthesis burns area
     chasing an unreachable clock, then fails *)
  let factors = [ 0.85; 0.92; 0.97; 1.0; 1.05; 1.15; 1.3; 1.5; 1.8; 2.2; 2.8; 3.5; 4.2 ] in
  let rows =
    List.map
      (fun f ->
        let period = Float.round (tmin *. f *. 100.0) /. 100.0 in
        let run = Experiment.baseline setup ~period in
        [
          Printf.sprintf "%.2f" period;
          Printf.sprintf "%.0f" run.Experiment.result.Synthesis.area;
          string_of_int run.Experiment.result.Synthesis.instances;
          (if run.Experiment.result.Synthesis.feasible then "yes" else "NO");
        ])
      factors
  in
  Report.table ~header:[ "period (ns)"; "area (um^2)"; "cells"; "feasible" ] ~rows;
  print_endline
    "  Shape check: area decays as the clock relaxes and flattens at the 'relaxed knee'\n\
    \  (the paper's 10 ns point); the knee defines the low-performance constraint."

let table1_periods (setup : Experiment.setup) =
  Report.heading "Table 1 — clock periods for the constraint ladder";
  let paper = [ ("high", 2.41); ("close", 2.5); ("medium", 4.0); ("low", 10.0) ] in
  let rows =
    List.map
      (fun (label, period) ->
        [ label; Printf.sprintf "%.2f" (List.assoc label paper); Printf.sprintf "%.2f" period ])
      setup.Experiment.periods
  in
  Report.table ~header:[ "constraint"; "paper (ns)"; "measured (ns)" ] ~rows;
  Printf.printf
    "  Our technology closes at %.2f ns; the ladder keeps the paper's ratios to 2.41 ns.\n"
    setup.Experiment.min_period

let table2_parameters () =
  Report.heading "Table 2 — constraint parameters for threshold extraction";
  Report.table
    ~header:[ "parameter"; "sweep values"; "default" ]
    ~rows:
      [
        [ "load slope bound"; String.concat ", " (List.map string_of_float paper_bounds); "1." ];
        [ "slew slope bound"; String.concat ", " (List.map string_of_float paper_bounds); "0.06" ];
        [ "sigma ceiling"; String.concat ", " (List.map string_of_float paper_ceilings); "100." ];
      ]

(* the sigma-ceiling method instance used by several figures *)
let ceiling_method c =
  { Tuning_method.population = Cluster.Per_cell; criterion = Threshold.Sigma_ceiling c }

(* the ceiling the Fig 10 selection rule would pick at this period; the
   downstream figures (9, 12-14) study that winning configuration *)
let best_ceiling setup ~period =
  let points =
    Experiment.sweep setup ~baseline:(Experiment.baseline setup ~period)
      ~tuning:(ceiling_method 0.02) ~parameters:paper_ceilings
  in
  match Experiment.best_under_area_cap points with
  | Some best -> best.Experiment.parameter
  | None -> 0.02

let fig9_cell_use (setup : Experiment.setup) =
  Report.heading "Fig 9 — cell use, baseline vs sigma-ceiling tuned";
  let show label period ceiling =
    Report.sub_heading
      (Printf.sprintf "(%s) clock %.2f ns, ceiling %.3g" label period ceiling);
    let base = Experiment.baseline setup ~period in
    let tuned = Experiment.tuned setup ~period ~tuning:(ceiling_method ceiling) in
    let base_use = Netlist.cell_usage base.Experiment.result.Synthesis.netlist in
    let tuned_use = Netlist.cell_usage tuned.Experiment.result.Synthesis.netlist in
    let threshold_count = 50 in
    let interesting =
      List.sort_uniq String.compare
        (List.filter_map (fun (n, c) -> if c > threshold_count then Some n else None)
           (base_use @ tuned_use))
    in
    let count l n = Option.value (List.assoc_opt n l) ~default:0 in
    let rows =
      interesting
      |> List.map (fun n -> (n, count base_use n, count tuned_use n))
      |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
      |> List.map (fun (n, b, t) -> [ n; string_of_int b; string_of_int t ])
    in
    Report.table ~header:[ Printf.sprintf "cell (used > %d)" threshold_count; "baseline"; "tuned" ] ~rows;
    let inv_count usage =
      List.fold_left (fun acc (n, c) ->
          if String.length n >= 4 && String.sub n 0 4 = "INV_" then acc + c else acc) 0 usage
    in
    Printf.printf "  total inverters: baseline %d -> tuned %d\n" (inv_count base_use)
      (inv_count tuned_use)
  in
  let high = List.assoc "high" setup.Experiment.periods in
  let low = List.assoc "low" setup.Experiment.periods in
  show "a: high performance" high (best_ceiling setup ~period:high);
  show "b: low performance" low (best_ceiling setup ~period:low)

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

let methods_with_sweeps =
  let open Tuning_method in
  [
    ( { population = Cluster.Per_drive_strength; criterion = Threshold.Load_slope 1.0 },
      paper_bounds );
    ( { population = Cluster.Per_drive_strength; criterion = Threshold.Slew_slope 1.0 },
      paper_bounds );
    ({ population = Cluster.Per_cell; criterion = Threshold.Load_slope 1.0 }, paper_bounds);
    ({ population = Cluster.Per_cell; criterion = Threshold.Slew_slope 1.0 }, paper_bounds);
    ( { population = Cluster.Per_cell; criterion = Threshold.Sigma_ceiling 0.02 },
      paper_ceilings );
  ]

let fig10_method_sweep (setup : Experiment.setup) =
  Report.heading
    "Fig 10 — best sigma decrease (area < +10%) per tuning method and clock period";
  let winners = ref [] in
  List.iter
    (fun (label, period) ->
      let base = Experiment.baseline setup ~period in
      Report.sub_heading
        (Printf.sprintf "clock %.2f ns (%s): baseline sigma %.4f ns, area %.2fe4 um^2" period
           label (design_sigma_of base)
           (base.Experiment.result.Synthesis.area /. 1e4));
      let all_rows = ref [] in
      let entries =
        List.map
          (fun (tuning, parameters) ->
            let points = Experiment.sweep setup ~baseline:base ~tuning ~parameters in
            List.iter
              (fun (p : Experiment.sweep_point) ->
                all_rows :=
                  [
                    Tuning_method.short_name tuning;
                    Printf.sprintf "%g" p.Experiment.parameter;
                    Report.pct p.Experiment.reduction;
                    Report.pct p.Experiment.area_delta;
                    (if p.Experiment.run.Experiment.result.Synthesis.feasible then "yes"
                     else "NO");
                  ]
                  :: !all_rows)
              points;
            let best = Experiment.best_under_area_cap points in
            Option.iter
              (fun (b : Experiment.sweep_point) ->
                winners :=
                  {
                    period_label = label;
                    period;
                    method_name = Tuning_method.short_name tuning;
                    parameter = b.Experiment.parameter;
                    reduction = b.Experiment.reduction;
                    area_delta = b.Experiment.area_delta;
                    sigma = design_sigma_of b.Experiment.run;
                    area = b.Experiment.run.Experiment.result.Synthesis.area;
                  }
                  :: !winners)
              best;
            (Tuning_method.short_name tuning, best))
          methods_with_sweeps
      in
      let bar f =
        List.map
          (fun (name, best) ->
            match best with
            | Some (b : Experiment.sweep_point) ->
              (name, Float.round (f b *. 1000.0) /. 10.0)
            | None -> (name ^ " (no point <10% area)", 0.0))
          entries
      in
      Report.bar_chart ~unit_label:"% sigma decrease"
        (bar (fun b -> b.Experiment.reduction));
      Report.bar_chart ~unit_label:"% area increase"
        (bar (fun b -> b.Experiment.area_delta));
      print_endline "  full sweep:";
      Report.table
        ~header:[ "method"; "parameter"; "sigma decrease"; "area increase"; "feasible" ]
        ~rows:(List.rev !all_rows))
    setup.Experiment.periods;
  Printf.printf
    "\n  Paper headline: sigma ceiling reaches -37%% sigma at +7%% area (high performance),\n\
    \  -32%% at +4%% (low); strength-based methods give ~-31%% at ~0%% area.\n";
  List.rev !winners

let table3_winners winners =
  Report.heading "Table 3 — winning constraint parameter per method and period";
  let rows =
    List.map
      (fun w ->
        [
          w.period_label;
          Printf.sprintf "%.2f" w.period;
          w.method_name;
          Printf.sprintf "%g" w.parameter;
          Report.pct w.reduction;
          Report.pct w.area_delta;
        ])
      winners
  in
  Report.table
    ~header:[ "constraint"; "period"; "method"; "parameter"; "sigma decrease"; "area increase" ]
    ~rows

let fig11_tradeoff (setup : Experiment.setup) =
  Report.heading "Fig 11 — sigma decrease vs area increase, sigma-ceiling sweep (high clock)";
  let period = List.assoc "high" setup.Experiment.periods in
  let points =
    Experiment.sweep setup ~baseline:(Experiment.baseline setup ~period)
      ~tuning:(ceiling_method 0.02) ~parameters:paper_ceilings
  in
  let rows =
    List.map
      (fun (p : Experiment.sweep_point) ->
        [
          Printf.sprintf "%g" p.Experiment.parameter;
          Report.pct p.Experiment.reduction;
          Report.pct p.Experiment.area_delta;
          (if p.Experiment.run.Experiment.result.Synthesis.feasible then "yes" else "NO");
        ])
      points
  in
  Report.table ~header:[ "ceiling (ns)"; "sigma decrease"; "area increase"; "feasible" ] ~rows;
  print_endline "  Tighter ceilings buy more sigma reduction at growing area cost (paper Fig 11)."

let fig12_depths (setup : Experiment.setup) =
  Report.heading "Fig 12 — path depths of worst paths per endpoint (high clock)";
  let period = List.assoc "high" setup.Experiment.periods in
  let ceiling = best_ceiling setup ~period in
  let base = Experiment.baseline setup ~period in
  let tuned = Experiment.tuned setup ~period ~tuning:(ceiling_method ceiling) in
  let bucket paths =
    let hist = Path.depth_histogram paths in
    (* bucket by 5 to keep the profile readable *)
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (d, c) ->
        let b = d / 5 * 5 in
        Hashtbl.replace tbl b (c + Option.value (Hashtbl.find_opt tbl b) ~default:0))
      hist;
    Hashtbl.fold (fun b c acc -> (b, c) :: acc) tbl [] |> List.sort compare
  in
  Report.sub_heading "baseline";
  Report.int_histogram (bucket base.Experiment.paths);
  Report.sub_heading (Printf.sprintf "sigma ceiling %g" ceiling);
  Report.int_histogram (bucket tuned.Experiment.paths);
  let mean_depth paths =
    let ds = List.map Path.depth paths in
    float_of_int (List.fold_left ( + ) 0 ds) /. float_of_int (max 1 (List.length ds))
  in
  let bd = mean_depth base.Experiment.paths and td = mean_depth tuned.Experiment.paths in
  Printf.printf
    "  mean depth: baseline %.2f -> tuned %.2f (%s; the paper saw deepening when\n\
    \  restriction forces recreating functions from simpler cells)\n"
    bd td
    (if td > bd then "deeper, as in the paper"
     else "shallower here: the winning ceiling resizes more than it decomposes")

let fig13_sigma_depth (setup : Experiment.setup) =
  Report.heading "Fig 13 — path sigma vs path depth (high clock)";
  let period = List.assoc "high" setup.Experiment.periods in
  let show label (run : Experiment.run) =
    Report.sub_heading label;
    let xs = Array.of_list (List.map (fun p -> float_of_int (Path.depth p)) run.Experiment.paths) in
    let ys =
      Array.of_list
        (List.map (fun p -> (Convolve.of_path p).Dist.sigma) run.Experiment.paths)
    in
    Report.binned_scatter ~x_label:"depth" ~y_label:"sigma (ns)" xs ys
  in
  let ceiling = best_ceiling setup ~period in
  show "baseline" (Experiment.baseline setup ~period);
  show
    (Printf.sprintf "sigma ceiling %g" ceiling)
    (Experiment.tuned setup ~period ~tuning:(ceiling_method ceiling));
  print_endline
    "  No strict depth->sigma relation: cell choice, not count, dictates path sigma (paper)."

let fig14_mean3sigma (setup : Experiment.setup) =
  Report.heading "Fig 14 — mean + 3 sigma per path vs effective clock (high clock)";
  let period = List.assoc "high" setup.Experiment.periods in
  let effective = period -. 0.3 in
  let show label (run : Experiment.run) =
    let stats =
      List.map
        (fun p ->
          let d = Convolve.of_path p in
          (Path.depth p, d.Dist.mean, Dist.quantile_3sigma d))
        run.Experiment.paths
    in
    let worst3 = List.fold_left (fun acc (_, _, q) -> Float.max acc q) 0.0 stats in
    let failing = List.length (List.filter (fun (_, _, q) -> q > effective) stats) in
    Report.sub_heading label;
    Report.table
      ~header:[ "depth range"; "paths"; "max mean (ns)"; "max mean+3sigma (ns)" ]
      ~rows:
        (List.filter_map
           (fun (lo, hi) ->
             let in_range = List.filter (fun (d, _, _) -> d >= lo && d <= hi) stats in
             if in_range = [] then None
             else
               Some
                 [
                   Printf.sprintf "%d-%d" lo hi;
                   string_of_int (List.length in_range);
                   Printf.sprintf "%.3f"
                     (List.fold_left (fun acc (_, m, _) -> Float.max acc m) 0.0 in_range);
                   Printf.sprintf "%.3f"
                     (List.fold_left (fun acc (_, _, q) -> Float.max acc q) 0.0 in_range);
                 ])
           [ (1, 3); (4, 7); (8, 15); (16, 30); (31, 45); (46, 70) ]);
    Printf.printf "  worst mean+3sigma %.3f ns vs effective clock %.3f ns; %d paths above it\n"
      worst3 effective failing;
    worst3
  in
  let ceiling = best_ceiling setup ~period in
  let b = show "baseline" (Experiment.baseline setup ~period) in
  let t =
    show
      (Printf.sprintf "sigma ceiling %g" ceiling)
      (Experiment.tuned setup ~period ~tuning:(ceiling_method ceiling))
  in
  Printf.printf "  worst-case value: %.3f -> %.3f ns (paper: 2.23 -> 2.19)\n" b t

let mc_paths (setup : Experiment.setup) =
  let period = List.assoc "high" setup.Experiment.periods in
  let base = Experiment.baseline setup ~period in
  List.filter_map
    (fun (label, depth) ->
      Option.map (fun p -> (label, p)) (Experiment.find_path_of_depth base ~depth))
    [ ("short", 3); ("medium", 18); ("long", 57) ]

let fig15_corners (setup : Experiment.setup) =
  Report.heading "Fig 15 — path Monte Carlo across corners (N=200)";
  let cfg = Path_mc.default_config in
  List.iter
    (fun (label, path) ->
      Report.sub_heading (Printf.sprintf "%s path (%d cells)" label (Path.depth path));
      let sweep = Path_mc.corner_sweep cfg ~seed:(setup.Experiment.seed + 17) path in
      let typical =
        List.assoc Corner.typical
          (List.map (fun (c, r) -> (c, r)) sweep)
      in
      let rows =
        List.map
          (fun ((corner : Corner.t), (r : Path_mc.result)) ->
            [
              Corner.name corner;
              Printf.sprintf "%.3f" r.Path_mc.mean;
              Printf.sprintf "%.4f" r.Path_mc.sigma;
              Printf.sprintf "%.3f" (r.Path_mc.mean /. typical.Path_mc.mean);
              Printf.sprintf "%.3f" (r.Path_mc.sigma /. Float.max 1e-12 typical.Path_mc.sigma);
            ])
          sweep
      in
      Report.table
        ~header:[ "corner"; "mean (ns)"; "sigma (ns)"; "mean/typ"; "sigma/typ" ]
        ~rows)
    (mc_paths setup);
  print_endline
    "  Mean and sigma scale by the same factor across corners, so tuning transfers to\n\
    \  other corners (paper Section VII-C)."

let fig16_local_share (setup : Experiment.setup) =
  Report.heading "Fig 16 — local vs global+local variation share (N=200)";
  let cfg = Path_mc.default_config in
  let paper_share = [ ("short", 0.65); ("medium", 0.37); ("long", 0.06) ] in
  let rows =
    List.map
      (fun (label, path) ->
        let share = Path_mc.local_share cfg ~seed:(setup.Experiment.seed + 23) path in
        [
          label;
          string_of_int (Path.depth path);
          Report.pct share;
          Report.pct (List.assoc label paper_share);
        ])
      (mc_paths setup)
  in
  Report.table
    ~header:[ "path"; "depth"; "local variance share"; "paper" ]
    ~rows;
  print_endline "  Local variation dominates short paths and decays with depth."

let extension_power (setup : Experiment.setup) =
  Report.heading "Extension — power cost of robustness (high clock)";
  let module Power = Vartune_sta.Power in
  let period = List.assoc "high" setup.Experiment.periods in
  let ceiling = best_ceiling setup ~period in
  let base = Experiment.baseline setup ~period in
  let tuned = Experiment.tuned setup ~period ~tuning:(ceiling_method ceiling) in
  let row label (run : Experiment.run) =
    let r =
      Power.estimate run.Experiment.result.Synthesis.timing
        run.Experiment.result.Synthesis.netlist
    in
    [
      label;
      Printf.sprintf "%.3f" r.Power.switching_mw;
      Printf.sprintf "%.3f" r.Power.internal_mw;
      Printf.sprintf "%.3f" r.Power.leakage_mw;
      Printf.sprintf "%.3f" r.Power.total_mw;
    ]
  in
  Report.table
    ~header:[ "design"; "switching (mW)"; "internal (mW)"; "leakage (mW)"; "total (mW)" ]
    ~rows:[ row "baseline" base; row (Printf.sprintf "sigma ceiling %g" ceiling) tuned ];
  print_endline
    "  Robustness costs dynamic and leakage power along with area — the paper's\n\
    \  trade-off extends beyond the area axis it reports."

let extension_yield (setup : Experiment.setup) =
  Report.heading "Extension — parametric timing yield vs clock period";
  let module Yield = Vartune_stats.Yield in
  let period = List.assoc "high" setup.Experiment.periods in
  let ceiling = best_ceiling setup ~period in
  let base = Experiment.baseline setup ~period in
  let tuned = Experiment.tuned setup ~period ~tuning:(ceiling_method ceiling) in
  let dists (run : Experiment.run) = List.map Convolve.of_path run.Experiment.paths in
  let base_dists = dists base and tuned_dists = dists tuned in
  let effective p = p -. 0.3 in
  let rows =
    List.map
      (fun f ->
        let p = Float.round (period *. f *. 100.0) /. 100.0 in
        [
          Printf.sprintf "%.2f" p;
          Report.pct (Yield.parametric_yield base_dists ~period:(effective p));
          Report.pct (Yield.parametric_yield tuned_dists ~period:(effective p));
        ])
      [ 0.98; 1.0; 1.02; 1.05; 1.1; 1.2 ]
  in
  Report.table ~header:[ "clock (ns)"; "baseline yield"; "tuned yield" ] ~rows;
  let p99 d = Yield.period_for_yield d ~target:0.99 ~lo:(period /. 2.0) ~hi:(period *. 2.0) in
  Printf.printf "  clock for 99%% parametric yield: baseline %.3f ns -> tuned %.3f ns\n"
    (p99 base_dists) (p99 tuned_dists);
  print_endline
    "  Lower sigma converts into yield at the same clock, or a faster clock at the\n\
    \  same yield — the paper's Section III motivation, quantified."

let extension_hold (setup : Experiment.setup) =
  Report.heading "Extension — hold checks under tuning";
  let module Timing = Vartune_sta.Timing in
  let period = List.assoc "high" setup.Experiment.periods in
  let ceiling = best_ceiling setup ~period in
  let base = Experiment.baseline setup ~period in
  let tuned = Experiment.tuned setup ~period ~tuning:(ceiling_method ceiling) in
  let stats (run : Experiment.run) =
    let t = run.Experiment.result.Synthesis.timing in
    (List.length (Timing.hold_endpoints t), Timing.worst_hold_slack t)
  in
  let bn, bs = stats base and tn, ts = stats tuned in
  Report.table
    ~header:[ "design"; "hold checks"; "worst hold slack (ns)" ]
    ~rows:
      [
        [ "baseline"; string_of_int bn; Printf.sprintf "%+.4f" bs ];
        [ Printf.sprintf "sigma ceiling %g" ceiling; string_of_int tn; Printf.sprintf "%+.4f" ts ];
      ];
  print_endline
    "  Restriction windows forbid slow operating points only, so min-delay paths and\n\
    \  hold margins survive tuning (they typically improve as cells get faster)."

let futurework_layout (setup : Experiment.setup) =
  Report.heading
    "Future work — does the sigma reduction survive placement and clock tree synthesis?";
  let module Placement = Vartune_place.Placement in
  let module Cts = Vartune_place.Cts in
  let module Timing = Vartune_sta.Timing in
  let period = List.assoc "high" setup.Experiment.periods in
  let ceiling = best_ceiling setup ~period in
  let base = Experiment.baseline setup ~period in
  let tuned = Experiment.tuned setup ~period ~tuning:(ceiling_method ceiling) in
  let analyse label (run : Experiment.run) =
    let nl = run.Experiment.result.Synthesis.netlist in
    let placement = Placement.place nl in
    let cfg =
      { (Timing.default_config ~clock_period:period) with
        Timing.wire_caps = Some (Placement.wire_caps placement nl) }
    in
    let placed_timing = Timing.run cfg nl in
    let paths = Path.worst_per_endpoint placed_timing nl in
    let post = (Design_sigma.of_paths paths).Design_sigma.dist.Dist.sigma in
    let cts = Cts.synthesize placement nl ~library:setup.Experiment.statlib in
    let w, h = Placement.die placement in
    ( label,
      design_sigma_of run,
      post,
      Placement.total_wirelength placement nl,
      w *. h,
      cts )
  in
  let b = analyse "baseline" base in
  let t = analyse (Printf.sprintf "sigma ceiling %g" ceiling) tuned in
  let row (label, pre, post, wl, area, (cts : Cts.result)) =
    [
      label;
      Printf.sprintf "%.4f" pre;
      Printf.sprintf "%.4f" post;
      Printf.sprintf "%.0f" wl;
      Printf.sprintf "%.0f" area;
      Printf.sprintf "%d" cts.Cts.buffers;
      Printf.sprintf "%.4f" cts.Cts.skew;
    ]
  in
  Report.table
    ~header:
      [ "design"; "sigma pre-layout"; "sigma placed"; "wirelength (um)"; "die (um^2)";
        "CTS buffers"; "clock skew (ns)" ]
    ~rows:[ row b; row t ];
  let reduction pre post = if pre > 0.0 then (pre -. post) /. pre else 0.0 in
  let _, bpre, bpost, _, _, _ = b and _, tpre, tpost, _, _, _ = t in
  let pre_red = reduction bpre tpre and post_red = reduction bpost tpost in
  Printf.printf
    "  sigma reduction: %s pre-layout -> %s after placement-aware wire loads.\n"
    (Report.pct pre_red) (Report.pct post_red);
  if post_red > 0.0 then
    print_endline
      "  Within this model the answer to the paper's open question is yes: the tuned\n\
      \  design keeps an advantage once HPWL wire loads replace the fanout model."
  else
    print_endline
      "  Within this model the advantage does NOT survive layout at this operating\n\
      \  point — wire loads push cells outside their tuned windows, which is exactly\n\
      \  why the paper flags post-layout validation as future work."

let ablation_guard_band (setup : Experiment.setup) =
  Report.heading "Ablation — guard band implied by path sigma (Section III motivation)";
  let period = List.assoc "high" setup.Experiment.periods in
  let ceiling = best_ceiling setup ~period in
  let base = Experiment.baseline setup ~period in
  let tuned = Experiment.tuned setup ~period ~tuning:(ceiling_method ceiling) in
  (* the guard band must cover 3x the sigma of the most variable path *)
  let implied_guard (run : Experiment.run) =
    List.fold_left
      (fun acc p -> Float.max acc (3.0 *. (Convolve.of_path p).Dist.sigma))
      0.0 run.Experiment.paths
  in
  let gb = implied_guard base and gt = implied_guard tuned in
  Report.table
    ~header:[ "design"; "worst 3-sigma (ns)"; "usable clock at equal yield (ns)" ]
    ~rows:
      [
        [ "baseline"; Printf.sprintf "%.4f" gb; Printf.sprintf "%.3f" (period +. gb) ];
        [ Printf.sprintf "sigma ceiling %g" ceiling;
          Printf.sprintf "%.4f" gt;
          Printf.sprintf "%.3f" (period +. gt) ];
      ];
  Printf.printf
    "  Tuning shrinks the local-variation guard band by %s — 'a lower clock\n\
    \  uncertainty means the desired clock period can be decreased' (Section III).\n"
    (Report.pct (if gb > 0.0 then (gb -. gt) /. gb else 0.0))

let ablation_mapping_style (setup : Experiment.setup) =
  Report.heading "Ablation — technology-mapping style (Area vs Delay covering)";
  let module Mapper = Vartune_synth.Mapper in
  let period = List.assoc "medium" setup.Experiment.periods in
  let cons = Constraints.make ~clock_period:period () in
  let row style label =
    let result = Synthesis.run ~style cons setup.Experiment.statlib setup.Experiment.design in
    let paths = Path.worst_per_endpoint result.Synthesis.timing result.Synthesis.netlist in
    let ds = Design_sigma.of_paths paths in
    [
      label;
      Printf.sprintf "%d" result.Synthesis.instances;
      Printf.sprintf "%.0f" result.Synthesis.area;
      Printf.sprintf "%+.3f" result.Synthesis.worst_slack;
      Printf.sprintf "%.4f" ds.Design_sigma.dist.Dist.sigma;
    ]
  in
  Report.table
    ~header:[ "initial covering"; "cells"; "area (um^2)"; "worst slack (ns)"; "design sigma (ns)" ]
    ~rows:
      [
        row Mapper.Area "Area (complex cells, FA fusion)";
        row Mapper.Delay "Delay (NAND/NOR + INV networks)";
      ];
  print_endline
    "  Area-style covering is the default; the sizer decomposes complex cells on\n\
    \  critical paths, converging toward the Delay-style mix only where timing needs it."

let ablation_rho (setup : Experiment.setup) =
  Report.heading "Ablation — correlation assumption in path convolution (eqs 8-10)";
  let period = List.assoc "high" setup.Experiment.periods in
  let base = Experiment.baseline setup ~period in
  let rows =
    List.map
      (fun rho ->
        let dists = List.map (Convolve.of_path_rho ~rho) base.Experiment.paths in
        let d = Design_sigma.of_dists dists in
        [ Printf.sprintf "%.1f" rho; Printf.sprintf "%.4f" d.Dist.sigma ])
      [ 0.0; 0.1; 0.3 ]
  in
  Report.table ~header:[ "rho"; "design sigma (ns)" ] ~rows;
  print_endline
    "  rho=0 (paper's assumption) is the optimistic end; modest correlation inflates sigma."

let ablation_variability_metric (setup : Experiment.setup) =
  Report.heading "Ablation — coefficient-of-variation ceiling (the metric Section III rejects)";
  let period = List.assoc "high" setup.Experiment.periods in
  let base = Experiment.baseline setup ~period in
  (* restriction table from a variability (sigma/mean) ceiling *)
  let variability_table ceiling =
    let table = Restrict.empty_table () in
    List.iter
      (fun (cell : Cell.t) ->
        List.iter
          (fun (p : Pin.t) ->
            let sigmas = List.filter_map Arc.worst_sigma p.Pin.arcs in
            let means = List.map Arc.worst_delay p.Pin.arcs in
            match (sigmas, means) with
            | [], _ | _, [] -> ()
            | _ ->
              let sigma = Slope.max_equivalent_by_index sigmas in
              let mean = Slope.max_equivalent_by_index means in
              let cov = Lut.map2 (fun s m -> if m > 1e-12 then s /. m else 0.0) sigma mean in
              let mask = Binary_lut.of_ceiling cov ~ceiling in
              let status =
                match Rectangle.naive_largest mask with
                | None -> Restrict.Unusable
                | Some rect ->
                  let slews = Lut.slews cov and loads = Lut.loads cov in
                  Restrict.Window
                    {
                      Restrict.slew_min = slews.(rect.Rectangle.row_lo);
                      slew_max = slews.(rect.Rectangle.row_hi);
                      load_min = loads.(rect.Rectangle.col_lo);
                      load_max = loads.(rect.Rectangle.col_hi);
                    }
              in
              Restrict.set table ~cell:cell.Cell.name ~pin:p.Pin.name status)
          (Cell.output_pins cell))
      (Library.cells setup.Experiment.statlib);
    table
  in
  let rows =
    List.map
      (fun ceiling ->
        let cons =
          Constraints.make ~clock_period:period ~restrictions:(variability_table ceiling) ()
        in
        let result = Synthesis.run cons setup.Experiment.statlib setup.Experiment.design in
        let paths = Path.worst_per_endpoint result.Synthesis.timing result.Synthesis.netlist in
        let ds = Design_sigma.of_paths paths in
        let reduction =
          (design_sigma_of base -. ds.Design_sigma.dist.Dist.sigma) /. design_sigma_of base
        in
        let area_delta =
          (result.Synthesis.area -. base.Experiment.result.Synthesis.area)
          /. base.Experiment.result.Synthesis.area
        in
        [
          Printf.sprintf "%g" ceiling;
          Report.pct reduction;
          Report.pct area_delta;
          (if result.Synthesis.feasible then "yes" else "NO");
        ])
      [ 0.25; 0.2; 0.15 ]
  in
  Report.table
    ~header:[ "variability ceiling"; "sigma decrease"; "area increase"; "feasible" ]
    ~rows;
  print_endline
    "  A variability bound keeps slow-but-proportional regions and cuts fast ones —\n\
    \  weaker sigma reduction per area than the sigma ceiling, as Section III predicts."

let run_all setup =
  fig1_metric ();
  fig2_statlib setup;
  fig3_bilinear ();
  fig4_inv_surfaces setup;
  fig5_drive6 setup;
  fig6_rectangle setup;
  fig7_all_luts setup;
  table1_periods setup;
  table2_parameters ();
  fig8_period_area setup;
  let winners = fig10_method_sweep setup in
  table3_winners winners;
  fig9_cell_use setup;
  fig11_tradeoff setup;
  fig12_depths setup;
  fig13_sigma_depth setup;
  fig14_mean3sigma setup;
  fig15_corners setup;
  fig16_local_share setup;
  extension_power setup;
  extension_yield setup;
  extension_hold setup;
  futurework_layout setup;
  ablation_guard_band setup;
  ablation_mapping_style setup;
  ablation_rho setup;
  ablation_variability_metric setup
