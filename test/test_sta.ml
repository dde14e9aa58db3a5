(* Tests for Vartune_sta: Timing and Path, on hand-built netlists where
   arrival times can be computed by hand from the library LUTs. *)

module Netlist = Vartune_netlist.Netlist
module Timing = Vartune_sta.Timing
module Path = Vartune_sta.Path
module Library = Vartune_liberty.Library
module Cell = Vartune_liberty.Cell
module Pin = Vartune_liberty.Pin
module Arc = Vartune_liberty.Arc
module Design_sigma = Vartune_stats.Design_sigma
module Dist = Vartune_stats.Dist

let lib = Lazy.force Helpers.nominal_small
let inv = Library.find lib "INV_1"
let dff = Library.find lib "DFF_1"

let config = Timing.default_config ~clock_period:2.0

(* PI -> k inverters -> DFF.D *)
let inverter_chain k =
  let nl = Netlist.create ~name:"chain" in
  let clk = Netlist.add_net nl ~net_name:"clk" () in
  Netlist.set_clock nl clk;
  let a = Netlist.add_net nl ~net_name:"a" () in
  Netlist.mark_primary_input nl a;
  let last =
    List.fold_left
      (fun prev i ->
        let out = Netlist.add_net nl () in
        ignore
          (Netlist.add_instance nl
             ~inst_name:(Printf.sprintf "inv%d" i)
             ~cell:inv ~inputs:[ ("A", prev) ] ~outputs:[ ("Z", out) ]);
        out)
      a
      (List.init k Fun.id)
  in
  let q = Netlist.add_net nl () in
  ignore
    (Netlist.add_instance nl ~inst_name:"capture" ~cell:dff
       ~inputs:[ ("D", last); ("CK", clk) ]
       ~outputs:[ ("Q", q) ]);
  nl

let test_arrival_matches_manual () =
  let nl = inverter_chain 3 in
  let timing = Timing.run config nl in
  (* replay the propagation by hand *)
  let inv_arc = List.hd (Cell.arcs inv) in
  let dff_d_cap = Cell.input_capacitance dff "D" in
  let inv_a_cap = Cell.input_capacitance inv "A" in
  let wire = config.Timing.wire_cap_base +. config.Timing.wire_cap_per_sink in
  let mid_load = inv_a_cap +. wire in
  let last_load = dff_d_cap +. wire in
  let slew = ref config.Timing.input_slew in
  let arrival = ref 0.0 in
  List.iteri
    (fun i () ->
      let load = if i = 2 then last_load else mid_load in
      arrival := !arrival +. Arc.delay inv_arc ~slew:!slew ~load;
      slew := Arc.transition inv_arc ~slew:!slew ~load)
    [ (); (); () ];
  match Timing.endpoints timing with
  | [ ep ] ->
    Helpers.check_float ~eps:1e-9 "arrival" !arrival ep.Timing.arrival;
    Helpers.check_float ~eps:1e-9 "required"
      (config.Timing.clock_period -. config.Timing.guard_band -. dff.Cell.setup_time)
      ep.Timing.required;
    Helpers.check_float ~eps:1e-9 "slack" (ep.Timing.required -. ep.Timing.arrival)
      ep.Timing.slack
  | eps -> Alcotest.failf "expected 1 endpoint, got %d" (List.length eps)

let test_worst_slack_and_tns () =
  let nl = inverter_chain 2 in
  let timing = Timing.run config nl in
  let ws = Timing.worst_slack timing in
  Alcotest.(check bool) "positive at 2ns" true (ws > 0.0);
  Helpers.check_float "tns zero when met" 0.0 (Timing.total_negative_slack timing);
  (* impossibly tight clock: negative slack and negative tns *)
  let tight = Timing.run (Timing.default_config ~clock_period:0.31) nl in
  Alcotest.(check bool) "negative at 0.31ns" true (Timing.worst_slack tight < 0.0);
  Alcotest.(check bool) "tns negative" true (Timing.total_negative_slack tight < 0.0)

let test_path_backtrace () =
  let nl = inverter_chain 5 in
  let timing = Timing.run config nl in
  let paths = Path.worst_per_endpoint timing nl in
  match paths with
  | [ p ] ->
    Alcotest.(check int) "depth = chain length" 5 (Path.depth p);
    Helpers.check_float ~eps:1e-9 "mean = arrival (eq 5)" p.Path.arrival (Path.mean_delay p);
    (* steps come launch-to-capture: loads decrease only at the end *)
    let cells = List.map (fun (s : Path.step) -> s.Path.cell.Cell.name) p.Path.steps in
    Alcotest.(check (list string)) "all inverters"
      [ "INV_1"; "INV_1"; "INV_1"; "INV_1"; "INV_1" ]
      cells
  | other -> Alcotest.failf "expected 1 path, got %d" (List.length other)

let test_launch_from_register () =
  (* DFF -> INV -> DFF: the path starts with the launching flop's CK->Q *)
  let nl = Netlist.create ~name:"reg2reg" in
  let clk = Netlist.add_net nl ~net_name:"clk" () in
  Netlist.set_clock nl clk;
  let d0 = Netlist.add_net nl () in
  Netlist.mark_primary_input nl d0;
  let q0 = Netlist.add_net nl () in
  let z = Netlist.add_net nl () in
  let q1 = Netlist.add_net nl () in
  ignore
    (Netlist.add_instance nl ~inst_name:"launch" ~cell:dff
       ~inputs:[ ("D", d0); ("CK", clk) ]
       ~outputs:[ ("Q", q0) ]);
  ignore
    (Netlist.add_instance nl ~inst_name:"mid" ~cell:inv ~inputs:[ ("A", q0) ]
       ~outputs:[ ("Z", z) ]);
  ignore
    (Netlist.add_instance nl ~inst_name:"capture" ~cell:dff
       ~inputs:[ ("D", z); ("CK", clk) ]
       ~outputs:[ ("Q", q1) ]);
  let timing = Timing.run config nl in
  let capture_ep =
    List.find
      (fun (ep : Timing.endpoint_timing) ->
        match ep.Timing.endpoint with
        | Timing.Reg_data { pin = "D"; inst } ->
          (Netlist.instance nl inst).Netlist.inst_name = "capture"
        | _ -> false)
      (Timing.endpoints timing)
  in
  let p = Path.extract timing nl capture_ep in
  Alcotest.(check int) "depth includes launch flop" 2 (Path.depth p);
  (match p.Path.steps with
  | first :: _ ->
    Alcotest.(check string) "launches from DFF" "DFF" first.Path.cell.Cell.family;
    Helpers.check_float "launch slew is the clock slew" config.Timing.clock_slew
      first.Path.input_slew
  | [] -> Alcotest.fail "empty path");
  (* the launch flop's own D is also an endpoint: 2 endpoints total *)
  Alcotest.(check int) "endpoint count" 2 (List.length (Timing.endpoints timing))

let test_net_required_consistency () =
  let nl = inverter_chain 4 in
  let timing = Timing.run config nl in
  (* on a single path, net slack equals the endpoint slack everywhere *)
  let ws = Timing.worst_slack timing in
  Netlist.iter_nets nl ~f:(fun net ->
      let nid = net.Netlist.net_id in
      if net.Netlist.sinks <> [] && Some nid <> Netlist.clock nl then
        Helpers.check_float ~eps:1e-9 "uniform slack on a chain" ws (Timing.net_slack timing nid))

let test_out_of_range_net_defaults () =
  let nl = inverter_chain 1 in
  let timing = Timing.run config nl in
  let fresh = Netlist.add_net nl () in
  Helpers.check_float "load default" 0.0 (Timing.net_load timing fresh);
  Helpers.check_float "slew default" config.Timing.input_slew (Timing.net_slew timing fresh);
  Alcotest.(check bool) "required default" true (Timing.net_required timing fresh = infinity)

let test_fanout_raises_load () =
  (* one inverter driving 1 vs 4 sinks: load and delay grow *)
  let build sinks =
    let nl = Netlist.create ~name:"fan" in
    let a = Netlist.add_net nl () in
    Netlist.mark_primary_input nl a;
    let z = Netlist.add_net nl () in
    ignore
      (Netlist.add_instance nl ~inst_name:"drv" ~cell:inv ~inputs:[ ("A", a) ]
         ~outputs:[ ("Z", z) ]);
    for i = 0 to sinks - 1 do
      let out = Netlist.add_net nl () in
      ignore
        (Netlist.add_instance nl
           ~inst_name:(Printf.sprintf "sink%d" i)
           ~cell:inv ~inputs:[ ("A", z) ] ~outputs:[ ("Z", out) ]);
      Netlist.mark_primary_output nl out
    done;
    let timing = Timing.run config nl in
    (Timing.net_load timing z, Timing.net_arrival timing z)
  in
  let load1, arr1 = build 1 in
  let load4, arr4 = build 4 in
  Alcotest.(check bool) "load grows" true (load4 > load1);
  Alcotest.(check bool) "arrival grows" true (arr4 > arr1)

(* ------------------------------- Hold -------------------------------- *)

let test_hold_unconstrained_from_pi () =
  (* a D pin fed only from a primary input has no hold check *)
  let nl = inverter_chain 2 in
  let timing = Timing.run config nl in
  Alcotest.(check int) "no hold endpoints" 0 (List.length (Timing.hold_endpoints timing));
  Alcotest.(check bool) "worst hold n/a" true (Timing.worst_hold_slack timing = infinity)

let reg2reg k =
  (* DFF -> k inverters -> DFF *)
  let nl = Netlist.create ~name:"r2r" in
  let clk = Netlist.add_net nl ~net_name:"clk" () in
  Netlist.set_clock nl clk;
  let d0 = Netlist.add_net nl () in
  Netlist.mark_primary_input nl d0;
  let q0 = Netlist.add_net nl () in
  ignore
    (Netlist.add_instance nl ~inst_name:"launch" ~cell:dff
       ~inputs:[ ("D", d0); ("CK", clk) ]
       ~outputs:[ ("Q", q0) ]);
  let last =
    List.fold_left
      (fun prev i ->
        let out = Netlist.add_net nl () in
        ignore
          (Netlist.add_instance nl
             ~inst_name:(Printf.sprintf "i%d" i)
             ~cell:inv ~inputs:[ ("A", prev) ] ~outputs:[ ("Z", out) ]);
        out)
      q0
      (List.init k Fun.id)
  in
  let q1 = Netlist.add_net nl () in
  ignore
    (Netlist.add_instance nl ~inst_name:"capture" ~cell:dff
       ~inputs:[ ("D", last); ("CK", clk) ]
       ~outputs:[ ("Q", q1) ]);
  nl

let test_hold_register_launched () =
  let nl = reg2reg 1 in
  let timing = Timing.run config nl in
  (* only the capture flop's D has a register-launched fanin *)
  match Timing.hold_endpoints timing with
  | [ ep ] ->
    Alcotest.(check bool) "hold met (clk->q + inv > hold)" true (ep.Timing.slack > 0.0);
    Helpers.check_float "required is the hold time" dff.Cell.hold_time ep.Timing.required;
    Alcotest.(check bool) "min arrival below max arrival" true
      (ep.Timing.arrival
      <= (List.hd (List.filter
                     (fun (e : Timing.endpoint_timing) -> e.Timing.endpoint = ep.Timing.endpoint)
                     (Timing.endpoints timing))).Timing.arrival
         +. 1e-12)
  | eps -> Alcotest.failf "expected 1 hold endpoint, got %d" (List.length eps)

let test_hold_min_arrival_grows_with_depth () =
  let min_at k =
    let nl = reg2reg k in
    let timing = Timing.run config nl in
    match Timing.hold_endpoints timing with
    | [ ep ] -> ep.Timing.arrival
    | _ -> Alcotest.fail "one hold endpoint expected"
  in
  Alcotest.(check bool) "monotone" true (min_at 1 < min_at 4)

(* ------------------------------- Power ------------------------------- *)

let test_power_positive_and_composed () =
  let nl = reg2reg 3 in
  let timing = Timing.run config nl in
  let module Power = Vartune_sta.Power in
  let r = Power.estimate timing nl in
  Alcotest.(check bool) "switching > 0" true (r.Power.switching_mw > 0.0);
  Alcotest.(check bool) "internal > 0" true (r.Power.internal_mw > 0.0);
  Alcotest.(check bool) "leakage > 0" true (r.Power.leakage_mw > 0.0);
  Helpers.check_float ~eps:1e-9 "total is the sum"
    (r.Power.switching_mw +. r.Power.internal_mw +. r.Power.leakage_mw)
    r.Power.total_mw

let test_power_scales_with_frequency () =
  let nl = reg2reg 3 in
  let module Power = Vartune_sta.Power in
  let at period =
    Power.estimate (Timing.run (Timing.default_config ~clock_period:period) nl) nl
  in
  let fast = at 1.0 and slow = at 2.0 in
  (* dynamic power doubles at half the period; leakage is unchanged *)
  Helpers.check_float ~eps:1e-6 "switching x2" (2.0 *. slow.Power.switching_mw)
    fast.Power.switching_mw;
  Helpers.check_float ~eps:1e-9 "leakage constant" slow.Power.leakage_mw fast.Power.leakage_mw

let test_power_scales_with_activity () =
  let nl = reg2reg 3 in
  let module Power = Vartune_sta.Power in
  let timing = Timing.run config nl in
  let lo = Power.estimate ~activity:0.1 timing nl in
  let hi = Power.estimate ~activity:0.2 timing nl in
  Alcotest.(check bool) "more activity more power" true
    (hi.Power.total_mw > lo.Power.total_mw);
  Helpers.check_float ~eps:1e-9 "leakage unchanged" lo.Power.leakage_mw hi.Power.leakage_mw

(* --------------------------- Timing report --------------------------- *)

let test_timing_report () =
  let module TR = Vartune_sta.Timing_report in
  let nl = reg2reg 4 in
  let timing = Timing.run config nl in
  let text = TR.report ~max_paths:2 timing nl in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has summary" true (contains "worst setup slack");
  Alcotest.(check bool) "has path header" true (contains "Path 1:");
  Alcotest.(check bool) "has cells" true (contains "INV_1");
  Alcotest.(check bool) "states MET" true (contains "MET");
  Alcotest.(check bool) "summary mentions hold" true (contains "hold")

let test_depth_histogram () =
  let nl = inverter_chain 3 in
  let timing = Timing.run config nl in
  let paths = Path.worst_per_endpoint timing nl in
  Alcotest.(check (list (pair int int))) "histogram" [ (3, 1) ] (Path.depth_histogram paths)

(* --------------------------- incremental retime -------------------- *)

module Rng = Vartune_util.Rng

let bits = Int64.bits_of_float

(* Bitwise equality of two analyses over every observable: per-net
   values, winning arcs, and both endpoint lists. *)
let check_same_analysis msg nl a b =
  let check_net what got want nid =
    if bits got <> bits want then
      Alcotest.failf "%s: net %d %s: %h <> %h" msg nid what got want
  in
  for nid = 0 to Netlist.net_count nl - 1 do
    check_net "load" (Timing.net_load a nid) (Timing.net_load b nid) nid;
    check_net "arrival" (Timing.net_arrival a nid) (Timing.net_arrival b nid) nid;
    check_net "slew" (Timing.net_slew a nid) (Timing.net_slew b nid) nid;
    check_net "required" (Timing.net_required a nid) (Timing.net_required b nid) nid;
    check_net "min_arrival" (Timing.net_min_arrival a nid) (Timing.net_min_arrival b nid)
      nid
  done;
  Netlist.iter_instances nl ~f:(fun inst ->
      List.iter
        (fun (out_pin, _) ->
          let ca = Timing.critical_input a inst.Netlist.inst_id ~out_pin in
          let cb = Timing.critical_input b inst.inst_id ~out_pin in
          match (ca, cb) with
          | None, None -> ()
          | Some (pa, aa, da), Some (pb, ab, db) ->
            if pa <> pb || bits da <> bits db || aa.Arc.related_pin <> ab.Arc.related_pin
            then Alcotest.failf "%s: %s/%s winning arc differs" msg inst.inst_name out_pin
          | _ -> Alcotest.failf "%s: %s/%s crit presence differs" msg inst.inst_name out_pin)
        inst.outputs);
  let check_eps what ea eb =
    if List.length ea <> List.length eb then
      Alcotest.failf "%s: %s count differs" msg what;
    List.iter2
      (fun (x : Timing.endpoint_timing) (y : Timing.endpoint_timing) ->
        if
          x.endpoint <> y.endpoint
          || bits x.arrival <> bits y.arrival
          || bits x.required <> bits y.required
          || bits x.slack <> bits y.slack
        then Alcotest.failf "%s: %s entry differs" msg what)
      ea eb
  in
  check_eps "endpoints" (Timing.endpoints a) (Timing.endpoints b);
  check_eps "hold endpoints" (Timing.hold_endpoints a) (Timing.hold_endpoints b)

(* same-family ladder of a cell, excluding the cell itself *)
let ladder_of cell =
  List.filter
    (fun (c : Cell.t) ->
      c.Cell.family = cell.Cell.family && c.Cell.name <> cell.Cell.name)
    (Library.cells lib)

module Obs = Vartune_obs.Obs

(* run [f] with telemetry on, so the work counters count *)
let with_obs f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

let test_retime_chain_resize () =
  let nl = inverter_chain 4 in
  let t = Timing.run config nl in
  (* resize the middle inverter up the ladder and retime *)
  let target = ref None in
  Netlist.iter_instances nl ~f:(fun inst ->
      if inst.Netlist.inst_name = "inv2" then target := Some inst.inst_id);
  let inst_id = Option.get !target in
  let bigger = Library.find lib "INV_4" in
  Netlist.set_cell nl inst_id bigger;
  Timing.retime t;
  check_same_analysis "chain resize" nl t (Timing.run config nl);
  (* a second move on the same analysis: back down the ladder *)
  Netlist.set_cell nl inst_id (Library.find lib "INV_1");
  Timing.retime t;
  check_same_analysis "chain resize back" nl t (Timing.run config nl)

let test_retime_empty_and_counters () =
  with_obs @@ fun () ->
  let nl = inverter_chain 3 in
  let t = Timing.run config nl in
  let evals = Obs.counter_value "sta.node_evals" and runs = Obs.counter_value "sta.runs" in
  Timing.retime t;
  Alcotest.(check int) "no node evals" 0 (Obs.counter_value "sta.node_evals" - evals);
  Alcotest.(check int) "no full run" 0 (Obs.counter_value "sta.runs" - runs);
  check_same_analysis "empty retime" nl t (Timing.run config nl)

(* [retime t], checked to update [t] in place — no full run — to
   exactly what a fresh run of [nl] gives *)
let retime_checked msg nl t =
  let runs = Obs.counter_value "sta.runs" in
  Timing.retime t;
  if Obs.counter_value "sta.runs" <> runs then Alcotest.failf "%s: retime ran a full analysis" msg;
  check_same_analysis msg nl t (Timing.run config nl)

(* a new primary input feeding a new gate: nets and an instance appear *)
let test_retime_structural_edits () =
  with_obs @@ fun () ->
  let nl = inverter_chain 3 in
  let t = Timing.run config nl in
  let extra = Netlist.add_net nl () in
  Netlist.mark_primary_input nl extra;
  let out = Netlist.add_net nl () in
  ignore
    (Netlist.add_instance nl ~inst_name:"tap" ~cell:inv
       ~inputs:[ ("A", extra) ]
       ~outputs:[ ("Z", out) ]);
  retime_checked "structural edits" nl t

(* Random DAG netlists under random same-family resize sequences: after
   every batch of moves, retime must equal a fresh run bit-for-bit.
   [lib] (default the nominal library) must hold the small catalog. *)
let random_dag ?(lib = lib) rng =
  let dff = Library.find lib "DFF_1" in
  let families = [ ("INV", [ "A" ]); ("ND2", [ "A"; "B" ]); ("XO2", [ "A"; "B" ]) ] in
  let cells_of fam =
    List.filter (fun (c : Cell.t) -> c.Cell.family = fam) (Library.cells lib)
  in
  let pick xs = List.nth xs (Rng.int rng (List.length xs)) in
  let nl = Netlist.create ~name:"rand" in
  let clk = Netlist.add_net nl ~net_name:"clk" () in
  Netlist.set_clock nl clk;
  let n_pi = 2 + Rng.int rng 3 in
  let avail =
    ref
      (List.init n_pi (fun i ->
           let n = Netlist.add_net nl ~net_name:(Printf.sprintf "pi%d" i) () in
           Netlist.mark_primary_input nl n;
           n))
  in
  let movable = ref [] in
  let n_gates = 5 + Rng.int rng 20 in
  for i = 0 to n_gates - 1 do
    let fam, pins = pick families in
    let cell = pick (cells_of fam) in
    let inputs = List.map (fun p -> (p, pick !avail)) pins in
    let out = Netlist.add_net nl () in
    let id =
      Netlist.add_instance nl
        ~inst_name:(Printf.sprintf "g%d" i)
        ~cell ~inputs ~outputs:[ ("Z", out) ]
    in
    movable := id :: !movable;
    avail := out :: !avail
  done;
  (* capture a few nets in registers; their Q nets feed nothing, which
     is fine for timing *)
  let n_regs = 1 + Rng.int rng 3 in
  for i = 0 to n_regs - 1 do
    let d = pick !avail in
    let q = Netlist.add_net nl () in
    let id =
      Netlist.add_instance nl
        ~inst_name:(Printf.sprintf "ff%d" i)
        ~cell:dff
        ~inputs:[ ("D", d); ("CK", clk) ]
        ~outputs:[ ("Q", q) ]
    in
    movable := id :: !movable;
    avail := q :: !avail
  done;
  Netlist.mark_primary_output nl (pick !avail);
  (nl, Array.of_list !movable)

let test_retime_random_sequences =
  Helpers.qtest ~count:30 "retime = fresh run under random move sequences"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nl, movable = random_dag rng in
      let t = Timing.run config nl in
      let steps = 1 + Rng.int rng 4 in
      for _ = 1 to steps do
        let n_moves = 1 + Rng.int rng 3 in
        for _ = 1 to n_moves do
          let id = movable.(Rng.int rng (Array.length movable)) in
          match Netlist.instance_opt nl id with
          | None -> ()
          | Some inst -> (
            match ladder_of inst.Netlist.cell with
            | [] -> ()
            | ladder ->
              let cell = List.nth ladder (Rng.int rng (List.length ladder)) in
              Netlist.set_cell nl id cell)
        done;
        Timing.retime t;
        check_same_analysis (Printf.sprintf "seed %d" seed) nl t (Timing.run config nl)
      done;
      true)

(* Retime must touch fewer nodes than a full run on local moves — the
   point of the whole exercise — measured with the Obs eval counter. *)
let test_retime_fewer_evals () =
  with_obs @@ fun () ->
  let nl = inverter_chain 16 in
  let t = Timing.run config nl in
  let target = ref None in
  Netlist.iter_instances nl ~f:(fun inst ->
      if inst.Netlist.inst_name = "inv14" then target := Some inst.inst_id);
  let inst_id = Option.get !target in
  Netlist.set_cell nl inst_id (Library.find lib "INV_4");
  let before = Obs.counter_value "sta.node_evals" in
  Timing.retime t;
  let retime_evals = Obs.counter_value "sta.node_evals" - before in
  check_same_analysis "late-chain resize" nl t (Timing.run config nl);
  (* the cone of a move near the chain's end is a handful of nodes;
     a full pass is 17 (16 inverters + the register) *)
  Alcotest.(check bool)
    (Printf.sprintf "cone is local (%d evals)" retime_evals)
    true
    (retime_evals > 0 && retime_evals <= 6)

(* --------------------------- independent oracle -------------------- *)

(* A naive reference for arrivals, slews and min-arrivals, written from
   the delay model alone: memoised recursion from each net back through
   its driver's arcs, scalar Arc.delay / Arc.min_delay / Arc.transition
   queries, and loads summed over the net's sinks in sink-list order.
   It shares no code with Timing's graph build, level order or load
   refresh. *)
let reference_timing (cfg : Timing.config) nl =
  let pin_of (cell : Cell.t) name =
    List.find_opt (fun (p : Pin.t) -> p.Pin.name = name) cell.Cell.pins
  in
  let pos = Netlist.primary_outputs nl in
  let load nid =
    let net = Netlist.net nl nid in
    let caps =
      List.fold_left
        (fun acc (r : Netlist.pin_ref) ->
          match pin_of (Netlist.instance nl r.inst).Netlist.cell r.pin with
          | Some p -> acc +. p.Pin.capacitance
          | None -> acc)
        0.0 net.Netlist.sinks
    in
    let n = List.length net.sinks in
    let wire =
      if n = 0 then 0.0
      else cfg.Timing.wire_cap_base +. (cfg.wire_cap_per_sink *. float_of_int n)
    in
    caps +. wire +. if List.mem nid pos then cfg.output_load else 0.0
  in
  let memo = Hashtbl.create 64 in
  let rec node nid =
    match Hashtbl.find_opt memo nid with
    | Some v -> v
    | None ->
      let source = (0.0, cfg.input_slew, infinity) in
      let v =
        match (Netlist.net nl nid).Netlist.driver with
        | None -> source
        | Some r -> (
          let inst = Netlist.instance nl r.inst in
          match pin_of inst.cell r.pin with
          | None | Some { Pin.arcs = []; _ } -> source
          | Some out ->
            let ld = load nid in
            let seq = Cell.is_sequential inst.cell in
            List.fold_left
              (fun (arr, slew, mn) (arc : Arc.t) ->
                let ia, is, im =
                  if seq then (0.0, cfg.clock_slew, 0.0)
                  else
                    match List.assoc_opt arc.Arc.related_pin inst.inputs with
                    | None -> source
                    | Some n -> node n
                in
                ( Float.max arr (ia +. Arc.delay arc ~slew:is ~load:ld),
                  Float.max slew (Arc.transition arc ~slew:is ~load:ld),
                  if im < infinity then Float.min mn (im +. Arc.min_delay arc ~slew:is ~load:ld)
                  else mn ))
              (neg_infinity, 0.0, infinity) out.arcs)
      in
      Hashtbl.replace memo nid v;
      v
  in
  fun nid -> (load nid, node nid)

(* The arc count of each output of [inst] under [cell], and whether
   [cell] is sequential: what a swap must keep for the timing graph to
   refresh the instance in place. *)
let arc_shape (inst : Netlist.instance) (cell : Cell.t) =
  ( Cell.is_sequential cell,
    List.map
      (fun (pin, _) ->
        match Cell.find_pin cell pin with Some p -> List.length p.Pin.arcs | None -> -1)
      inst.outputs )

(* Structural edits of the kinds the sizer makes, on a random DAG:
   tombstoning an instance, inserting a buffer and moving some of a
   net's sinks behind it, adding a gate (single- or multi-output, or a
   tie cell, some inputs possibly unconnected) on fresh nets, moving an
   input onto a new primary input, swapping a cell for one with the
   same pins but another arc shape (ND2 to ND3, a tie cell to an
   inverter), and marking a net as a primary output or input.  Every
   edit keeps the logic acyclic. *)
let structural_edit ?(lib = lib) rng nl =
  let pick xs = List.nth xs (Rng.int rng (List.length xs)) in
  let live = Netlist.fold_instances nl ~init:[] ~f:(fun acc i -> i :: acc) in
  let clock = Netlist.clock nl in
  let data_nets =
    List.filter
      (fun nid -> Some nid <> clock)
      (List.init (Netlist.net_count nl) Fun.id)
  in
  match Rng.int rng 6 with
  | 0 -> (
    match live with [] -> () | _ -> Netlist.remove_instance nl (pick live).Netlist.inst_id)
  | 1 -> (
    let sunk =
      List.filter (fun nid -> (Netlist.net nl nid).Netlist.sinks <> []) data_nets
    in
    match sunk with
    | [] -> ()
    | _ ->
      let nid = pick sunk in
      let sinks = (Netlist.net nl nid).Netlist.sinks in
      let b = Netlist.add_net nl () in
      ignore
        (Netlist.add_instance nl
           ~inst_name:(Netlist.fresh_name nl ~prefix:"buf")
           ~cell:(Library.find lib (pick [ "BUF_2"; "BUF_4"; "BUF_8" ]))
           ~inputs:[ ("A", nid) ]
           ~outputs:[ ("Z", b) ]);
      List.iter
        (fun (r : Netlist.pin_ref) ->
          if Rng.int rng 2 = 0 then Netlist.rewire_input nl ~inst:r.inst ~pin:r.pin b)
        sinks)
  | 2 ->
    let cell =
      Library.find lib (pick [ "INV_2"; "ND2_1"; "XO2_1"; "FA1_1"; "MU2_1"; "TIE0_1" ])
    in
    (* an input left unconnected reads as a primary input *)
    let inputs =
      List.filter_map
        (fun p -> if Rng.int rng 5 = 0 then None else Some (p, pick data_nets))
        (Cell.data_input_names cell)
    in
    let outputs =
      List.map (fun (p : Pin.t) -> (p.Pin.name, Netlist.add_net nl ())) (Cell.output_pins cell)
    in
    ignore
      (Netlist.add_instance nl
         ~inst_name:(Netlist.fresh_name nl ~prefix:"add")
         ~cell ~inputs ~outputs);
    if Rng.int rng 2 = 0 then Netlist.mark_primary_output nl (snd (pick outputs))
  | 3 -> (
    let comb =
      List.filter
        (fun i -> (not (Cell.is_sequential i.Netlist.cell)) && i.Netlist.inputs <> [])
        live
    in
    match comb with
    | [] -> ()
    | _ ->
      let inst = pick comb in
      let pi = Netlist.add_net nl () in
      Netlist.mark_primary_input nl pi;
      Netlist.rewire_input nl ~inst:inst.inst_id ~pin:(fst (pick inst.inputs)) pi)
  | 4 -> (
    let swaps =
      List.concat_map
        (fun (inst : Netlist.instance) ->
          let fits (cell : Cell.t) =
            let on dir (pin, _) =
              match Cell.find_pin cell pin with Some p -> p.Pin.direction = dir | None -> false
            in
            List.for_all (on Pin.Input) inst.inputs
            && List.for_all (on Pin.Output) inst.outputs
            && arc_shape inst cell <> arc_shape inst inst.cell
          in
          List.map (fun c -> (inst.inst_id, c)) (List.filter fits (Library.cells lib)))
        live
    in
    match swaps with
    | [] -> ()
    | _ ->
      let id, cell = pick swaps in
      Netlist.set_cell nl id cell)
  | _ ->
    if Rng.int rng 2 = 0 then Netlist.mark_primary_output nl (pick data_nets)
    else begin
      let undriven =
        List.filter (fun nid -> (Netlist.net nl nid).Netlist.driver = None) data_nets
      in
      Netlist.mark_primary_input nl (pick (Netlist.add_net nl () :: undriven))
    end

let test_run_matches_reference =
  Helpers.qtest ~count:40 ~long_factor:15 "run = naive reference under structural edits"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nl, _ = random_dag rng in
      for _ = 1 to 1 + Rng.int rng 8 do
        structural_edit rng nl
      done;
      let t = Timing.run config nl in
      let reference = reference_timing config nl in
      for nid = 0 to Netlist.net_count nl - 1 do
        let load, (arrival, slew, min_arrival) = reference nid in
        let check what got want =
          if bits got <> bits want then
            QCheck2.Test.fail_reportf "seed %d: net %d %s: %h <> reference %h" seed nid what
              got want
        in
        check "load" (Timing.net_load t nid) load;
        check "arrival" (Timing.net_arrival t nid) arrival;
        check "slew" (Timing.net_slew t nid) slew;
        check "min_arrival" (Timing.net_min_arrival t nid) min_arrival
      done;
      true)

(* Structural retime against a fresh run: after each edit the one
   analysis is updated in place — never by a full run — and must match
   a fresh analysis of the edited netlist bit for bit. *)
let test_retime_matches_run =
  Helpers.qtest ~count:40 ~long_factor:15 "retime = fresh run after each structural edit"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      with_obs @@ fun () ->
      let rng = Rng.create seed in
      let nl, _ = random_dag rng in
      let t = Timing.run config nl in
      for edit = 1 to 1 + Rng.int rng 8 do
        structural_edit rng nl;
        retime_checked (Printf.sprintf "seed %d, edit %d" seed edit) nl t
      done;
      true)

(* Design sigma's fold against the path list it replaces, on random
   DAGs of the statistical library and after each structural edit and
   its retime: every field must match [of_paths] bit for bit. *)
let same_design_sigma (a : Design_sigma.t) (b : Design_sigma.t) =
  a.paths = b.paths
  && bits a.dist.Dist.mean = bits b.dist.Dist.mean
  && bits a.dist.Dist.sigma = bits b.dist.Dist.sigma
  && bits a.worst_path_3sigma = bits b.worst_path_3sigma

let of_paths t nl = Design_sigma.of_paths (Path.worst_per_endpoint t nl)
let fold_matches_paths t nl = same_design_sigma (Design_sigma.measure t nl) (of_paths t nl)

let test_design_sigma_fold =
  Helpers.qtest ~count:40 ~long_factor:15 "design sigma fold = paths"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let lib = Lazy.force Helpers.small_statlib in
      let rng = Rng.create seed in
      let nl, _ = random_dag ~lib rng in
      let t = Timing.run config nl in
      if not (fold_matches_paths t nl) then QCheck2.Test.fail_reportf "seed %d: fresh run" seed;
      for edit = 1 to 1 + Rng.int rng 8 do
        structural_edit ~lib rng nl;
        Timing.retime t;
        if not (fold_matches_paths t nl) then
          QCheck2.Test.fail_reportf "seed %d: after edit %d" seed edit
      done;
      true)

(* The same identity on the paper's flow: the mcu baseline and its
   cell/ceiling=0.02 run at each of the four paper periods. *)
let test_design_sigma_fold_mcu () =
  let module Experiment = Vartune_flow.Experiment in
  let module Synthesis = Vartune_synth.Synthesis in
  let setup =
    Experiment.prepare_request (Vartune_flow.Request.Min_period { seed = 42; samples = 50 })
  in
  let tuning = Option.get (Vartune_tuning.Tuning_method.of_string "cell/ceiling=0.02") in
  List.iter
    (fun (label, period) ->
      List.iter
        (fun (which, (run : Experiment.run)) ->
          let r = run.Experiment.result in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: fold = paths" label which)
            true
            (same_design_sigma run.Experiment.design_sigma
               (of_paths r.Synthesis.timing r.Synthesis.netlist)
            && fold_matches_paths r.Synthesis.timing r.Synthesis.netlist))
        [
          ("baseline", Experiment.baseline setup ~period);
          ("cell/ceiling=0.02", Experiment.tuned setup ~period ~tuning);
        ])
    setup.Experiment.periods

(* [iter_slew_changes] against a diff of every net's slew around each
   structural edit and its retime: exactly the nets whose slew bits
   moved are reported, each once (a net the edit created read the input
   slew before). *)
let test_retime_reports_slew_changes =
  Helpers.qtest ~count:40 ~long_factor:15 "retime reports every moved slew"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nl, _ = random_dag rng in
      let t = Timing.run config nl in
      Timing.iter_slew_changes t ~f:(fun nid ->
          QCheck2.Test.fail_reportf "seed %d: run reported net %d" seed nid);
      for edit = 1 to 1 + Rng.int rng 8 do
        let before = Array.init (Netlist.net_count nl) (Timing.net_slew t) in
        structural_edit rng nl;
        Timing.retime t;
        let reported = Array.make (Netlist.net_count nl) false in
        Timing.iter_slew_changes t ~f:(fun nid ->
            if reported.(nid) then
              QCheck2.Test.fail_reportf "seed %d, edit %d: net %d reported twice" seed edit nid;
            reported.(nid) <- true);
        for nid = 0 to Netlist.net_count nl - 1 do
          let old = if nid < Array.length before then before.(nid) else config.input_slew in
          let now = Timing.net_slew t nid in
          if (bits old <> bits now) <> reported.(nid) then
            QCheck2.Test.fail_reportf "seed %d, edit %d: net %d slew %h -> %h, reported %b" seed
              edit nid old now reported.(nid)
        done
      done;
      true)

(* --------------------------- golden digests ----------------------- *)

(* MD5 over every observable of an analysis, bit for bit: per net its
   load, arrival, slew, required and min-arrival bits and its driver's
   winning arc (related pin and delay bits, which fix the arc index);
   then every setup and hold endpoint's arrival, required and slack. *)
let sta_digest nl t =
  let b = Buffer.create (1 lsl 16) in
  let add x = Buffer.add_int64_le b (bits x) in
  for nid = 0 to Netlist.net_count nl - 1 do
    add (Timing.net_load t nid);
    add (Timing.net_arrival t nid);
    add (Timing.net_slew t nid);
    add (Timing.net_required t nid);
    add (Timing.net_min_arrival t nid);
    match (Netlist.net nl nid).Netlist.driver with
    | None -> Buffer.add_char b '-'
    | Some r -> (
      match Timing.critical_input t r.Netlist.inst ~out_pin:r.pin with
      | None -> Buffer.add_char b '.'
      | Some (pin, _, delay) ->
        Buffer.add_string b pin;
        Buffer.add_char b '\000';
        add delay)
  done;
  let add_eps eps =
    List.iter
      (fun (ep : Timing.endpoint_timing) ->
        add ep.Timing.arrival;
        add ep.required;
        add ep.slack)
      eps
  in
  add_eps (Timing.endpoints t);
  Buffer.add_char b '|';
  add_eps (Timing.hold_endpoints t);
  Digest.to_hex (Digest.string (Buffer.contents b))

module Characterize = Vartune_charlib.Characterize
module Synth = Vartune_synth

let full_lib = lazy (Characterize.nominal Characterize.default_config)

(* The microcontroller mapped as Synthesis.min_period maps it (at its
   default upper period, no area recovery), exported so every probe
   sizes a fresh copy. *)
let mcu_mapped =
  lazy
    (let lib = Lazy.force full_lib in
     let cons = Synth.Constraints.make ~clock_period:20.0 ~area_recovery:false () in
     Netlist.export (Synth.Mapper.map cons lib (Vartune_rtl.Microcontroller.generate ())))

(* Recorded before the timing graph moved to flat arrays; a change to
   the propagation, the load model or the graph build that moves any
   bit fails here. *)
let test_golden_mapped () =
  let nl = Netlist.import (Lazy.force mcu_mapped) in
  let t = Timing.run (Timing.default_config ~clock_period:20.0) nl in
  Alcotest.(check string) "mapped mcu @ 20 ns" "b8ca158034507c0bd4e0e658ffa370cb" (sta_digest nl t)

(* Two probes of the nominal minimum-period bisection (lo 0.5, hi 20):
   4.15625 ns closes, 4.080078125 ns does not.  The sizer's returned
   analysis went through retime and structural rebuilds; a fresh run on
   the sized netlist must give the same digest. *)
let test_golden_sized () =
  let lib = Lazy.force full_lib in
  List.iter
    (fun (period, feasible, want) ->
      let nl = Netlist.import (Lazy.force mcu_mapped) in
      let cons = Synth.Constraints.make ~clock_period:period ~area_recovery:false () in
      let t, _ = Synth.Sizer.optimize cons lib nl in
      let label = Printf.sprintf "sized mcu @ %g ns" period in
      Alcotest.(check bool) (label ^ ": feasible") feasible (Timing.worst_slack t >= 0.0);
      Alcotest.(check string) label want (sta_digest nl t);
      Alcotest.(check string) (label ^ ": fresh run") want
        (sta_digest nl (Timing.run (Timing.config t) nl)))
    [ (4.15625, true, "d9639db20dbc8cfb120dd380ba609da0"); (4.080078125, false, "60e3bc61685b173a4ca7a21e6c196f59") ]

let () =
  Alcotest.run "sta"
    [
      ( "timing",
        [
          Alcotest.test_case "arrival matches manual" `Quick test_arrival_matches_manual;
          Alcotest.test_case "worst slack / tns" `Quick test_worst_slack_and_tns;
          Alcotest.test_case "required consistency" `Quick test_net_required_consistency;
          Alcotest.test_case "fresh net defaults" `Quick test_out_of_range_net_defaults;
          Alcotest.test_case "fanout raises load" `Quick test_fanout_raises_load;
        ] );
      ( "path",
        [
          Alcotest.test_case "backtrace" `Quick test_path_backtrace;
          Alcotest.test_case "launch from register" `Quick test_launch_from_register;
          Alcotest.test_case "depth histogram" `Quick test_depth_histogram;
        ] );
      ( "hold",
        [
          Alcotest.test_case "pi fanin unconstrained" `Quick test_hold_unconstrained_from_pi;
          Alcotest.test_case "register launched" `Quick test_hold_register_launched;
          Alcotest.test_case "min arrival monotone" `Quick test_hold_min_arrival_grows_with_depth;
        ] );
      ( "power",
        [
          Alcotest.test_case "positive and composed" `Quick test_power_positive_and_composed;
          Alcotest.test_case "scales with frequency" `Quick test_power_scales_with_frequency;
          Alcotest.test_case "scales with activity" `Quick test_power_scales_with_activity;
        ] );
      ( "report",
        [ Alcotest.test_case "timing report" `Quick test_timing_report ] );
      ( "retime",
        [
          Alcotest.test_case "chain resize" `Quick test_retime_chain_resize;
          Alcotest.test_case "empty change set" `Quick test_retime_empty_and_counters;
          Alcotest.test_case "structural edits" `Quick test_retime_structural_edits;
          Alcotest.test_case "fewer evals on local move" `Quick test_retime_fewer_evals;
          test_retime_random_sequences;
        ] );
      ( "oracle",
        [ test_run_matches_reference; test_retime_matches_run; test_retime_reports_slew_changes ]
      );
      ( "sigma",
        [
          test_design_sigma_fold;
          Alcotest.test_case "mcu fold = paths at the paper periods" `Slow
            test_design_sigma_fold_mcu;
        ] );
      ( "golden",
        [
          Alcotest.test_case "mapped mcu digest" `Slow test_golden_mapped;
          Alcotest.test_case "sized mcu digests" `Slow test_golden_sized;
        ] );
    ]
