(* Tests for Vartune_synth: Constraints, Choice, Mapper (including
   functional equivalence against the IR), Sizer and Synthesis. *)

module Ir = Vartune_rtl.Ir
module Word = Vartune_rtl.Word
module Netlist = Vartune_netlist.Netlist
module Check = Vartune_netlist.Check
module Library = Vartune_liberty.Library
module Cell = Vartune_liberty.Cell
module Constraints = Vartune_synth.Constraints
module Choice = Vartune_synth.Choice
module Mapper = Vartune_synth.Mapper
module Sizer = Vartune_synth.Sizer
module Synthesis = Vartune_synth.Synthesis
module Timing = Vartune_sta.Timing
module Restrict = Vartune_tuning.Restrict
module Characterize = Vartune_charlib.Characterize

(* mapping needs the full catalog (FA1, MU2I, B-variants, ...) *)
let full_lib = lazy (Characterize.nominal Characterize.default_config)

let cons = Constraints.make ~clock_period:5.0 ()

(* ----------------------------- Constraints -------------------------- *)

let test_constraints_no_restrictions () =
  let lib = Lazy.force full_lib in
  let inv = Library.find lib "INV_1" in
  Alcotest.(check bool) "allows" true (Constraints.allows cons ~cell:inv ~slew:0.5 ~load:0.01);
  Alcotest.(check bool) "usable" true (Constraints.usable cons inv);
  Alcotest.(check bool) "load max" true (Constraints.window_load_max cons inv = infinity)

let test_constraints_with_window () =
  let lib = Lazy.force full_lib in
  let inv = Library.find lib "INV_1" in
  let table = Restrict.empty_table () in
  Restrict.set table ~cell:"INV_1" ~pin:"Z"
    (Restrict.Window { Restrict.slew_min = 0.0; slew_max = 0.2; load_min = 0.0; load_max = 0.005 });
  let rcons = Constraints.make ~clock_period:5.0 ~restrictions:table () in
  Alcotest.(check bool) "inside" true (Constraints.allows rcons ~cell:inv ~slew:0.1 ~load:0.004);
  Alcotest.(check bool) "slew out" false (Constraints.allows rcons ~cell:inv ~slew:0.3 ~load:0.004);
  Alcotest.(check bool) "load out" false (Constraints.allows rcons ~cell:inv ~slew:0.1 ~load:0.006);
  Helpers.check_float "window load max" 0.005 (Constraints.window_load_max rcons inv);
  Restrict.set table ~cell:"INV_1" ~pin:"Z" Restrict.Unusable;
  Alcotest.(check bool) "unusable" false (Constraints.usable rcons inv)

(* ------------------------------- Choice ------------------------------ *)

let test_choice_pick_smallest_fitting () =
  let lib = Lazy.force full_lib in
  let c = Choice.pick cons lib ~family:"INV" ~load:0.001 ~slew:0.1 in
  Alcotest.(check string) "smallest" "INV_1" c.Cell.name;
  let big = Choice.pick cons lib ~family:"INV" ~load:0.1 ~slew:0.1 in
  Alcotest.(check bool) "bigger drive for big load" true (big.Cell.drive_strength >= 9)

let test_choice_up_down () =
  let lib = Lazy.force full_lib in
  let inv2 = Library.find lib "INV_2" in
  (match Choice.upsize cons lib inv2 ~load:0.002 ~slew:0.1 with
  | Some c -> Alcotest.(check string) "next up" "INV_3" c.Cell.name
  | None -> Alcotest.fail "upsize");
  (match Choice.downsize cons lib inv2 ~load:0.002 ~slew:0.1 with
  | Some c -> Alcotest.(check string) "next down" "INV_1" c.Cell.name
  | None -> Alcotest.fail "downsize");
  let inv32 = Library.find lib "INV_32" in
  Alcotest.(check bool) "top of ladder" true
    (Choice.upsize cons lib inv32 ~load:0.002 ~slew:0.1 = None);
  let inv1 = Library.find lib "INV_1" in
  Alcotest.(check bool) "bottom of ladder" true
    (Choice.downsize cons lib inv1 ~load:0.002 ~slew:0.1 = None)

let test_choice_respects_window () =
  let lib = Lazy.force full_lib in
  let table = Restrict.empty_table () in
  (* forbid INV_1 entirely: picking must skip to INV_2 *)
  Restrict.set table ~cell:"INV_1" ~pin:"Z" Restrict.Unusable;
  let rcons = Constraints.make ~clock_period:5.0 ~restrictions:table () in
  let c = Choice.pick rcons lib ~family:"INV" ~load:0.001 ~slew:0.1 in
  Alcotest.(check string) "skips unusable" "INV_2" c.Cell.name

(* ------------------------------- Mapper ------------------------------ *)

(* random combinational IR + evaluation-based equivalence *)
let random_ir seed =
  let module Rng = Vartune_util.Rng in
  let rng = Rng.create seed in
  let g = Ir.create ~name:"rand" in
  let a = Word.inputs g ~prefix:"a" ~width:4 in
  let b = Word.inputs g ~prefix:"b" ~width:4 in
  let sum, carry = Word.add g a b in
  let prod = Word.multiply g (Array.sub a 0 2) (Array.sub b 0 2) in
  let cmp = Word.less_than g a b in
  let sel = Word.mux g ~sel:cmp sum (Word.logxor g a b) in
  Word.outputs g ~prefix:"sum" sel;
  Word.outputs g ~prefix:"prod" prod;
  Ir.output g "carry" carry;
  Ir.output g "nz" (Word.reduce_or g a);
  (* a few random extra gates for pattern variety *)
  for _ = 1 to 10 do
    let x = a.(Rng.int rng 4) and y = b.(Rng.int rng 4) in
    Ir.output g (Printf.sprintf "r%d" (Rng.int rng 100000))
      (Ir.not_ g (Ir.and2 g x (Ir.or2 g y (Ir.xor2 g x y))))
  done;
  g

let test_mapper_validates () =
  let lib = Lazy.force full_lib in
  let nl = Mapper.map cons lib (random_ir 1) in
  Alcotest.(check bool) "valid netlist" true (Check.validate nl = Ok ())

let test_mapper_equivalence =
  Helpers.qtest ~count:60 "mapped netlist == IR semantics"
    QCheck2.Gen.(pair (int_range 0 10) (int_range 0 65535))
    (fun (seed, vector) ->
      let lib = Lazy.force full_lib in
      let g = random_ir seed in
      let nl = Mapper.map cons lib g in
      (* primary input order in the netlist follows Ir.inputs order *)
      let input_names = List.map fst (Ir.inputs g) in
      let assignment =
        List.mapi (fun i name -> (name, (vector lsr i) land 1 = 1)) input_names
      in
      let ir_out = Helpers.eval_ir_outputs g ~inputs:assignment in
      let nl_out = Helpers.eval_netlist nl ~input_values:(List.map snd assignment) in
      (* netlist POs are marked in Ir.outputs order *)
      List.for_all2 (fun (_, expect) got -> expect = got) ir_out nl_out)

let test_mapper_equivalence_delay_style =
  Helpers.qtest ~count:30 "delay-style mapping equivalence"
    QCheck2.Gen.(pair (int_range 0 5) (int_range 0 65535))
    (fun (seed, vector) ->
      let lib = Lazy.force full_lib in
      let g = random_ir seed in
      let nl = Mapper.map ~style:Mapper.Delay cons lib g in
      let input_names = List.map fst (Ir.inputs g) in
      let assignment =
        List.mapi (fun i name -> (name, (vector lsr i) land 1 = 1)) input_names
      in
      let ir_out = Helpers.eval_ir_outputs g ~inputs:assignment in
      let nl_out = Helpers.eval_netlist nl ~input_values:(List.map snd assignment) in
      List.for_all2 (fun (_, expect) got -> expect = got) ir_out nl_out)

let family_used nl family =
  List.exists (fun (name, _) -> name = family) (Netlist.family_usage nl)

let test_mapper_patterns () =
  let lib = Lazy.force full_lib in
  (* NAND absorption: out = !(a & b) must become a single ND2 *)
  let g = Ir.create ~name:"pat" in
  let a = Ir.input g "a" and b = Ir.input g "b" in
  Ir.output g "nand" (Ir.not_ g (Ir.and2 g a b));
  let nl = Mapper.map cons lib g in
  Alcotest.(check bool) "ND2 used" true (family_used nl "ND2");
  Alcotest.(check bool) "no AN2" false (family_used nl "AN2");
  Alcotest.(check int) "single cell" 1 (Netlist.instance_count nl)

let test_mapper_demorgan () =
  let lib = Lazy.force full_lib in
  (* !a & !b = NR2(a,b) when the inverters are single-use *)
  let g = Ir.create ~name:"dm" in
  let a = Ir.input g "a" and b = Ir.input g "b" in
  Ir.output g "nor" (Ir.and2 g (Ir.not_ g a) (Ir.not_ g b));
  let nl = Mapper.map cons lib g in
  Alcotest.(check bool) "NR2 used" true (family_used nl "NR2");
  Alcotest.(check int) "single cell" 1 (Netlist.instance_count nl)

let test_mapper_bubble () =
  let lib = Lazy.force full_lib in
  (* a & !b = NR2B *)
  let g = Ir.create ~name:"bub" in
  let a = Ir.input g "a" and b = Ir.input g "b" in
  Ir.output g "z" (Ir.and2 g a (Ir.not_ g b));
  let nl = Mapper.map cons lib g in
  Alcotest.(check bool) "NR2B used" true (family_used nl "NR2B");
  Alcotest.(check int) "single cell" 1 (Netlist.instance_count nl)

let test_mapper_fa_fusion () =
  let lib = Lazy.force full_lib in
  let g = Ir.create ~name:"fa" in
  let a = Ir.input g "a" and b = Ir.input g "b" and c = Ir.input g "c" in
  Ir.output g "s" (Ir.xor3 g a b c);
  Ir.output g "co" (Ir.maj3 g a b c);
  let area_nl = Mapper.map ~style:Mapper.Area cons lib g in
  Alcotest.(check bool) "FA1 fused" true (family_used area_nl "FA1");
  Alcotest.(check int) "one cell" 1 (Netlist.instance_count area_nl);
  let delay_nl = Mapper.map ~style:Mapper.Delay cons lib g in
  Alcotest.(check bool) "no fusion in delay style" false (family_used delay_nl "FA1");
  Alcotest.(check bool) "XO3+MAJ3 instead" true
    (family_used delay_nl "XO3" && family_used delay_nl "MAJ3")

let test_mapper_tree_collapse () =
  let lib = Lazy.force full_lib in
  (* !(a&b&c&d) should become one ND4 *)
  let g = Ir.create ~name:"tree" in
  let a = Ir.input g "a" and b = Ir.input g "b" in
  let c = Ir.input g "c" and d = Ir.input g "d" in
  Ir.output g "z" (Ir.not_ g (Ir.and2 g (Ir.and2 g a b) (Ir.and2 g c d)));
  let nl = Mapper.map cons lib g in
  Alcotest.(check bool) "ND4 used" true (family_used nl "ND4");
  Alcotest.(check int) "one cell" 1 (Netlist.instance_count nl)

let test_mapper_dead_logic_dropped () =
  let lib = Lazy.force full_lib in
  let g = Ir.create ~name:"dead" in
  let a = Ir.input g "a" and b = Ir.input g "b" in
  ignore (Ir.xor2 g a b) (* dead *);
  Ir.output g "z" (Ir.and2 g a b);
  let nl = Mapper.map cons lib g in
  Alcotest.(check bool) "no XO2" false (family_used nl "XO2");
  Alcotest.(check int) "one live cell" 1 (Netlist.instance_count nl)

let test_mapper_sequential () =
  let lib = Lazy.force full_lib in
  let g = Ir.create ~name:"seq" in
  let a = Ir.input g "a" in
  let q = Ir.ff g ~d:(Ir.not_ g a) () in
  Ir.output g "q" q;
  let nl = Mapper.map cons lib g in
  Alcotest.(check bool) "DFF used" true (family_used nl "DFF");
  Alcotest.(check bool) "clock set" true (Netlist.clock nl <> None);
  Alcotest.(check bool) "valid" true (Check.validate nl = Ok ())

(* ----------------------------- Sizer/Synthesis ----------------------- *)

let small_design () =
  let g = Ir.create ~name:"small" in
  let a = Word.inputs g ~prefix:"a" ~width:8 in
  let b = Word.inputs g ~prefix:"b" ~width:8 in
  let sum, _ = Word.add g a b in
  let regged = Word.reg g sum in
  Word.outputs g ~prefix:"s" regged;
  g

let test_synthesis_meets_relaxed_timing () =
  let lib = Lazy.force full_lib in
  let r = Synthesis.run (Constraints.make ~clock_period:8.0 ()) lib (small_design ()) in
  Alcotest.(check bool) "feasible" true r.Synthesis.feasible;
  Alcotest.(check bool) "area positive" true (r.Synthesis.area > 0.0);
  Alcotest.(check bool) "netlist valid" true (Check.validate r.Synthesis.netlist = Ok ())

let test_synthesis_tighter_clock_not_larger_slack () =
  let lib = Lazy.force full_lib in
  let relaxed = Synthesis.run (Constraints.make ~clock_period:8.0 ()) lib (small_design ()) in
  let tight = Synthesis.run (Constraints.make ~clock_period:1.0 ()) lib (small_design ()) in
  Alcotest.(check bool) "tight slack smaller" true
    (tight.Synthesis.worst_slack < relaxed.Synthesis.worst_slack)

let test_synthesis_infeasible_reported () =
  let lib = Lazy.force full_lib in
  let r = Synthesis.run (Constraints.make ~clock_period:0.35 ()) lib (small_design ()) in
  Alcotest.(check bool) "infeasible" false r.Synthesis.feasible

let test_fanout_limit_enforced () =
  (* one signal driving 64 sinks must get buffered below max_fanout *)
  let lib = Lazy.force full_lib in
  let g = Ir.create ~name:"fan" in
  let a = Ir.input g "a" and b = Ir.input g "b" in
  let x = Ir.and2 g a b in
  for i = 0 to 63 do
    Ir.output g (Printf.sprintf "o%d" i) (Ir.ff g ~d:(Ir.xor2 g x (if i mod 2 = 0 then a else b)) ())
  done;
  let max_fanout = 16 in
  let c = Constraints.make ~clock_period:6.0 ~max_fanout () in
  let r = Synthesis.run c lib g in
  let ok = ref true in
  Netlist.iter_nets r.Synthesis.netlist ~f:(fun net ->
      if Some net.Netlist.net_id <> Netlist.clock r.Synthesis.netlist then
        if List.length net.Netlist.sinks > max_fanout then ok := false);
  Alcotest.(check bool) "all fanouts within limit" true !ok;
  Alcotest.(check bool) "buffers inserted" true (r.Synthesis.sizer.Sizer.buffered > 0)

let test_restrictions_honoured () =
  let lib = Lazy.force Helpers.small_statlib in
  (* build restrictions with a moderate ceiling over the small library *)
  let tuning =
    { Vartune_tuning.Tuning_method.population = Vartune_tuning.Cluster.Per_cell;
      criterion = Vartune_tuning.Threshold.Sigma_ceiling 0.02 }
  in
  let table = Vartune_tuning.Tuning_method.restrictions tuning lib in
  let c = Constraints.make ~clock_period:8.0 ~restrictions:table () in
  let r = Synthesis.run c lib (small_design ()) in
  Alcotest.(check bool) "feasible" true r.Synthesis.feasible;
  Alcotest.(check int) "no window violations" 0 r.Synthesis.sizer.Sizer.window_violations

(* Optimisation (resizing, buffering, decomposition) must preserve the
   logic function.  A tight clock forces the sizer through all of its
   moves; we then re-check the synthesised netlist against IR semantics. *)
let test_synthesis_preserves_function =
  Helpers.qtest ~count:25 "optimised netlist == IR semantics"
    QCheck2.Gen.(pair (int_range 0 6) (int_range 0 65535))
    (fun (seed, vector) ->
      let lib = Lazy.force full_lib in
      let g = random_ir seed in
      (* clock tight enough to trigger upsizing + decomposition *)
      let r = Synthesis.run (Constraints.make ~clock_period:0.8 ()) lib g in
      let input_names = List.map fst (Ir.inputs g) in
      let assignment =
        List.mapi (fun i name -> (name, (vector lsr i) land 1 = 1)) input_names
      in
      let ir_out = Helpers.eval_ir_outputs g ~inputs:assignment in
      let nl_out =
        Helpers.eval_netlist r.Synthesis.netlist ~input_values:(List.map snd assignment)
      in
      List.for_all2 (fun (_, expect) got -> expect = got) ir_out nl_out)

let test_synthesis_with_windows_preserves_function =
  Helpers.qtest ~count:15 "window-restricted netlist == IR semantics"
    QCheck2.Gen.(pair (int_range 0 4) (int_range 0 65535))
    (fun (seed, vector) ->
      let lib = Lazy.force Helpers.small_statlib in
      let tuning =
        { Vartune_tuning.Tuning_method.population = Vartune_tuning.Cluster.Per_cell;
          criterion = Vartune_tuning.Threshold.Sigma_ceiling 0.02 }
      in
      let table = Vartune_tuning.Tuning_method.restrictions tuning lib in
      let g = random_ir seed in
      let r =
        Synthesis.run (Constraints.make ~clock_period:4.0 ~restrictions:table ()) lib g
      in
      let input_names = List.map fst (Ir.inputs g) in
      let assignment =
        List.mapi (fun i name -> (name, (vector lsr i) land 1 = 1)) input_names
      in
      let ir_out = Helpers.eval_ir_outputs g ~inputs:assignment in
      let nl_out =
        Helpers.eval_netlist r.Synthesis.netlist ~input_values:(List.map snd assignment)
      in
      List.for_all2 (fun (_, expect) got -> expect = got) ir_out nl_out)

let test_verilog_of_synthesised_roundtrip =
  Helpers.qtest ~count:10 "verilog roundtrip of synthesised netlists"
    QCheck2.Gen.(int_range 0 8)
    (fun seed ->
      let module Verilog = Vartune_netlist.Verilog in
      let lib = Lazy.force full_lib in
      let g = random_ir seed in
      let r = Synthesis.run (Constraints.make ~clock_period:3.0 ()) lib g in
      let back = Verilog.parse ~library:lib (Verilog.to_string r.Synthesis.netlist) in
      Check.validate back = Ok ()
      && Netlist.instance_count back = Netlist.instance_count r.Synthesis.netlist
      && Netlist.cell_usage back = Netlist.cell_usage r.Synthesis.netlist)

(* Incremental retiming inside the sizer, and the candidate-only scans
   that come with it, are optimisations of the analysis only: the
   optimisation trajectory — every move, and with it the final netlist,
   timing and report — must be identical with them on and off. *)
let same_sizing name cons lib design =
  let bits = Int64.bits_of_float in
  let full = Synthesis.run ~incremental:false cons lib (design ()) in
  let inc = Synthesis.run ~incremental:true cons lib (design ()) in
  let name what = Printf.sprintf "%s: %s" name what in
  Alcotest.(check bool)
    (name "worst slack bits") true
    (bits full.Synthesis.worst_slack = bits inc.Synthesis.worst_slack);
  Alcotest.(check bool)
    (name "area bits") true
    (bits full.Synthesis.area = bits inc.Synthesis.area);
  Alcotest.(check int) (name "instances") full.Synthesis.instances
    inc.Synthesis.instances;
  Alcotest.(check bool)
    (name "sizer report") true
    (full.Synthesis.sizer = inc.Synthesis.sizer);
  Alcotest.(check bool)
    (name "cell usage") true
    (Netlist.cell_usage full.Synthesis.netlist
    = Netlist.cell_usage inc.Synthesis.netlist)

let ceiling_table lib =
  Vartune_tuning.Tuning_method.restrictions
    { Vartune_tuning.Tuning_method.population = Vartune_tuning.Cluster.Per_cell;
      criterion = Vartune_tuning.Threshold.Sigma_ceiling 0.02 }
    lib

let test_incremental_sizing_identical () =
  let lib = Lazy.force full_lib in
  List.iter
    (fun period ->
      let cons = Constraints.make ~clock_period:period ~area_recovery:true () in
      same_sizing (Printf.sprintf "period %.1f" period) cons lib small_design)
    [ 8.0; 1.2 ];
  (* tuned: a cell/ceiling=0.02 table confines every choice to its
     windows, so the window repair scan runs too *)
  let slib = Lazy.force Helpers.small_statlib in
  let table = ceiling_table slib in
  List.iter
    (fun period ->
      let cons = Constraints.make ~clock_period:period ~restrictions:table () in
      same_sizing (Printf.sprintf "restricted, period %.1f" period) cons slib small_design)
    [ 8.0; 1.2 ]

(* Random gate DAGs, registered and not, under random clocks, fanout
   limits and restriction tables (none, or one of the paper's five
   methods): the sizer's candidate-only scans must follow the full
   scans' trajectory exactly. *)
let random_dag_ir rng =
  let module Rng = Vartune_util.Rng in
  let g = Ir.create ~name:"dag" in
  let avail =
    ref (List.init (3 + Rng.int rng 4) (fun i -> Ir.input g (Printf.sprintf "i%d" i)))
  in
  (* half the picks from a few early nodes: high-fanout nets to buffer *)
  let pick () =
    let n = List.length !avail in
    List.nth !avail (if Rng.int rng 2 = 0 then n - 1 - Rng.int rng (min n 4) else Rng.int rng n)
  in
  for _ = 1 to 20 + Rng.int rng 120 do
    let node =
      match Rng.int rng 10 with
      | 0 -> Ir.not_ g (pick ())
      | 1 -> Ir.and2 g (pick ()) (pick ())
      | 2 -> Ir.or2 g (pick ()) (pick ())
      | 3 -> Ir.xor2 g (pick ()) (pick ())
      | 4 -> Ir.nand2 g (pick ()) (pick ())
      | 5 -> Ir.nor2 g (pick ()) (pick ())
      | 6 -> Ir.mux2 g ~a:(pick ()) ~b:(pick ()) ~s:(pick ())
      | 7 -> Ir.xor3 g (pick ()) (pick ()) (pick ())
      | 8 -> Ir.maj3 g (pick ()) (pick ()) (pick ())
      | _ -> Ir.ff g ~d:(pick ()) ()
    in
    avail := node :: !avail
  done;
  List.iteri
    (fun i node -> if i < 3 || Rng.int rng 4 = 0 then Ir.output g (Printf.sprintf "o%d" i) node)
    !avail;
  g

(* the paper's five methods at a moderate and a tight setting *)
let paper_tables =
  lazy
    (List.concat_map
       (fun (bound, ceiling) ->
         List.map
           (fun m ->
             Vartune_tuning.Tuning_method.restrictions m (Lazy.force Helpers.small_statlib))
           (Vartune_tuning.Tuning_method.paper_methods ~bound ~ceiling))
       [ (0.03, 0.02); (0.01, 0.01) ])

let scans_agree seed =
  let module Rng = Vartune_util.Rng in
  let rng = Rng.create seed in
  let lib = Lazy.force Helpers.small_statlib in
  let g = random_dag_ir rng in
  let periods = [| 0.6; 1.2; 2.5; 6.0 |] in
  let clock_period = periods.(Rng.int rng (Array.length periods)) in
  let max_fanout = 2 + Rng.int rng 15 in
  let restrictions =
    match Rng.int rng 11 with
    | 10 -> None
    | m -> Some (List.nth (Lazy.force paper_tables) m)
  in
  let cons = Constraints.make ~clock_period ~max_fanout ?restrictions () in
  let full = Synthesis.run ~incremental:false cons lib g in
  let inc = Synthesis.run ~incremental:true cons lib g in
  let bits = Int64.bits_of_float in
  if full.Synthesis.sizer <> inc.Synthesis.sizer then
    QCheck2.Test.fail_reportf "seed %d: sizer reports differ" seed;
  if bits full.Synthesis.area <> bits inc.Synthesis.area then
    QCheck2.Test.fail_reportf "seed %d: area %h <> %h" seed full.Synthesis.area
      inc.Synthesis.area;
  if bits full.Synthesis.worst_slack <> bits inc.Synthesis.worst_slack then
    QCheck2.Test.fail_reportf "seed %d: worst slack differs" seed;
  Netlist.cell_usage full.Synthesis.netlist = Netlist.cell_usage inc.Synthesis.netlist

let test_scans_follow_full_scans =
  Helpers.qtest ~count:20 ~long_factor:25 "candidate scans = full scans on random DAGs"
    QCheck2.Gen.(int_range 0 1_000_000)
    scans_agree

(* Seeds on which scans that drop an instance whose trigger held but
   whose repair did nothing (no bigger cell fitted yet) leave the full
   scans' trajectory: random cases reach that rule only rarely. *)
let test_scans_retry_held_triggers () =
  List.iter
    (fun seed -> Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (scans_agree seed))
    [ 6078; 9975; 20621; 32324; 38505 ]

let test_min_period_bisection () =
  let lib = Lazy.force full_lib in
  let p = Synthesis.min_period ~lo:0.2 ~hi:8.0 ~tolerance:0.1 lib (small_design ()) in
  Alcotest.(check bool) "in range" true (p > 0.2 && p < 8.0);
  (* feasible at the found period *)
  let r = Synthesis.run (Constraints.make ~clock_period:p ~area_recovery:false ()) lib (small_design ()) in
  Alcotest.(check bool) "feasible at min period" true r.Synthesis.feasible

(* The paper's min-period search on the microcontroller, run with full
   re-analysis per sizing move and with incremental cone retiming.  The
   two must land on the bit-identical period, and the STA work counters
   are pinned exactly: they are fixed by the design and the algorithm,
   so any drift is a behaviour change, on any host. *)
let test_min_period_sta_counters () =
  let lib = Lazy.force full_lib in
  let ir = Vartune_rtl.Microcontroller.generate () in
  let module Obs = Vartune_obs.Obs in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) @@ fun () ->
  let check_search label ~incremental expected =
    let before = List.map (fun (name, _) -> Obs.counter_value name) expected in
    let period = Synthesis.min_period ~incremental lib ir in
    (* 4.099121094 ns, compared bit for bit *)
    Alcotest.(check string) (label ^ ": period") "0x1.0658p+2" (Printf.sprintf "%h" period);
    List.iter2
      (fun (name, want) b ->
        Alcotest.(check int) (label ^ ": " ^ name) want (Obs.counter_value name - b))
      expected before
  in
  check_search "full" ~incremental:false
    [ ("sta.node_evals", 3453519); ("sta.runs", 388); ("sta.retimes", 0) ];
  (* incrementally, each of the 12 probes' sizer runs one full analysis
     and retimes it after every round of edits, structural or not: one
     retime for each refresh the full search above ran in full *)
  check_search "incremental" ~incremental:true
    [ ("sta.node_evals", 1580743); ("synth.runs", 12); ("sta.runs", 12); ("sta.retimes", 376) ]

let () =
  Alcotest.run "synth"
    [
      ( "constraints",
        [
          Alcotest.test_case "no restrictions" `Quick test_constraints_no_restrictions;
          Alcotest.test_case "with window" `Quick test_constraints_with_window;
        ] );
      ( "choice",
        [
          Alcotest.test_case "pick smallest" `Quick test_choice_pick_smallest_fitting;
          Alcotest.test_case "upsize/downsize" `Quick test_choice_up_down;
          Alcotest.test_case "respects windows" `Quick test_choice_respects_window;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "validates" `Quick test_mapper_validates;
          test_mapper_equivalence;
          test_mapper_equivalence_delay_style;
          Alcotest.test_case "nand absorption" `Quick test_mapper_patterns;
          Alcotest.test_case "de morgan" `Quick test_mapper_demorgan;
          Alcotest.test_case "bubble absorption" `Quick test_mapper_bubble;
          Alcotest.test_case "fa fusion" `Quick test_mapper_fa_fusion;
          Alcotest.test_case "tree collapse" `Quick test_mapper_tree_collapse;
          Alcotest.test_case "dead logic dropped" `Quick test_mapper_dead_logic_dropped;
          Alcotest.test_case "sequential" `Quick test_mapper_sequential;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "meets relaxed timing" `Quick test_synthesis_meets_relaxed_timing;
          Alcotest.test_case "clock pressure" `Quick test_synthesis_tighter_clock_not_larger_slack;
          Alcotest.test_case "infeasible reported" `Quick test_synthesis_infeasible_reported;
          Alcotest.test_case "fanout limit" `Quick test_fanout_limit_enforced;
          Alcotest.test_case "restrictions honoured" `Quick test_restrictions_honoured;
          test_synthesis_preserves_function;
          test_synthesis_with_windows_preserves_function;
          test_verilog_of_synthesised_roundtrip;
          Alcotest.test_case "incremental = full sizing" `Quick
            test_incremental_sizing_identical;
          Alcotest.test_case "min period bisection" `Slow test_min_period_bisection;
          Alcotest.test_case "mcu min period STA counters" `Slow test_min_period_sta_counters;
        ] );
      ( "scans",
        [
          test_scans_follow_full_scans;
          Alcotest.test_case "held triggers are retried" `Quick test_scans_retry_held_triggers;
        ] );
    ]
