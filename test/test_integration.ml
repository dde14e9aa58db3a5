(* Integration tests: the full pipeline — characterise, merge, tune,
   synthesise, measure — on designs small enough for the test suite. *)

module Ir = Vartune_rtl.Ir
module Word = Vartune_rtl.Word
module Mcu = Vartune_rtl.Microcontroller
module Netlist = Vartune_netlist.Netlist
module Check = Vartune_netlist.Check
module Library = Vartune_liberty.Library
module Printer = Vartune_liberty.Printer
module Parser = Vartune_liberty.Parser
module Characterize = Vartune_charlib.Characterize
module Statistical = Vartune_statlib.Statistical
module Catalog = Vartune_stdcell.Catalog
module Mismatch = Vartune_process.Mismatch
module Synthesis = Vartune_synth.Synthesis
module Constraints = Vartune_synth.Constraints
module Sizer = Vartune_synth.Sizer
module Path = Vartune_sta.Path
module Design_sigma = Vartune_stats.Design_sigma
module Dist = Vartune_stats.Dist
module Tuning_method = Vartune_tuning.Tuning_method
module Cluster = Vartune_tuning.Cluster
module Threshold = Vartune_tuning.Threshold

let statlib = Lazy.force Helpers.small_statlib

(* a 16-bit datapath: two adds, a multiply, a compare, all registered *)
let datapath () =
  let g = Ir.create ~name:"datapath" in
  let a = Word.inputs g ~prefix:"a" ~width:16 in
  let b = Word.inputs g ~prefix:"b" ~width:16 in
  let sum, _ = Word.add_fast g a b in
  let prod = Word.multiply g (Array.sub a 0 8) (Array.sub b 0 8) in
  let lt = Word.less_than g a b in
  let sel = Word.mux g ~sel:lt sum (Array.sub prod 0 16) in
  let q = Word.reg g sel in
  Word.outputs g ~prefix:"q" q;
  Ir.output g "lt" (Ir.ff g ~d:lt ());
  g

let design_sigma_of (r : Synthesis.result) =
  let paths = Path.worst_per_endpoint r.Synthesis.timing r.Synthesis.netlist in
  (Design_sigma.of_paths paths).Design_sigma.dist.Dist.sigma

let test_full_pipeline_tuning_reduces_sigma () =
  let ir = datapath () in
  let period = 4.0 in
  let base = Synthesis.run (Constraints.make ~clock_period:period ()) statlib ir in
  Alcotest.(check bool) "baseline feasible" true base.Synthesis.feasible;
  let tuning =
    { Tuning_method.population = Cluster.Per_cell; criterion = Threshold.Sigma_ceiling 0.012 }
  in
  let table = Tuning_method.restrictions tuning statlib in
  let tuned =
    Synthesis.run (Constraints.make ~clock_period:period ~restrictions:table ()) statlib ir
  in
  Alcotest.(check bool) "tuned feasible" true tuned.Synthesis.feasible;
  Alcotest.(check int) "no window violations" 0 tuned.Synthesis.sizer.Sizer.window_violations;
  let bs = design_sigma_of base and ts = design_sigma_of tuned in
  Alcotest.(check bool)
    (Printf.sprintf "sigma reduced: %.4f -> %.4f" bs ts)
    true (ts < bs);
  Alcotest.(check bool) "area increased" true (tuned.Synthesis.area >= base.Synthesis.area)

let test_tuned_netlist_still_correct () =
  (* restriction must never change logic function *)
  let g = Ir.create ~name:"logic" in
  let a = Word.inputs g ~prefix:"a" ~width:8 in
  let b = Word.inputs g ~prefix:"b" ~width:8 in
  let s, _ = Word.add g a b in
  Word.outputs g ~prefix:"s" s;
  let tuning =
    { Tuning_method.population = Cluster.Per_drive_strength;
      criterion = Threshold.Sigma_ceiling 0.012 }
  in
  let table = Tuning_method.restrictions tuning statlib in
  let r = Synthesis.run (Constraints.make ~clock_period:6.0 ~restrictions:table ()) statlib g in
  let check_vector (x, y) =
    let bits_a = Helpers.bits_of_int ~width:8 x and bits_b = Helpers.bits_of_int ~width:8 y in
    let out =
      Helpers.eval_netlist r.Synthesis.netlist
        ~input_values:(Array.to_list bits_a @ Array.to_list bits_b)
    in
    let got = Helpers.int_of_bits (Array.of_list out) in
    Alcotest.(check int) (Printf.sprintf "%d+%d" x y) ((x + y) land 255) got
  in
  List.iter check_vector [ (0, 0); (1, 1); (255, 1); (200, 100); (37, 81) ]

let test_library_file_round_trip_full_catalog () =
  (* the whole 304-cell nominal catalog survives print -> parse *)
  let nominal = Characterize.nominal Characterize.default_config in
  let text = Printer.to_string nominal in
  let back = Parser.parse text in
  Alcotest.(check int) "304 cells" 304 (Library.size back);
  Alcotest.(check int) "families preserved" (List.length (Library.families nominal))
    (List.length (Library.families back))

(* a full-catalog statistical library, small N *)
let mcu_statlib =
  lazy (Statistical.build Characterize.default_config ~mismatch:Mismatch.default ~seed:1 ~n:5 ())

let test_mcu_synthesis_smoke () =
  (* the evaluation design synthesises and validates at a relaxed clock *)
  let ir = Mcu.generate () in
  let lib = Lazy.force mcu_statlib in
  let r = Synthesis.run (Constraints.make ~clock_period:20.0 ()) lib ir in
  Alcotest.(check bool) "feasible" true r.Synthesis.feasible;
  Alcotest.(check bool) "validates" true (Check.validate r.Synthesis.netlist = Ok ());
  Alcotest.(check bool) "20k-gate class" true (r.Synthesis.instances > 5000);
  let paths = Path.worst_per_endpoint r.Synthesis.timing r.Synthesis.netlist in
  Alcotest.(check bool) "hundreds of endpoints" true (List.length paths > 500);
  let deep = List.exists (fun p -> Path.depth p > 25) paths in
  let shallow = List.exists (fun p -> Path.depth p <= 3) paths in
  Alcotest.(check bool) "depth profile has both tails" true (deep && shallow)

let test_mcu_verilog_roundtrip () =
  (* full-design interchange: ~9k instances out and back *)
  let module Verilog = Vartune_netlist.Verilog in
  let ir = Mcu.generate () in
  let lib = Characterize.nominal Characterize.default_config in
  let r = Synthesis.run (Constraints.make ~clock_period:20.0 ()) lib ir in
  let text = Verilog.to_string r.Synthesis.netlist in
  Alcotest.(check bool) "substantial output" true (String.length text > 100_000);
  let back = Verilog.parse ~library:lib text in
  Alcotest.(check int) "instances preserved" r.Synthesis.instances
    (Netlist.instance_count back);
  Alcotest.(check bool) "validates" true (Check.validate back = Ok ());
  Alcotest.(check (list (pair string int))) "cell usage preserved"
    (Netlist.cell_usage r.Synthesis.netlist)
    (Netlist.cell_usage back)

let test_mcu_hold_clean () =
  (* the synthesised core must be hold-clean: slow cells only get slower,
     so min-delay paths comfortably exceed the hold times *)
  let module Timing = Vartune_sta.Timing in
  let ir = Mcu.generate () in
  let lib = Characterize.nominal Characterize.default_config in
  let r = Synthesis.run (Constraints.make ~clock_period:20.0 ()) lib ir in
  let worst = Timing.worst_hold_slack r.Synthesis.timing in
  Alcotest.(check bool) "hold checks exist" true
    (Timing.hold_endpoints r.Synthesis.timing <> []);
  Alcotest.(check bool) (Printf.sprintf "worst hold slack %+.4f >= 0" worst) true
    (worst >= 0.0)

(* Restriction soundness, recounted from the final timing: an instance
   violates when its worst data-input slew and an output's load fall
   outside that output pin's window (or the pin is unusable).  Written
   from the restriction table and the analysis alone, sharing no code
   with the sizer's own count, which the report must match exactly.
   At this setting the sizer leaves and reports a few dozen. *)
let test_mcu_restrictions_sound () =
  let module Timing = Vartune_sta.Timing in
  let module Restrict = Vartune_tuning.Restrict in
  let module Cell = Vartune_liberty.Cell in
  let lib = Lazy.force mcu_statlib in
  (* the paper's cell-based sigma ceiling at one of its Fig 10 values *)
  let tuning =
    { Tuning_method.population = Cluster.Per_cell; criterion = Threshold.Sigma_ceiling 0.02 }
  in
  let table = Tuning_method.restrictions tuning lib in
  let r =
    Synthesis.run (Constraints.make ~clock_period:7.0 ~restrictions:table ()) lib (Mcu.generate ())
  in
  let t = r.Synthesis.timing in
  let restricted = ref 0 in
  let violations =
    Netlist.fold_instances r.Synthesis.netlist ~init:0 ~f:(fun acc inst ->
        let cell = inst.Netlist.cell in
        let slew =
          List.fold_left
            (fun worst (pin, nid) ->
              if cell.Cell.clock_pin = Some pin then worst
              else Float.max worst (Timing.net_slew t nid))
            (Timing.config t).Timing.input_slew inst.inputs
        in
        let outside (pin, nid) =
          let load = Timing.net_load t nid in
          match Restrict.find table ~cell:cell.Cell.name ~pin with
          | Restrict.Unrestricted -> false
          | Restrict.Unusable -> true
          | Restrict.Window w ->
            incr restricted;
            not
              (w.Restrict.slew_min <= slew && slew <= w.slew_max && w.load_min <= load
             && load <= w.load_max)
        in
        if List.exists outside inst.outputs then acc + 1 else acc)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d restricted outputs checked" !restricted)
    true (!restricted > 1000);
  Alcotest.(check int) "recount = sizer's count" r.Synthesis.sizer.Sizer.window_violations
    violations;
  (* the tuned trajectory itself, pinned: any change to how the sizer
     finds its candidates must land on the same netlist *)
  Alcotest.(check int) "window violations" 44 r.Synthesis.sizer.Sizer.window_violations;
  Alcotest.(check string) "area bits" "0x1.e12a8f5c28b51p+14" (Printf.sprintf "%h" r.Synthesis.area)

(* The per-cell window summaries behind [Constraints] against the
   per-pin table they summarise: for every cell of the full-catalog
   library under each of the paper's five methods, [allows], [usable],
   [window_load_max] and [window_slew_max] must equal a fold over the
   cell's output pins written here from [Restrict.find] alone, at every
   window edge, the midpoints between them and points beyond. *)
let test_window_summary_oracle () =
  let module Restrict = Vartune_tuning.Restrict in
  let module Cell = Vartune_liberty.Cell in
  let module Pin = Vartune_liberty.Pin in
  let lib = Lazy.force mcu_statlib in
  let bits = Int64.bits_of_float in
  let axis edges =
    let xs = List.sort_uniq Float.compare (0.0 :: 10.0 :: edges) in
    let rec mids = function a :: (b :: _ as rest) -> ((a +. b) /. 2.0) :: mids rest | _ -> [] in
    xs @ mids xs
  in
  let points = ref 0 in
  List.iter
    (fun (bound, ceiling) ->
      List.iter
        (fun m ->
          let table = Tuning_method.restrictions m lib in
          let cons = Constraints.make ~clock_period:7.0 ~restrictions:table () in
          List.iter
            (fun (cell : Cell.t) ->
              let statuses =
                List.map
                  (fun (p : Pin.t) -> Restrict.find table ~cell:cell.Cell.name ~pin:p.Pin.name)
                  (Cell.output_pins cell)
              in
              let name what =
                Printf.sprintf "%s, %s: %s" (Tuning_method.name m) cell.Cell.name what
              in
              let tightest field =
                List.fold_left
                  (fun acc -> function
                    | Restrict.Unrestricted -> acc
                    | Restrict.Unusable -> Float.min acc 0.0
                    | Restrict.Window w -> Float.min acc (field w))
                  infinity statuses
              in
              Alcotest.(check bool) (name "usable")
                (List.for_all (function Restrict.Unusable -> false | _ -> true) statuses)
                (Constraints.usable cons cell);
              Alcotest.(check int64) (name "load max")
                (bits (tightest (fun w -> w.Restrict.load_max)))
                (bits (Constraints.window_load_max cons cell));
              Alcotest.(check int64) (name "slew max")
                (bits (tightest (fun w -> w.Restrict.slew_max)))
                (bits (Constraints.window_slew_max cons cell));
              let windows =
                List.filter_map (function Restrict.Window w -> Some w | _ -> None) statuses
              in
              let slews =
                axis (List.concat_map (fun w -> [ w.Restrict.slew_min; w.slew_max ]) windows)
              and loads =
                axis (List.concat_map (fun w -> [ w.Restrict.load_min; w.load_max ]) windows)
              in
              List.iter
                (fun slew ->
                  List.iter
                    (fun load ->
                      incr points;
                      let want =
                        List.for_all
                          (function
                            | Restrict.Unrestricted -> true
                            | Restrict.Unusable -> false
                            | Restrict.Window w ->
                              w.Restrict.slew_min <= slew && slew <= w.slew_max
                              && w.load_min <= load && load <= w.load_max)
                          statuses
                      in
                      if Constraints.allows cons ~cell ~slew ~load <> want then
                        Alcotest.failf "%s" (name (Printf.sprintf "allows %h %h" slew load)))
                    loads)
                slews)
            (Library.cells lib))
        (Tuning_method.paper_methods ~bound ~ceiling))
    [ (0.03, 0.02); (0.01, 0.01) ];
  Alcotest.(check bool) (Printf.sprintf "%d points checked" !points) true (!points > 100_000)

let test_statistical_library_drives_path_sigma () =
  (* a path through the statistical library must carry nonzero sigma,
     and deeper paths must have larger sigma (same cells, eq 10) *)
  let mk depth =
    let g = Ir.create ~name:"chain" in
    let x = ref (Ir.input g "x") in
    for i = 1 to depth do
      (* nand chain with distinct side inputs: nothing simplifies away *)
      x := Ir.nand2 g !x (Ir.input g (Printf.sprintf "k%d" i))
    done;
    Ir.output g "y" (Ir.ff g ~d:!x ());
    let r = Synthesis.run (Constraints.make ~clock_period:8.0 ()) statlib g in
    let paths = Path.worst_per_endpoint r.Synthesis.timing r.Synthesis.netlist in
    (Design_sigma.of_paths paths).Design_sigma.dist.Dist.sigma
  in
  let s4 = mk 4 and s16 = mk 16 in
  Alcotest.(check bool) "sigma positive" true (s4 > 0.0);
  Alcotest.(check bool) "deeper path more sigma" true (s16 > s4)

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "tuning reduces sigma" `Slow test_full_pipeline_tuning_reduces_sigma;
          Alcotest.test_case "tuned netlist correct" `Slow test_tuned_netlist_still_correct;
          Alcotest.test_case "full catalog roundtrip" `Slow test_library_file_round_trip_full_catalog;
          Alcotest.test_case "mcu synthesis smoke" `Slow test_mcu_synthesis_smoke;
          Alcotest.test_case "mcu verilog roundtrip" `Slow test_mcu_verilog_roundtrip;
          Alcotest.test_case "mcu hold clean" `Slow test_mcu_hold_clean;
          Alcotest.test_case "mcu restrictions sound" `Slow test_mcu_restrictions_sound;
          Alcotest.test_case "window summary oracle" `Slow test_window_summary_oracle;
          Alcotest.test_case "path sigma scaling" `Quick test_statistical_library_drives_path_sigma;
        ] );
    ]
