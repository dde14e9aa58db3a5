(* Tests for Vartune_charlib: Delay_model, Characterize, Sampler. *)

module Delay_model = Vartune_charlib.Delay_model
module Characterize = Vartune_charlib.Characterize
module Sampler = Vartune_charlib.Sampler
module Catalog = Vartune_stdcell.Catalog
module Spec = Vartune_stdcell.Spec
module Corner = Vartune_process.Corner
module Mismatch = Vartune_process.Mismatch
module Library = Vartune_liberty.Library
module Cell = Vartune_liberty.Cell
module Pin = Vartune_liberty.Pin
module Arc = Vartune_liberty.Arc
module Lut = Vartune_liberty.Lut

let check_float = Helpers.check_float
let params = Delay_model.default
let inv = Option.get (Catalog.find "INV")
let fa = Option.get (Catalog.find "FA1")
let zero = Mismatch.zero_sample

let nominal_delay ?(spec = inv) ?(drive = 1) ?(corner = 1.0) ~slew ~load () =
  Delay_model.delay params spec ~drive ~output:"Z" ~edge:Delay_model.Rise
    ~corner_factor:corner ~sample:zero ~slew ~load

(* --------------------------- Delay model ---------------------------- *)

let test_delay_monotone_in_load =
  Helpers.qtest "delay monotone in load"
    QCheck2.Gen.(pair (float_range 0.001 0.011) (float_range 0.01 1.0))
    (fun (load, slew) ->
      nominal_delay ~slew ~load () < nominal_delay ~slew ~load:(load +. 0.001) ())

let test_delay_monotone_in_slew =
  Helpers.qtest "delay monotone in slew"
    QCheck2.Gen.(pair (float_range 0.001 0.012) (float_range 0.01 0.9))
    (fun (load, slew) ->
      nominal_delay ~slew ~load () < nominal_delay ~slew:(slew +. 0.05) ~load ())

let test_delay_drive_speedup () =
  let d1 = nominal_delay ~drive:1 ~slew:0.05 ~load:0.008 () in
  let d8 = nominal_delay ~drive:8 ~slew:0.05 ~load:0.008 () in
  Alcotest.(check bool) "bigger drive faster at same load" true (d8 < d1)

let test_corner_scales_delay_and_sigma () =
  (* the Fig 15 property holds exactly in the model: corner multiplies
     both the mean and the sigma *)
  let slow = Corner.delay_factor Corner.slow in
  check_float "mean scales"
    (slow *. nominal_delay ~slew:0.1 ~load:0.005 ())
    (nominal_delay ~corner:slow ~slew:0.1 ~load:0.005 ());
  let sigma c =
    Delay_model.delay_sigma params inv ~mismatch:Mismatch.default ~drive:1 ~output:"Z"
      ~edge:Delay_model.Rise ~corner_factor:c ~slew:0.1 ~load:0.005
  in
  check_float "sigma scales" (slow *. sigma 1.0) (sigma slow)

let test_sigma_decreases_with_drive () =
  let sigma drive load =
    Delay_model.delay_sigma params inv ~mismatch:Mismatch.default ~drive ~output:"Z"
      ~edge:Delay_model.Rise ~corner_factor:1.0 ~slew:0.1 ~load
  in
  (* compare at proportional loads (each drive at half its max cap) *)
  Alcotest.(check bool) "Fig 4: high drive lower sigma" true
    (sigma 32 (0.5 *. Spec.max_capacitance inv ~drive:32)
    < sigma 1 (0.5 *. Spec.max_capacitance inv ~drive:1))

let test_sigma_monotone_in_operating_point =
  Helpers.qtest "sigma monotone"
    QCheck2.Gen.(pair (float_range 0.001 0.011) (float_range 0.01 0.9))
    (fun (load, slew) ->
      let sigma ~slew ~load =
        Delay_model.delay_sigma params inv ~mismatch:Mismatch.default ~drive:2 ~output:"Z"
          ~edge:Delay_model.Rise ~corner_factor:1.0 ~slew ~load
      in
      sigma ~slew ~load <= sigma ~slew:(slew +. 0.05) ~load:(load +. 0.001))

let test_stage_count_lowers_sigma () =
  (* multi-stage cells average mismatch: FA1 stage count > 1 *)
  Alcotest.(check bool) "fa stages" true (Delay_model.stage_count fa > 1);
  Alcotest.(check int) "inv single stage" 1 (Delay_model.stage_count inv)

let test_rise_fall_skew () =
  let rise =
    Delay_model.delay params inv ~drive:2 ~output:"Z" ~edge:Delay_model.Rise
      ~corner_factor:1.0 ~sample:zero ~slew:0.1 ~load:0.005
  in
  let fall =
    Delay_model.delay params inv ~drive:2 ~output:"Z" ~edge:Delay_model.Fall
      ~corner_factor:1.0 ~sample:zero ~slew:0.1 ~load:0.005
  in
  Alcotest.(check bool) "rise slower (positive skew)" true (rise > fall)

let test_transition_monotone () =
  let tr load =
    Delay_model.transition params inv ~drive:1 ~output:"Z" ~edge:Delay_model.Rise
      ~corner_factor:1.0 ~sample:zero ~slew:0.1 ~load
  in
  Alcotest.(check bool) "transition grows with load" true (tr 0.01 > tr 0.001)

let test_power_model () =
  let e slew drive = Delay_model.internal_energy params inv ~drive ~slew ~load:0.005 in
  Alcotest.(check bool) "energy grows with slew" true (e 0.5 1 > e 0.05 1);
  Alcotest.(check bool) "energy grows with drive" true (e 0.1 8 > e 0.1 1);
  Alcotest.(check bool) "leakage grows with drive" true
    (Delay_model.leakage inv ~drive:8 > Delay_model.leakage inv ~drive:1);
  Alcotest.(check bool) "complex cells leak more" true
    (Delay_model.leakage fa ~drive:1 > Delay_model.leakage inv ~drive:1)

(* --------------------------- Characterise --------------------------- *)

let nominal = Lazy.force Helpers.nominal_small

let test_characterize_structure () =
  let cell = Library.find nominal "ND2_1" in
  Alcotest.(check int) "two arcs" 2 (List.length (Cell.arcs cell));
  Alcotest.(check (list string)) "inputs" [ "A"; "B" ] (Cell.data_input_names cell);
  let arc = List.hd (Cell.arcs cell) in
  let rows, cols = Lut.dims arc.Arc.rise_delay in
  Alcotest.(check (pair int int)) "8x8 grids" (8, 8) (rows, cols)

let test_characterize_ff () =
  let ff = Library.find nominal "DFF_1" in
  Alcotest.(check bool) "sequential" true (Cell.is_sequential ff);
  Alcotest.(check bool) "clock pin" true (ff.Cell.clock_pin = Some "CK");
  (* the only arc launches from the clock *)
  (match Cell.arcs ff with
  | [ arc ] -> Alcotest.(check string) "arc from CK" "CK" arc.Arc.related_pin
  | _ -> Alcotest.fail "expected one arc");
  Alcotest.(check bool) "setup > 0" true (ff.Cell.setup_time > 0.0)

let test_characterize_tie () =
  let full = Characterize.library Characterize.default_config
      (List.filter_map Catalog.find [ "TIE0"; "TIE1" ]) in
  let tie = Library.find full "TIE0_1" in
  Alcotest.(check int) "no arcs" 0 (List.length (Cell.arcs tie))

let test_load_axis_scales_with_drive () =
  let config = Characterize.default_config in
  let axis1 = Characterize.load_axis config inv ~drive:1 in
  let axis8 = Characterize.load_axis config inv ~drive:8 in
  check_float "8x range" (8.0 *. axis1.(7)) axis8.(7);
  Alcotest.(check int) "8 points" 8 (Array.length axis1)

let test_characterize_power () =
  let cell = Library.find nominal "ND2_2" in
  let arc = List.hd (Cell.arcs cell) in
  Alcotest.(check bool) "power table present" true (Option.is_some arc.Arc.internal_power);
  Alcotest.(check bool) "energy positive" true (Arc.energy arc ~slew:0.1 ~load:0.005 > 0.0);
  Alcotest.(check bool) "cell leakage set" true (cell.Cell.leakage > 0.0)

let test_lut_values_match_model () =
  let cell = Library.find nominal "INV_2" in
  let arc = List.hd (Cell.arcs cell) in
  let slews = Lut.slews arc.Arc.rise_delay and loads = Lut.loads arc.Arc.rise_delay in
  let expected =
    Delay_model.delay params inv ~drive:2 ~output:"Z" ~edge:Delay_model.Rise
      ~corner_factor:(Corner.delay_factor Corner.typical)
      ~sample:zero ~slew:slews.(3) ~load:loads.(5)
  in
  check_float "table entry = model" expected (Lut.get arc.Arc.rise_delay 3 5)

(* The formula oracle.  [model_delay] and [model_transition] are the
   model of delay_model.mli written out again, sharing no code with
   Delay_model, in the association order of its formula.  Every entry
   of every catalog cell's four timing tables, under three mismatch
   samples per cell, must equal them bit for bit — in the library
   [Characterize.library] builds, in the flat surfaces
   [Characterize.surfaces] writes, and through the scalar
   [Delay_model.delay]/[transition] at the same operating point. *)
let out_factor (spec : Spec.t) ~output ~rise =
  Option.value (List.assoc_opt output spec.output_factors) ~default:1.0
  *. if rise then 1.0 +. spec.rise_skew else 1.0 -. spec.rise_skew

let model_delay (p : Delay_model.params) (spec : Spec.t) ~drive ~output ~rise ~cf
    ~(s : Mismatch.sample) ~slew ~load =
  let r0 = p.r_unit /. float_of_int drive in
  cf
  *. ((out_factor spec ~output ~rise
       *. ((p.tau *. spec.parasitic *. (1.0 +. s.d_intrinsic))
          +. (r0 *. (1.0 +. s.d_resistance) *. load)))
     +. (p.k_slew *. slew *. (1.0 +. (p.vt_slew_gain *. s.d_intrinsic))))

let model_transition (p : Delay_model.params) (spec : Spec.t) ~drive ~output ~rise ~cf
    ~(s : Mismatch.sample) ~slew ~load =
  let r = p.r_unit /. float_of_int drive *. (1.0 +. s.d_resistance) in
  let cap = p.self_load *. Spec.c_unit *. float_of_int drive in
  (cf *. out_factor spec ~output ~rise *. (p.t_slew_base +. (p.k_trans *. r *. (load +. cap))))
  +. (p.k_trans_slew *. slew)

(* Three samples per cell: none, and two seeded draws. *)
let oracle_samples =
  [
    (fun (_ : Spec.t) ~drive:_ -> zero);
    (fun (spec : Spec.t) ~drive ->
      Mismatch.draw Mismatch.default
        (Vartune_util.Rng.create (Hashtbl.hash (1, spec.family, drive)))
        ~drive ());
    (fun (spec : Spec.t) ~drive ->
      Mismatch.draw Mismatch.default
        (Vartune_util.Rng.create (Hashtbl.hash (2, spec.family, drive)))
        ~drive ());
  ]

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_tables_match_transcribed_model () =
  let config = Characterize.default_config in
  let cf = Corner.delay_factor config.Characterize.corner in
  List.iteri
    (fun k sample_for ->
      let lib = Characterize.library config ~sample_for Catalog.specs in
      let total =
        List.fold_left
          (fun acc (a : Arc.t) ->
            let rows, cols = Lut.dims a.Arc.rise_delay in
            acc + (4 * rows * cols))
          0
          (List.concat_map Cell.arcs (Library.cells lib))
      in
      let flat = Array.make total nan in
      let written = Characterize.surfaces config ~name:"oracle" ~sample_for Catalog.specs flat in
      let pos = ref 0 in
      List.iter
        (fun (cell : Cell.t) ->
          let spec = Option.get (Catalog.find cell.Cell.family) in
          let drive = cell.Cell.drive_strength in
          let s = sample_for spec ~drive in
          List.iter
            (fun (pin : Pin.t) ->
              let output = pin.Pin.name in
              List.iter
                (fun (arc : Arc.t) ->
                  List.iter
                    (fun (what, lut, rise, model) ->
                      let slews = Lut.slews lut and loads = Lut.loads lut in
                      Array.iteri
                        (fun i slew ->
                          Array.iteri
                            (fun j load ->
                              let expected = model ~rise ~slew ~load in
                              let check where got =
                                if not (bits_equal expected got) then
                                  Alcotest.failf "sample %d %s %s->%s %s (%d,%d) %s: %h, model %h" k
                                    cell.Cell.name arc.Arc.related_pin output what i j where got
                                    expected
                              in
                              check "library" (Lut.get lut i j);
                              check "surfaces" flat.(!pos);
                              incr pos;
                              let scalar =
                                if String.ends_with ~suffix:"delay" what then Delay_model.delay
                                else Delay_model.transition
                              in
                              check "scalar"
                                (scalar params spec ~drive ~output
                                   ~edge:(if rise then Delay_model.Rise else Delay_model.Fall)
                                   ~corner_factor:cf ~sample:s ~slew ~load))
                            loads)
                        slews)
                    [
                      ("rise_delay", arc.Arc.rise_delay, true, model_delay params spec ~drive ~output ~cf ~s);
                      ("fall_delay", arc.Arc.fall_delay, false, model_delay params spec ~drive ~output ~cf ~s);
                      ( "rise_transition",
                        arc.Arc.rise_transition,
                        true,
                        model_transition params spec ~drive ~output ~cf ~s );
                      ( "fall_transition",
                        arc.Arc.fall_transition,
                        false,
                        model_transition params spec ~drive ~output ~cf ~s );
                    ])
                pin.Pin.arcs)
            (Cell.output_pins cell))
        (Library.cells lib);
      Alcotest.(check int) (Printf.sprintf "sample %d: entries written" k) !pos written)
    oracle_samples

let test_surfaces_reject_short_buffer () =
  Alcotest.check_raises "short destination"
    (Invalid_argument "Delay_model.fill_arc: surfaces do not fit the destination") (fun () ->
      ignore
        (Characterize.surfaces Characterize.default_config ~name:"short"
           ~sample_for:(fun _ ~drive:_ -> zero)
           Helpers.small_specs (Array.make 100 0.0)))

(* ----------------------------- Sampler ------------------------------ *)

let specs = Helpers.small_specs

let test_sampler_deterministic () =
  let config = Characterize.default_config in
  let a = Sampler.sample_library config ~mismatch:Mismatch.default ~seed:9 ~index:3 ~specs () in
  let b = Sampler.sample_library config ~mismatch:Mismatch.default ~seed:9 ~index:3 ~specs () in
  let lut lib = (List.hd (Cell.arcs (Library.find lib "INV_1"))).Arc.rise_delay in
  Alcotest.(check bool) "identical" true (Lut.equal ~eps:0.0 (lut a) (lut b))

let test_sampler_index_sensitivity () =
  let config = Characterize.default_config in
  let a = Sampler.sample_library config ~mismatch:Mismatch.default ~seed:9 ~index:0 ~specs () in
  let b = Sampler.sample_library config ~mismatch:Mismatch.default ~seed:9 ~index:1 ~specs () in
  let lut lib = (List.hd (Cell.arcs (Library.find lib "INV_1"))).Arc.rise_delay in
  Alcotest.(check bool) "different" false (Lut.equal (lut a) (lut b))

let () =
  Alcotest.run "charlib"
    [
      ( "delay_model",
        [
          test_delay_monotone_in_load;
          test_delay_monotone_in_slew;
          Alcotest.test_case "drive speedup" `Quick test_delay_drive_speedup;
          Alcotest.test_case "corner scales mean+sigma" `Quick test_corner_scales_delay_and_sigma;
          Alcotest.test_case "sigma vs drive (Fig 4)" `Quick test_sigma_decreases_with_drive;
          test_sigma_monotone_in_operating_point;
          Alcotest.test_case "stage counts" `Quick test_stage_count_lowers_sigma;
          Alcotest.test_case "rise/fall skew" `Quick test_rise_fall_skew;
          Alcotest.test_case "transition monotone" `Quick test_transition_monotone;
          Alcotest.test_case "power model" `Quick test_power_model;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "structure" `Quick test_characterize_structure;
          Alcotest.test_case "flip-flop" `Quick test_characterize_ff;
          Alcotest.test_case "tie cells" `Quick test_characterize_tie;
          Alcotest.test_case "load axis scaling" `Quick test_load_axis_scales_with_drive;
          Alcotest.test_case "power tables" `Quick test_characterize_power;
          Alcotest.test_case "table matches model" `Quick test_lut_values_match_model;
          Alcotest.test_case "tables = transcribed model" `Quick
            test_tables_match_transcribed_model;
          Alcotest.test_case "surfaces reject short buffer" `Quick
            test_surfaces_reject_short_buffer;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "deterministic" `Quick test_sampler_deterministic;
          Alcotest.test_case "index sensitivity" `Quick test_sampler_index_sensitivity;
        ] );
    ]
