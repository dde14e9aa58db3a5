(* Tests for Vartune_liberty: Lut, Arc, Pin, Cell, Library, and the text
   format (Lexer, Parser, Printer, Ast). *)

module Grid = Vartune_util.Grid
module Rng = Vartune_util.Rng
module Lut = Vartune_liberty.Lut
module Arc = Vartune_liberty.Arc
module Pin = Vartune_liberty.Pin
module Cell = Vartune_liberty.Cell
module Library = Vartune_liberty.Library
module Lexer = Vartune_liberty.Lexer
module Parser = Vartune_liberty.Parser
module Printer = Vartune_liberty.Printer
module Ast = Vartune_liberty.Ast

let check_float = Helpers.check_float

let simple_lut () =
  Lut.of_fn ~slews:[| 0.01; 0.1; 1.0 |] ~loads:[| 0.001; 0.01; 0.1 |]
    (fun ~slew ~load -> (10.0 *. load) +. slew)

(* -------------------------------- Lut ------------------------------- *)

let test_lut_make_validation () =
  let values = Grid.create ~rows:2 ~cols:2 0.0 in
  Alcotest.check_raises "bad slew axis"
    (Invalid_argument "Lut.make: slew axis not increasing") (fun () ->
      ignore (Lut.make ~slews:[| 0.2; 0.1 |] ~loads:[| 0.1; 0.2 |] ~values));
  Alcotest.check_raises "bad load axis"
    (Invalid_argument "Lut.make: load axis not increasing") (fun () ->
      ignore (Lut.make ~slews:[| 0.1; 0.2 |] ~loads:[| 0.2; 0.2 |] ~values));
  Alcotest.check_raises "dims" (Invalid_argument "Lut.make: grid does not match axes")
    (fun () -> ignore (Lut.make ~slews:[| 0.1; 0.2; 0.3 |] ~loads:[| 0.1; 0.2 |] ~values))

let test_lut_grid_points_exact () =
  let lut = simple_lut () in
  Array.iter
    (fun slew ->
      Array.iter
        (fun load ->
          check_float "grid point" ((10.0 *. load) +. slew) (Lut.lookup lut ~slew ~load))
        (Lut.loads lut))
    (Lut.slews lut)

let test_lut_bilinear_exact_on_bilinear =
  (* eqs (2)-(4) reproduce any bilinear function exactly inside the grid *)
  Helpers.qtest "bilinear exact"
    QCheck2.Gen.(
      tup4 (float_range 0.0 1.0) (float_range 0.0 1.0) (float_range (-5.0) 5.0)
        (float_range (-5.0) 5.0))
    (fun (u, v, a, b) ->
      let f ~slew ~load = a +. (b *. slew) +. (2.0 *. load) +. (0.7 *. slew *. load) in
      let lut = Lut.of_fn ~slews:[| 0.0; 0.3; 1.0 |] ~loads:[| 0.0; 0.5; 1.0 |] f in
      let slew = u and load = v in
      Helpers.feq ~eps:1e-9 (f ~slew ~load) (Lut.lookup lut ~slew ~load))

let test_lut_extrapolation () =
  let lut = simple_lut () in
  (* linear surface extrapolates exactly *)
  check_float "beyond load" ((10.0 *. 0.2) +. 0.1) (Lut.lookup lut ~slew:0.1 ~load:0.2);
  check_float "below slew" ((10.0 *. 0.01) +. 0.005) (Lut.lookup lut ~slew:0.005 ~load:0.01)

let test_lut_lookup_clamped () =
  let lut = simple_lut () in
  check_float "clamped high" ((10.0 *. 0.1) +. 1.0) (Lut.lookup_clamped lut ~slew:5.0 ~load:5.0);
  check_float "clamped low" ((10.0 *. 0.001) +. 0.01)
    (Lut.lookup_clamped lut ~slew:0.0 ~load:0.0)

let test_lut_single_row_col () =
  let one = Lut.make ~slews:[| 0.5 |] ~loads:[| 0.5 |] ~values:(Grid.create ~rows:1 ~cols:1 3.0) in
  check_float "1x1" 3.0 (Lut.lookup one ~slew:9.0 ~load:9.0);
  let row =
    Lut.make ~slews:[| 0.5 |] ~loads:[| 0.0; 1.0 |]
      ~values:(Grid.of_arrays [| [| 0.0; 2.0 |] |])
  in
  check_float "1xN interp" 1.0 (Lut.lookup row ~slew:0.1 ~load:0.5)

let test_lut_map_map2 () =
  let lut = simple_lut () in
  let doubled = Lut.map (fun v -> 2.0 *. v) lut in
  check_float "map" (2.0 *. Lut.get lut 1 1) (Lut.get doubled 1 1);
  let summed = Lut.map2 ( +. ) lut doubled in
  check_float "map2" (3.0 *. Lut.get lut 2 2) (Lut.get summed 2 2)

let test_lut_max_equivalent () =
  let a = simple_lut () in
  let b = Lut.map (fun v -> v -. 1.0) a in
  let c = Lut.map (fun v -> v +. 0.5) a in
  let m = Lut.max_equivalent [ a; b; c ] in
  Alcotest.(check bool) "max is c" true (Lut.equal m c)

let test_lut_merge_stats () =
  let base = simple_lut () in
  let samples = [ base; Lut.map (fun v -> v +. 1.0) base; Lut.map (fun v -> v +. 2.0) base ] in
  let mean = Lut.merge samples ~f:Vartune_util.Stat.mean in
  check_float "merged mean" (Lut.get base 0 0 +. 1.0) (Lut.get mean 0 0);
  let sd = Lut.merge samples ~f:Vartune_util.Stat.stddev in
  check_float "merged stddev" 1.0 (Lut.get sd 1 1)

let test_lut_merge_axis_mismatch () =
  let a = simple_lut () in
  let b =
    Lut.of_fn ~slews:[| 0.02; 0.2; 2.0 |] ~loads:[| 0.001; 0.01; 0.1 |]
      (fun ~slew ~load -> slew +. load)
  in
  Alcotest.check_raises "axis mismatch" (Invalid_argument "Lut.merge: axis mismatch")
    (fun () -> ignore (Lut.merge [ a; b ] ~f:Vartune_util.Stat.mean))

let test_lut_same_axes_bitwise () =
  (* same_axes is IEEE-754 bit equality, not structural (=) — which is
     false on any NaN-carrying axis — and not numeric (=), which would
     identify -0.0 with 0.0.  A single-element NaN axis passes the
     strictly-increasing check (no comparison to make), so such tables
     are constructible and must still compare equal to themselves. *)
  let values = Grid.create ~rows:1 ~cols:2 1.0 in
  let nan_axis () = Lut.make ~slews:[| nan |] ~loads:[| 0.1; 0.2 |] ~values in
  Alcotest.(check bool) "NaN axis equals itself" true
    (Lut.same_axes (nan_axis ()) (nan_axis ()));
  let zero sign = Lut.make ~slews:[| sign *. 0.0; 1.0 |] ~loads:[| 0.1 |] ~values:(Grid.create ~rows:2 ~cols:1 1.0) in
  Alcotest.(check bool) "-0.0 axis differs from 0.0" false
    (Lut.same_axes (zero 1.0) (zero (-1.0)));
  Alcotest.(check bool) "equal bits equal" true (Lut.same_axes (zero 1.0) (zero 1.0));
  let c = simple_lut () in
  Alcotest.(check bool) "ordinary axes equal" true (Lut.same_axes c (simple_lut ()))

let test_lut_pp_float_repr () =
  (* pp prints axes and values with the codec's round-trip convention
     (%.12g when exact, else %.17g) — 0.1 must come out as "0.1", and a
     17-digit value must survive a parse round-trip *)
  let tricky = 0.1 +. 0.2 in
  let lut =
    Lut.make ~slews:[| 0.1; tricky |] ~loads:[| 1.0 /. 3.0 |]
      ~values:(Grid.create ~rows:2 ~cols:1 0.30000000000000004)
  in
  let s = Format.asprintf "%a" Lut.pp lut in
  Alcotest.(check bool) "0.1 printed short" true (Helpers.contains s "0.1");
  Alcotest.(check bool) "0.30000000000000004 printed exactly" true
    (Helpers.contains s (Vartune_util.Floatfmt.repr tricky));
  Array.iter
    (fun f ->
      let r = Vartune_util.Floatfmt.repr f in
      Alcotest.(check bool)
        (Printf.sprintf "repr round-trips %h" f)
        true
        (Int64.equal (Int64.bits_of_float (float_of_string r)) (Int64.bits_of_float f)))
    [| 0.1; tricky; 1.0 /. 3.0; 1e-300; -0.0; 4.9e-324 |]

(* -------------------------------- Arc ------------------------------- *)

let make_arc ?rise_sigma () =
  let lut = simple_lut () in
  Arc.make ~related_pin:"A" ~sense:Arc.Negative_unate ~rise_delay:lut
    ~fall_delay:(Lut.map (fun v -> v *. 0.9) lut)
    ~rise_transition:(Lut.map (fun v -> v *. 2.0) lut)
    ~fall_transition:(Lut.map (fun v -> v *. 1.8) lut)
    ?rise_delay_sigma:rise_sigma ()

let test_arc_worst_delay () =
  let arc = make_arc () in
  let w = Arc.worst_delay arc in
  Alcotest.(check bool) "worst = rise" true (Lut.equal w arc.Arc.rise_delay);
  check_float "delay = rise" (Lut.lookup arc.Arc.rise_delay ~slew:0.1 ~load:0.01)
    (Arc.delay arc ~slew:0.1 ~load:0.01)

let test_arc_sigma_default () =
  let arc = make_arc () in
  Alcotest.(check bool) "no sigma" false (Arc.has_sigma arc);
  check_float "sigma 0" 0.0 (Arc.sigma arc ~slew:0.1 ~load:0.01)

let test_arc_sigma_present () =
  let sigma_lut = Lut.map (fun v -> v /. 100.0) (simple_lut ()) in
  let arc = make_arc ~rise_sigma:sigma_lut () in
  Alcotest.(check bool) "has sigma" true (Arc.has_sigma arc);
  check_float "sigma lookup" (Lut.lookup sigma_lut ~slew:0.1 ~load:0.01)
    (Arc.sigma arc ~slew:0.1 ~load:0.01)

let test_arc_sense_strings () =
  List.iter
    (fun sense ->
      Alcotest.(check bool) "roundtrip" true
        (Arc.sense_of_string (Arc.sense_to_string sense) = Some sense))
    [ Arc.Positive_unate; Arc.Negative_unate; Arc.Non_unate ];
  Alcotest.(check bool) "bad sense" true (Arc.sense_of_string "sideways" = None)

(* ----------------------------- Pin/Cell ----------------------------- *)

let make_cell () =
  let arc = make_arc () in
  Cell.make ~name:"ND2_4" ~family:"ND2" ~drive_strength:4 ~kind:Cell.Combinational
    ~area:2.5
    ~pins:
      [
        Pin.input ~name:"A" ~capacitance:0.002;
        Pin.input ~name:"B" ~capacitance:0.002;
        Pin.output ~name:"Z" ~max_capacitance:0.05 ~arcs:[ arc ] ();
      ]
    ()

let test_cell_pins () =
  let cell = make_cell () in
  Alcotest.(check int) "inputs" 2 (List.length (Cell.input_pins cell));
  Alcotest.(check int) "outputs" 1 (List.length (Cell.output_pins cell));
  Alcotest.(check (list string)) "input names" [ "A"; "B" ] (Cell.data_input_names cell);
  check_float "input cap" 0.002 (Cell.input_capacitance cell "A");
  check_float "max load" 0.05 (Cell.max_load cell);
  Alcotest.(check int) "arcs" 1 (List.length (Cell.arcs cell));
  Alcotest.(check bool) "not sequential" false (Cell.is_sequential cell)

let test_cell_clock_pin_excluded () =
  let ff =
    Cell.make ~name:"DFF_1" ~family:"DFF" ~drive_strength:1 ~kind:Cell.Flip_flop ~area:5.0
      ~pins:
        [
          Pin.input ~name:"D" ~capacitance:0.001;
          Pin.input ~name:"CK" ~capacitance:0.001;
          Pin.output ~name:"Q" ~arcs:[] ();
        ]
      ~setup_time:0.05 ~clock_pin:"CK" ()
  in
  Alcotest.(check (list string)) "data inputs exclude clock" [ "D" ]
    (Cell.data_input_names ff);
  Alcotest.(check bool) "sequential" true (Cell.is_sequential ff)

let test_cell_validation () =
  Alcotest.check_raises "bad drive"
    (Invalid_argument "Cell.make: drive strength must be positive") (fun () ->
      ignore
        (Cell.make ~name:"X" ~family:"X" ~drive_strength:0 ~kind:Cell.Combinational
           ~area:1.0 ~pins:[] ()))

(* ------------------------------ Library ----------------------------- *)

let small_library () =
  let cell name family drive =
    Cell.make ~name ~family ~drive_strength:drive ~kind:Cell.Combinational
      ~area:(float_of_int drive)
      ~pins:[ Pin.input ~name:"A" ~capacitance:0.001; Pin.output ~name:"Z" ~arcs:[] () ]
      ()
  in
  Library.make ~name:"lib" ~corner:"TT"
    ~cells:[ cell "INV_1" "INV" 1; cell "INV_4" "INV" 4; cell "ND2_4" "ND2" 4 ]

let test_library_lookup () =
  let lib = small_library () in
  Alcotest.(check int) "size" 3 (Library.size lib);
  Alcotest.(check bool) "mem" true (Library.mem lib "INV_4");
  Alcotest.(check bool) "find" true ((Library.find lib "ND2_4").Cell.name = "ND2_4");
  Alcotest.(check bool) "find_opt none" true (Library.find_opt lib "NOPE" = None);
  Alcotest.check_raises "find raises" Not_found (fun () -> ignore (Library.find lib "NOPE"))

let test_library_duplicates () =
  let cell =
    Cell.make ~name:"X_1" ~family:"X" ~drive_strength:1 ~kind:Cell.Combinational ~area:1.0
      ~pins:[] ()
  in
  Alcotest.check_raises "dup" (Invalid_argument "Library.make: duplicate cell X_1")
    (fun () -> ignore (Library.make ~name:"l" ~corner:"TT" ~cells:[ cell; cell ]))

let test_library_families () =
  let lib = small_library () in
  Alcotest.(check (list string)) "families" [ "INV"; "ND2" ] (Library.families lib);
  let ladder = Library.family_members lib "INV" in
  Alcotest.(check (list int)) "drive sorted" [ 1; 4 ]
    (List.map (fun (c : Cell.t) -> c.Cell.drive_strength) ladder);
  Alcotest.(check int) "drive cluster" 2 (List.length (Library.drive_cluster lib 4))

let test_library_filter_area () =
  let lib = small_library () in
  let only_inv = Library.filter lib ~f:(fun c -> c.Cell.family = "INV") in
  Alcotest.(check int) "filtered" 2 (Library.size only_inv);
  check_float "area" 9.0 (Library.total_area lib)

(* ----------------------------- Text format -------------------------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "cell(ND2_1) { area : 1.5; /* c */ // line\n }" in
  (match toks with
  | Lexer.Ident "cell" :: Lexer.Lparen :: Lexer.Ident "ND2_1" :: Lexer.Rparen
    :: Lexer.Lbrace :: Lexer.Ident "area" :: Lexer.Colon :: Lexer.Number n
    :: Lexer.Semi :: Lexer.Rbrace :: [ Lexer.Eof ] ->
    check_float "number" 1.5 n
  | _ -> Alcotest.fail "unexpected token stream");
  Alcotest.(check int) "token count" 11 (List.length toks)

let test_lexer_numbers () =
  (match Lexer.tokenize "1.5e-3" with
  | [ Lexer.Number f; Lexer.Eof ] -> check_float "sci" 0.0015 f
  | _ -> Alcotest.fail "sci notation");
  match Lexer.tokenize "-0.25" with
  | [ Lexer.Number f; Lexer.Eof ] -> check_float "negative" (-0.25) f
  | _ -> Alcotest.fail "negative number"

let test_lexer_sci_notation () =
  (* every exponent spelling commercial characterisers emit *)
  List.iter
    (fun (src, expected) ->
      match Lexer.tokenize src with
      | [ Lexer.Number f; Lexer.Eof ] -> check_float ("lexes " ^ src) expected f
      | _ -> Alcotest.fail ("single number expected for " ^ src))
    [
      ("1.2E+03", 1200.0);
      ("4.7e-12", 4.7e-12);
      ("1E3", 1000.0);
      ("+1.5", 1.5);
      ("-2.5E-1", -0.25);
      (".5e1", 5.0);
    ];
  (* an e/E not followed by digits is not an exponent: the number ends
     and an identifier begins *)
  (match Lexer.tokenize "3EFF" with
  | [ Lexer.Number f; Lexer.Ident "EFF"; Lexer.Eof ] -> check_float "3EFF" 3.0 f
  | _ -> Alcotest.fail "3EFF must lex as number then identifier");
  match Lexer.tokenize "1e5f" with
  | [ Lexer.Number f; Lexer.Ident "f"; Lexer.Eof ] -> check_float "1e5f" 1.0e5 f
  | _ -> Alcotest.fail "1e5f must lex as 1e5 then identifier f"

let test_parser_sci_notation_roundtrip () =
  (* exponent-form numbers survive in attribute and complex positions *)
  let g =
    Parser.parse_group
      "cell(X) { cap : 1.2E+03; leak : 4.7e-12; idx(\"1.0E+00, 2.5e-01\", 1E3); }"
  in
  Alcotest.(check bool) "attribute E+" true (Ast.attr_float g "cap" = Some 1200.0);
  Alcotest.(check bool) "attribute e-" true (Ast.attr_float g "leak" = Some 4.7e-12);
  (match Ast.complex_values g "idx" with
  | Some values ->
    Alcotest.(check (array (float 0.0))) "complex values" [| 1.0; 0.25; 1000.0 |]
      (Ast.float_list_of_values values)
  | None -> Alcotest.fail "complex group missing");
  (* a library whose table values print in exponent form parses back
     bit-identically *)
  let lut =
    Lut.make ~slews:[| 1.0e-3; 2.0e-2 |] ~loads:[| 5.0e-4; 1.0e-1 |]
      ~values:(Grid.of_arrays [| [| 1.25e-12; 3.5e3 |]; [| 7.5e-9; 0.5 |] |])
  in
  let arc =
    Arc.make ~related_pin:"A" ~sense:Arc.Negative_unate ~rise_delay:lut ~fall_delay:lut
      ~rise_transition:lut ~fall_transition:lut ()
  in
  let cell =
    Cell.make ~name:"E_1" ~family:"E" ~drive_strength:1 ~kind:Cell.Combinational
      ~area:1.0
      ~pins:
        [
          Pin.input ~name:"A" ~capacitance:3.2e-15;
          Pin.output ~name:"Z" ~arcs:[ arc ] ();
        ]
      ()
  in
  let lib = Library.make ~name:"sci" ~corner:"TT" ~cells:[ cell ] in
  let lib' = Parser.parse (Printer.to_string lib) in
  let c' = Library.find lib' "E_1" in
  let a' = List.hd (Cell.arcs c') in
  Alcotest.(check bool) "tables roundtrip exactly" true
    (Lut.equal ~eps:0.0 a'.Arc.rise_delay lut);
  check_float "input cap roundtrips" 3.2e-15 (Cell.input_capacitance c' "A")

let test_lexer_string_and_errors () =
  (match Lexer.tokenize "\"a, b\"" with
  | [ Lexer.String s; Lexer.Eof ] -> Alcotest.(check string) "string" "a, b" s
  | _ -> Alcotest.fail "string token");
  Alcotest.(check bool) "unterminated string raises" true
    (try
       ignore (Lexer.tokenize "\"oops");
       false
     with Lexer.Error _ -> true);
  Alcotest.(check bool) "unterminated comment raises" true
    (try
       ignore (Lexer.tokenize "/* oops");
       false
     with Lexer.Error _ -> true)

let test_ast_helpers () =
  let g = Parser.parse_group "top(x) { a : 1; b : \"s\"; idx(\"1, 2\", 3); child(y) { } }" in
  Alcotest.(check string) "gname" "top" g.Ast.gname;
  Alcotest.(check (list string)) "args" [ "x" ] g.Ast.args;
  Alcotest.(check bool) "attr float" true (Ast.attr_float g "a" = Some 1.0);
  Alcotest.(check bool) "attr string" true (Ast.attr_string g "b" = Some "s");
  Alcotest.(check bool) "missing" true (Ast.attr g "zzz" = None);
  (match Ast.complex_values g "idx" with
  | Some values ->
    Alcotest.(check (array (float 0.0))) "floats" [| 1.0; 2.0; 3.0 |]
      (Ast.float_list_of_values values)
  | None -> Alcotest.fail "complex");
  Alcotest.(check int) "children" 1 (List.length (Ast.child_groups g "child"))

let test_parser_errors () =
  let expect_error src =
    Alcotest.(check bool) ("rejects " ^ src) true
      (try
         ignore (Parser.parse src);
         false
       with Parser.Error _ | Lexer.Error _ -> true)
  in
  expect_error "";
  expect_error "library(l) {";
  expect_error "notalibrary(l) { }";
  expect_error "library(l) { cell() { } }";
  expect_error "library(l) { cell(C) { area : 1; } }" (* missing family *)

let test_parser_rejects_inconsistent_contents () =
  Alcotest.(check int) "well-formed fixture parses" 2
    (Library.size (Parser.parse Helpers.well_formed_library));
  List.iter
    (fun (label, src, group) ->
      match Parser.parse src with
      | _ -> Alcotest.failf "%s: parsed" label
      | exception Parser.Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error %S names %s" label msg group)
          true (Helpers.contains msg group))
    Helpers.corrupt_libraries

let test_roundtrip_library () =
  let lib = Lazy.force Helpers.small_statlib in
  let text = Printer.to_string lib in
  let lib' = Parser.parse text in
  Alcotest.(check int) "cell count" (Library.size lib) (Library.size lib');
  Alcotest.(check string) "name" (Library.name lib) (Library.name lib');
  List.iter2
    (fun (a : Cell.t) (b : Cell.t) ->
      Alcotest.(check string) "cell name" a.Cell.name b.Cell.name;
      check_float "area" a.Cell.area b.Cell.area;
      Alcotest.(check int) "drive" a.Cell.drive_strength b.Cell.drive_strength;
      List.iter2
        (fun (x : Arc.t) (y : Arc.t) ->
          Alcotest.(check bool) "rise" true (Lut.equal x.Arc.rise_delay y.Arc.rise_delay);
          Alcotest.(check bool) "fall" true (Lut.equal x.Arc.fall_delay y.Arc.fall_delay);
          Alcotest.(check bool) "sigma" true
            (match (x.Arc.rise_delay_sigma, y.Arc.rise_delay_sigma) with
            | Some s, Some t -> Lut.equal s t
            | None, None -> true
            | Some _, None | None, Some _ -> false))
        (Cell.arcs a) (Cell.arcs b))
    (Library.cells lib) (Library.cells lib')

let test_roundtrip_power_and_leakage () =
  (* power tables and leakage survive print -> parse *)
  let lib = Lazy.force Helpers.nominal_small in
  let lib' = Parser.parse (Printer.to_string lib) in
  List.iter2
    (fun (a : Cell.t) (b : Cell.t) ->
      Helpers.check_float "leakage" a.Cell.leakage b.Cell.leakage;
      List.iter2
        (fun (x : Arc.t) (y : Arc.t) ->
          match (x.Arc.internal_power, y.Arc.internal_power) with
          | Some p, Some q -> Alcotest.(check bool) "power table" true (Lut.equal ~eps:0.0 p q)
          | None, None -> ()
          | Some _, None | None, Some _ -> Alcotest.fail "power table lost")
        (Cell.arcs a) (Cell.arcs b))
    (Library.cells lib) (Library.cells lib')

let test_roundtrip_random_values =
  (* random table values survive print -> parse exactly *)
  Helpers.qtest ~count:20 "random table roundtrip" QCheck2.Gen.int (fun seed ->
      let rng = Rng.create seed in
      let lut =
        Lut.of_fn ~slews:[| 0.01; 0.5 |] ~loads:[| 0.001; 0.02 |] (fun ~slew ~load ->
            slew +. load +. Rng.float rng 10.0)
      in
      let arc =
        Arc.make ~related_pin:"A" ~sense:Arc.Negative_unate ~rise_delay:lut ~fall_delay:lut
          ~rise_transition:lut ~fall_transition:lut ()
      in
      let cell =
        Cell.make ~name:"T_1" ~family:"T" ~drive_strength:1 ~kind:Cell.Combinational
          ~area:(Rng.float rng 100.0)
          ~pins:
            [
              Pin.input ~name:"A" ~capacitance:(Rng.float rng 0.01);
              Pin.output ~name:"Z" ~arcs:[ arc ] ();
            ]
          ()
      in
      let lib = Library.make ~name:"r" ~corner:"TT" ~cells:[ cell ] in
      let lib' = Parser.parse (Printer.to_string lib) in
      let c' = Library.find lib' "T_1" in
      let a' = List.hd (Cell.arcs c') in
      c'.Cell.area = cell.Cell.area && Lut.equal ~eps:0.0 a'.Arc.rise_delay lut)

(* ----------------------------- Printer ------------------------------ *)

(* md5 of [Printer.to_string] for two full-catalog libraries, recorded
   from the Format-based printer this one replaced: any byte the printer
   or the float formatter changes fails here, not only in the benchmark's
   digests. *)
let golden_libraries =
  let config = Vartune_charlib.Characterize.default_config in
  [
    ("nominal", "43e1e24000eba9bc0dc52b3e0c9dc0a3",
     lazy (Vartune_charlib.Characterize.nominal config));
    ("statistical seed 1 n 4", "80df2456dac43212e94ed193b9905e67",
     lazy
       (Vartune_statlib.Statistical.build config
          ~mismatch:Vartune_process.Mismatch.default ~seed:1 ~n:4 ()));
  ]

let test_printer_golden_bytes () =
  List.iter
    (fun (name, md5, lib) ->
      let lib = Lazy.force lib in
      let text = Printer.to_string lib in
      Alcotest.(check string) (name ^ " md5") md5 (Digest.to_hex (Digest.string text));
      let path = Filename.temp_file "vartune_golden" ".lib" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Printer.write_file path lib;
          Alcotest.(check bool) (name ^ ": write_file writes the to_string bytes") true
            (In_channel.with_open_bin path In_channel.input_all = text)))
    golden_libraries

let () =
  Alcotest.run "liberty"
    [
      ( "lut",
        [
          Alcotest.test_case "make validation" `Quick test_lut_make_validation;
          Alcotest.test_case "grid points exact" `Quick test_lut_grid_points_exact;
          test_lut_bilinear_exact_on_bilinear;
          Alcotest.test_case "extrapolation" `Quick test_lut_extrapolation;
          Alcotest.test_case "clamped lookup" `Quick test_lut_lookup_clamped;
          Alcotest.test_case "degenerate axes" `Quick test_lut_single_row_col;
          Alcotest.test_case "map/map2" `Quick test_lut_map_map2;
          Alcotest.test_case "max equivalent" `Quick test_lut_max_equivalent;
          Alcotest.test_case "merge stats" `Quick test_lut_merge_stats;
          Alcotest.test_case "merge axis mismatch" `Quick test_lut_merge_axis_mismatch;
          Alcotest.test_case "same_axes bitwise" `Quick test_lut_same_axes_bitwise;
          Alcotest.test_case "pp float convention" `Quick test_lut_pp_float_repr;
        ] );
      ( "arc",
        [
          Alcotest.test_case "worst delay" `Quick test_arc_worst_delay;
          Alcotest.test_case "sigma default" `Quick test_arc_sigma_default;
          Alcotest.test_case "sigma present" `Quick test_arc_sigma_present;
          Alcotest.test_case "sense strings" `Quick test_arc_sense_strings;
        ] );
      ( "cell",
        [
          Alcotest.test_case "pins" `Quick test_cell_pins;
          Alcotest.test_case "clock pin excluded" `Quick test_cell_clock_pin_excluded;
          Alcotest.test_case "validation" `Quick test_cell_validation;
        ] );
      ( "library",
        [
          Alcotest.test_case "lookup" `Quick test_library_lookup;
          Alcotest.test_case "duplicates" `Quick test_library_duplicates;
          Alcotest.test_case "families" `Quick test_library_families;
          Alcotest.test_case "filter/area" `Quick test_library_filter_area;
        ] );
      ( "format",
        [
          Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "lexer numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "sci notation" `Quick test_lexer_sci_notation;
          Alcotest.test_case "sci notation roundtrip" `Quick
            test_parser_sci_notation_roundtrip;
          Alcotest.test_case "lexer strings/errors" `Quick test_lexer_string_and_errors;
          Alcotest.test_case "ast helpers" `Quick test_ast_helpers;
          Alcotest.test_case "parser errors" `Quick test_parser_errors;
          Alcotest.test_case "parser rejects inconsistent contents" `Quick
            test_parser_rejects_inconsistent_contents;
          Alcotest.test_case "statlib roundtrip" `Slow test_roundtrip_library;
          Alcotest.test_case "power roundtrip" `Quick test_roundtrip_power_and_leakage;
          test_roundtrip_random_values;
        ] );
      ( "printer",
        [ Alcotest.test_case "golden bytes" `Quick test_printer_golden_bytes ] );
    ]
