(* Tests for Vartune_tuning — the paper's core contribution: Slope,
   Binary_lut, Rectangle (Algorithm 1), Cluster, Threshold, Restrict,
   Tuning_method. *)

module Grid = Vartune_util.Grid
module Rng = Vartune_util.Rng
module Lut = Vartune_liberty.Lut
module Library = Vartune_liberty.Library
module Cell = Vartune_liberty.Cell
module Pin = Vartune_liberty.Pin
module Slope = Vartune_tuning.Slope
module Binary_lut = Vartune_tuning.Binary_lut
module Rectangle = Vartune_tuning.Rectangle
module Cluster = Vartune_tuning.Cluster
module Threshold = Vartune_tuning.Threshold
module Restrict = Vartune_tuning.Restrict
module Tuning_method = Vartune_tuning.Tuning_method

let check_float = Helpers.check_float

let statlib = Lazy.force Helpers.small_statlib

(* ------------------------------- Slope ------------------------------- *)

let test_slope_manual () =
  (* Q = 10*load + 2*slew over known axes: slopes are exactly 10 and 2 *)
  let lut =
    Lut.of_fn ~slews:[| 0.0; 0.5; 1.0 |] ~loads:[| 0.0; 0.1; 0.3 |] (fun ~slew ~load ->
        (10.0 *. load) +. (2.0 *. slew))
  in
  let ls = Slope.load_slope lut in
  let ss = Slope.slew_slope lut in
  (* eq 12/13: first row / column zero *)
  for j = 0 to 2 do
    check_float "slew slope first row" 0.0 (Lut.get ss 0 j)
  done;
  for i = 0 to 2 do
    check_float "load slope first col" 0.0 (Lut.get ls i 0)
  done;
  check_float "load slope" 10.0 (Lut.get ls 1 1);
  check_float "load slope wide step" 10.0 (Lut.get ls 2 2);
  check_float "slew slope" 2.0 (Lut.get ss 1 1);
  check_float "slew slope 2" 2.0 (Lut.get ss 2 0)

let test_max_equivalent_by_index () =
  let a = Lut.of_fn ~slews:[| 0.0; 1.0 |] ~loads:[| 0.0; 1.0 |] (fun ~slew ~load -> slew +. load) in
  (* different axes but same dims: merged by index *)
  let b =
    Lut.of_fn ~slews:[| 0.0; 2.0 |] ~loads:[| 0.0; 2.0 |] (fun ~slew ~load ->
        (slew +. load) /. 4.0)
  in
  let m = Slope.max_equivalent_by_index [ a; b ] in
  check_float "corner entry" 2.0 (Lut.get m 1 1);
  check_float "origin" 0.0 (Lut.get m 0 0);
  Alcotest.(check bool) "keeps first axes" true (Lut.slews m = Lut.slews a);
  Alcotest.(check bool) "dims mismatch rejected" true
    (try
       let c = Lut.of_fn ~slews:[| 0.0; 1.0; 2.0 |] ~loads:[| 0.0; 1.0 |] (fun ~slew ~load -> slew +. load) in
       ignore (Slope.max_equivalent_by_index [ a; c ]);
       false
     with Invalid_argument _ -> true)

(* ----------------------------- Binary_lut ---------------------------- *)

let test_binary_thresholds () =
  let lut = Lut.of_fn ~slews:[| 0.0; 1.0 |] ~loads:[| 0.0; 1.0 |] (fun ~slew ~load -> slew +. load) in
  (* entries: 0, 1, 1, 2 *)
  let strict = Binary_lut.of_threshold lut ~threshold:1.0 in
  Alcotest.(check int) "strictly below" 1 (Binary_lut.count_true strict);
  let ceil = Binary_lut.of_ceiling lut ~ceiling:1.0 in
  Alcotest.(check int) "at-or-below" 3 (Binary_lut.count_true ceil);
  Alcotest.(check bool) "origin in" true (Binary_lut.get ceil 0 0);
  Alcotest.(check bool) "corner out" false (Binary_lut.get ceil 1 1)

let test_binary_and () =
  let a = Binary_lut.of_bool_rows [| [| true; true |]; [| false; true |] |] in
  let b = Binary_lut.of_bool_rows [| [| true; false |]; [| true; true |] |] in
  let c = Binary_lut.logical_and a b in
  Alcotest.(check bool) "0,0" true (Binary_lut.get c 0 0);
  Alcotest.(check bool) "0,1" false (Binary_lut.get c 0 1);
  Alcotest.(check bool) "1,0" false (Binary_lut.get c 1 0);
  Alcotest.(check bool) "1,1" true (Binary_lut.get c 1 1);
  Alcotest.(check int) "count" 2 (Binary_lut.count_true c)

let test_all_true_in () =
  let m = Binary_lut.of_bool_rows [| [| true; true; false |]; [| true; true; true |] |] in
  Alcotest.(check bool) "2x2 block" true
    (Binary_lut.all_true_in m ~row_lo:0 ~col_lo:0 ~row_hi:1 ~col_hi:1);
  Alcotest.(check bool) "with hole" false
    (Binary_lut.all_true_in m ~row_lo:0 ~col_lo:0 ~row_hi:1 ~col_hi:2)

(* ------------------------------ Rectangle ---------------------------- *)

let test_rectangle_known_cases () =
  (* full mask *)
  let full = Binary_lut.of_bool_rows (Array.make_matrix 3 4 true) in
  (match Rectangle.naive_largest full with
  | Some r ->
    Alcotest.(check int) "full area" 12 (Rectangle.area r);
    Alcotest.(check (pair int int)) "far corner" (2, 3) (Rectangle.far_corner r)
  | None -> Alcotest.fail "full mask");
  (* empty mask *)
  let empty = Binary_lut.of_bool_rows (Array.make_matrix 3 4 false) in
  Alcotest.(check bool) "empty none" true (Rectangle.naive_largest empty = None);
  Alcotest.(check bool) "empty none (opt)" true (Rectangle.largest empty = None);
  (* single one *)
  let single =
    Binary_lut.of_bool_rows [| [| false; false |]; [| false; true |] |]
  in
  (match Rectangle.naive_largest single with
  | Some r ->
    Alcotest.(check int) "area 1" 1 (Rectangle.area r);
    Alcotest.(check bool) "position" true (r.Rectangle.row_lo = 1 && r.Rectangle.col_lo = 1)
  | None -> Alcotest.fail "single")

let test_rectangle_l_shape () =
  (* L-shape: best rectangle is the 2x2 block, not the long arm *)
  let l =
    Binary_lut.of_bool_rows
      [|
        [| true; true; false; false |];
        [| true; true; false; false |];
        [| true; false; false; false |];
      |]
  in
  match Rectangle.naive_largest l with
  | Some r -> Alcotest.(check int) "area" 4 (Rectangle.area r)
  | None -> Alcotest.fail "l shape"

let test_rectangle_prefers_origin () =
  (* two maximal rectangles of equal area: Algorithm 1's loop order picks
     the one closest to the origin *)
  let m =
    Binary_lut.of_bool_rows
      [|
        [| true; true; false; false |];
        [| false; false; false; false |];
        [| false; false; true; true |];
      |]
  in
  match Rectangle.naive_largest m with
  | Some r ->
    Alcotest.(check int) "row origin" 0 r.Rectangle.row_lo;
    Alcotest.(check int) "col origin" 0 r.Rectangle.col_lo
  | None -> Alcotest.fail "tie"

let random_mask rng rows cols density =
  Binary_lut.of_bool_rows
    (Array.init rows (fun _ -> Array.init cols (fun _ -> Rng.uniform rng < density)))

let rect_valid mask (r : Rectangle.t) =
  Binary_lut.all_true_in mask ~row_lo:r.Rectangle.row_lo ~col_lo:r.Rectangle.col_lo
    ~row_hi:r.Rectangle.row_hi ~col_hi:r.Rectangle.col_hi

let test_rectangle_naive_vs_optimised =
  (* full structural equality, not just equal areas: the optimised
     tie-break must reproduce Algorithm 1's loop-order winner exactly,
     coordinates included, so the extracted (slew, load) window never
     depends on which implementation ran *)
  Helpers.qtest ~count:200 "naive and optimised agree exactly"
    QCheck2.Gen.(pair int (float_range 0.2 0.9))
    (fun (seed, density) ->
      let rng = Rng.create seed in
      let mask = random_mask rng (1 + Rng.int rng 9) (1 + Rng.int rng 9) density in
      match (Rectangle.naive_largest mask, Rectangle.largest mask) with
      | None, None -> true
      | Some a, Some b -> a = b && rect_valid mask a
      | Some _, None | None, Some _ -> false)

let test_rectangle_naive_is_maximal =
  (* no valid rectangle can beat the naive result *)
  Helpers.qtest ~count:50 "naive is maximal" QCheck2.Gen.int (fun seed ->
      let rng = Rng.create seed in
      let rows = 1 + Rng.int rng 6 and cols = 1 + Rng.int rng 6 in
      let mask = random_mask rng rows cols 0.6 in
      match Rectangle.naive_largest mask with
      | None -> Binary_lut.count_true mask = 0
      | Some best ->
        let beaten = ref false in
        for rl = 0 to rows - 1 do
          for cl = 0 to cols - 1 do
            for rh = rl to rows - 1 do
              for ch = cl to cols - 1 do
                let area = (rh - rl + 1) * (ch - cl + 1) in
                if
                  area > Rectangle.area best
                  && Binary_lut.all_true_in mask ~row_lo:rl ~col_lo:cl ~row_hi:rh ~col_hi:ch
                then beaten := true
              done
            done
          done
        done;
        not !beaten)

(* ------------------------------ Cluster ------------------------------ *)

let sigma_bearing =
  List.filter
    (fun c -> Cluster.sigma_luts c <> [])
    (Library.cells statlib)

let test_cluster_per_cell () =
  let clusters = Cluster.clusters statlib Cluster.Per_cell in
  (* every cell with sigma arcs gets a cluster; tie cells are skipped *)
  Alcotest.(check bool) "one cell each" true
    (List.for_all (fun c -> List.length c.Cluster.cells = 1) clusters);
  let total = List.fold_left (fun acc c -> acc + List.length c.Cluster.cells) 0 clusters in
  Alcotest.(check int) "covers sigma-bearing cells" (List.length sigma_bearing) total

let test_cluster_per_strength () =
  let clusters = Cluster.clusters statlib Cluster.Per_drive_strength in
  List.iter
    (fun c ->
      match c.Cluster.cells with
      | [] -> Alcotest.fail "empty cluster"
      | first :: rest ->
        List.iter
          (fun (cell : Cell.t) ->
            Alcotest.(check int) "uniform drive" first.Cell.drive_strength
              cell.Cell.drive_strength)
          rest)
    clusters;
  let d1 = List.find (fun c -> c.Cluster.label = "drive_1") clusters in
  let expected =
    List.length
      (List.filter (fun (c : Cell.t) -> c.Cell.drive_strength = 1) sigma_bearing)
  in
  Alcotest.(check int) "drive 1 cluster size" expected (List.length d1.Cluster.cells)

let test_cluster_equivalent_lut () =
  let clusters = Cluster.clusters statlib Cluster.Per_drive_strength in
  let d1 = List.find (fun c -> c.Cluster.label = "drive_1") clusters in
  match Cluster.equivalent_lut d1 with
  | None -> Alcotest.fail "no envelope"
  | Some envelope ->
    (* envelope dominates each member's sigma tables entry-wise *)
    List.iter
      (fun cell ->
        List.iter
          (fun lut ->
            let rows, cols = Lut.dims lut in
            for i = 0 to rows - 1 do
              for j = 0 to cols - 1 do
                Alcotest.(check bool) "dominates" true
                  (Lut.get envelope i j >= Lut.get lut i j -. 1e-12)
              done
            done)
          (Cluster.sigma_luts cell))
      d1.Cluster.cells

(* ------------------------------ Threshold ---------------------------- *)

let monotone_sigma_lut =
  Lut.of_fn ~slews:[| 0.01; 0.1; 0.4; 1.0 |] ~loads:[| 0.001; 0.01; 0.04; 0.1 |]
    (fun ~slew ~load -> (0.2 *. load) +. (0.01 *. slew))

let test_threshold_ceiling_passthrough () =
  Alcotest.(check bool) "ceiling is its own threshold" true
    (Threshold.of_criterion (Threshold.Sigma_ceiling 0.025) ~cluster_lut:monotone_sigma_lut
    = Some 0.025)

let test_threshold_slope_extraction () =
  (* load slope is 0.2 everywhere: a bound above keeps all, below kills *)
  let loose = Threshold.extract_slope_threshold monotone_sigma_lut ~load_bound:0.3 ~slew_bound:0.06 in
  (match loose with
  | Some t ->
    (* far corner of the full table *)
    check_float "loose = max entry" (Lut.get monotone_sigma_lut 3 3) t
  | None -> Alcotest.fail "loose bound");
  let tight = Threshold.extract_slope_threshold monotone_sigma_lut ~load_bound:0.1 ~slew_bound:0.06 in
  match tight with
  | Some t ->
    (* only the first load column is flat (slope column zero); threshold
       comes from the bottom of that column *)
    check_float "tight = column max" (Lut.get monotone_sigma_lut 3 0) t
  | None -> Alcotest.fail "tight bound"

let test_threshold_no_flat_region () =
  (* make even the zero first row/col fail: impossible since eq 12/13
     zero-fill them, so the first column is always flat; a bound of 0
     excludes everything *)
  Alcotest.(check bool) "zero bound kills all" true
    (Threshold.extract_slope_threshold monotone_sigma_lut ~load_bound:0.0 ~slew_bound:0.0 = None)

let test_paper_defaults () =
  check_float "load default" 1.0 Threshold.paper_defaults.Threshold.load_bound;
  check_float "slew default" 0.06 Threshold.paper_defaults.Threshold.slew_bound

(* ------------------------------ Restrict ----------------------------- *)

let test_window_allows () =
  let w = { Restrict.slew_min = 0.01; slew_max = 0.3; load_min = 0.001; load_max = 0.02 } in
  Alcotest.(check bool) "inside" true (Restrict.window_allows w ~slew:0.1 ~load:0.01);
  Alcotest.(check bool) "boundary" true (Restrict.window_allows w ~slew:0.3 ~load:0.02);
  Alcotest.(check bool) "slew above" false (Restrict.window_allows w ~slew:0.31 ~load:0.01);
  Alcotest.(check bool) "load below" false (Restrict.window_allows w ~slew:0.1 ~load:0.0001)

let test_pin_window_extraction () =
  let cell = Library.find statlib "INV_1" in
  let pin = List.hd (Cell.output_pins cell) in
  (* a generous threshold keeps the whole table *)
  (match Restrict.pin_window pin ~threshold:10.0 with
  | Restrict.Window w ->
    let arc = List.hd pin.Pin.arcs in
    let slews = Lut.slews arc.Vartune_liberty.Arc.rise_delay in
    let loads = Lut.loads arc.Vartune_liberty.Arc.rise_delay in
    check_float "slew covers axis" slews.(Array.length slews - 1) w.Restrict.slew_max;
    check_float "load covers axis" loads.(Array.length loads - 1) w.Restrict.load_max
  | Restrict.Unusable | Restrict.Unrestricted -> Alcotest.fail "expected a window");
  (* an impossible threshold marks the pin unusable *)
  (match Restrict.pin_window pin ~threshold:(-1.0) with
  | Restrict.Unusable -> ()
  | Restrict.Window _ | Restrict.Unrestricted -> Alcotest.fail "expected unusable");
  (* a mid threshold shrinks the window *)
  match Restrict.pin_window pin ~threshold:0.01 with
  | Restrict.Window w ->
    let arc = List.hd pin.Pin.arcs in
    let loads = Lut.loads arc.Vartune_liberty.Arc.rise_delay in
    Alcotest.(check bool) "restricted below full range" true
      (w.Restrict.load_max < loads.(Array.length loads - 1)
      || w.Restrict.slew_max < 1.0)
  | Restrict.Unusable -> () (* acceptable if 0.01 is below the table floor *)
  | Restrict.Unrestricted -> Alcotest.fail "expected restriction"

let test_pin_window_conservative_across_arcs () =
  (* Section VI-C: the per-pin window uses the max-equivalent LUT over the
     pin's arcs, so it must be contained in the window any single arc
     would allow at the same threshold *)
  let cells_with_multi_arc_pins =
    List.filter
      (fun (c : Cell.t) ->
        List.exists (fun (p : Pin.t) -> List.length p.Pin.arcs >= 2) (Cell.output_pins c))
      (Library.cells statlib)
  in
  Alcotest.(check bool) "multi-arc cells exist" true (cells_with_multi_arc_pins <> []);
  List.iter
    (fun (cell : Cell.t) ->
      List.iter
        (fun (p : Pin.t) ->
          if List.length p.Pin.arcs >= 2 then begin
            let threshold = 0.02 in
            match Restrict.pin_window p ~threshold with
            | Restrict.Unrestricted | Restrict.Unusable -> ()
            | Restrict.Window pin_w ->
              List.iter
                (fun (arc : Vartune_liberty.Arc.t) ->
                  match Vartune_liberty.Arc.worst_sigma arc with
                  | None -> ()
                  | Some sigma ->
                    let mask = Binary_lut.of_ceiling sigma ~ceiling:threshold in
                    (match Rectangle.naive_largest mask with
                    | None -> Alcotest.fail "pin window exists but an arc admits nothing"
                    | Some rect ->
                      let slews = Lut.slews sigma and loads = Lut.loads sigma in
                      let arc_w =
                        { Restrict.slew_min = slews.(rect.Rectangle.row_lo);
                          slew_max = slews.(rect.Rectangle.row_hi);
                          load_min = loads.(rect.Rectangle.col_lo);
                          load_max = loads.(rect.Rectangle.col_hi) }
                      in
                      (* any point the pin window admits must be admitted by
                         a same-or-larger area per-arc region; conservative
                         means the pin rectangle is no larger *)
                      Alcotest.(check bool) "pin window area <= arc window area" true
                        ((pin_w.Restrict.slew_max -. pin_w.Restrict.slew_min)
                           *. (pin_w.Restrict.load_max -. pin_w.Restrict.load_min)
                        <= (arc_w.Restrict.slew_max -. arc_w.Restrict.slew_min)
                             *. (arc_w.Restrict.load_max -. arc_w.Restrict.load_min)
                           +. 1e-12)))
                p.Pin.arcs
          end)
        (Cell.output_pins cell))
    (List.filteri (fun i _ -> i < 6) cells_with_multi_arc_pins)

let test_slope_nonnegative_on_monotone =
  (* monotone sigma surfaces (ours are, by construction) have non-negative
     slope tables everywhere *)
  Helpers.qtest ~count:60 "slopes of monotone luts are non-negative"
    QCheck2.Gen.(pair (float_range 0.01 2.0) (float_range 0.001 0.2))
    (fun (a, b) ->
      let lut =
        Lut.of_fn ~slews:[| 0.01; 0.1; 0.5; 1.0 |] ~loads:[| 0.001; 0.01; 0.05; 0.1 |]
          (fun ~slew ~load -> (a *. load) +. (b *. slew) +. (0.3 *. slew *. load))
      in
      let ok = ref true in
      let check t =
        let rows, cols = Lut.dims t in
        for i = 0 to rows - 1 do
          for j = 0 to cols - 1 do
            if Lut.get t i j < -1e-12 then ok := false
          done
        done
      in
      check (Slope.load_slope lut);
      check (Slope.slew_slope lut);
      !ok)

let test_table_semantics () =
  let table = Restrict.empty_table () in
  Alcotest.(check bool) "absent is unrestricted" true
    (Restrict.find table ~cell:"X" ~pin:"Z" = Restrict.Unrestricted);
  Restrict.set table ~cell:"X" ~pin:"Z" Restrict.Unusable;
  Alcotest.(check bool) "set/get" true (Restrict.find table ~cell:"X" ~pin:"Z" = Restrict.Unusable);
  Alcotest.(check bool) "allows honours unusable" false
    (Restrict.allows table ~cell:"X" ~pin:"Z" ~slew:0.1 ~load:0.001)

(* A later [set] replaces a pin's entry, and the cell's summary follows:
   a looser entry must loosen it again. *)
let test_table_replaces () =
  let table = Restrict.empty_table () in
  let w slew_max load_max =
    Restrict.Window { Restrict.slew_min = 0.0; slew_max; load_min = 0.0; load_max }
  in
  Restrict.set table ~cell:"X" ~pin:"Z" Restrict.Unusable;
  Restrict.set table ~cell:"X" ~pin:"Y" (w 0.5 0.05);
  Restrict.set table ~cell:"X" ~pin:"Z" (w 0.2 0.01);
  let s = Restrict.summary table ~cell:"X" in
  Alcotest.(check bool) "find sees the replacement" true
    (Restrict.find table ~cell:"X" ~pin:"Z" = w 0.2 0.01);
  Alcotest.(check bool) "usable again" true s.Restrict.usable;
  Alcotest.(check (float 0.0)) "tightest load" 0.01 s.Restrict.load_max;
  Alcotest.(check (float 0.0)) "tightest slew" 0.2 s.Restrict.slew_max;
  Alcotest.(check bool) "inside both" true (Restrict.summary_allows s ~slew:0.1 ~load:0.005);
  Alcotest.(check bool) "outside Z only" false (Restrict.summary_allows s ~slew:0.3 ~load:0.005);
  Restrict.set table ~cell:"X" ~pin:"Z" Restrict.Unrestricted;
  let s = Restrict.summary table ~cell:"X" in
  Alcotest.(check (float 0.0)) "Y's load alone" 0.05 s.Restrict.load_max;
  Alcotest.(check bool) "Y's window alone" true (Restrict.summary_allows s ~slew:0.3 ~load:0.03);
  Alcotest.(check int) "one entry per pin" 2 (List.length (Restrict.restricted_pins table));
  Alcotest.(check bool) "absent cell" true
    (Restrict.summary table ~cell:"W" = Restrict.unrestricted)

let test_restriction_fraction_bounds () =
  let tuning =
    { Tuning_method.population = Cluster.Per_cell; criterion = Threshold.Sigma_ceiling 0.015 }
  in
  let table = Tuning_method.restrictions tuning statlib in
  let f = Restrict.restriction_fraction table statlib in
  Alcotest.(check bool) "fraction in (0,1)" true (f > 0.0 && f < 1.0);
  (* a huge ceiling removes nothing *)
  let loose = Tuning_method.restrictions (Tuning_method.with_parameter tuning 100.0) statlib in
  check_float "no removal" 0.0 (Restrict.restriction_fraction loose statlib)

let test_ceiling_monotone_removal () =
  let removal c =
    let tuning =
      { Tuning_method.population = Cluster.Per_cell; criterion = Threshold.Sigma_ceiling c }
    in
    Restrict.restriction_fraction (Tuning_method.restrictions tuning statlib) statlib
  in
  Alcotest.(check bool) "tighter ceiling removes more" true
    (removal 0.04 <= removal 0.02 && removal 0.02 <= removal 0.01)

(* ---------------------------- Tuning_method -------------------------- *)

let test_five_methods () =
  let methods = Tuning_method.paper_methods ~bound:0.05 ~ceiling:0.02 in
  Alcotest.(check int) "five" 5 (List.length methods);
  let names = List.map Tuning_method.short_name methods in
  List.iter
    (fun expected ->
      Alcotest.(check bool) expected true (List.mem expected names))
    [ "Cell strength slew"; "Cell strength load"; "Cell slew"; "Cell load"; "Sigma ceiling" ]

let test_with_parameter () =
  let m =
    { Tuning_method.population = Cluster.Per_cell; criterion = Threshold.Load_slope 1.0 }
  in
  check_float "read" 1.0 (Tuning_method.parameter m);
  let m' = Tuning_method.with_parameter m 0.05 in
  check_float "write" 0.05 (Tuning_method.parameter m');
  Alcotest.(check bool) "criterion kind kept" true
    (match m'.Tuning_method.criterion with Threshold.Load_slope _ -> true | _ -> false)

(* to_string/of_string is the single spelling shared by the CLI, store
   keys and report labels — it must round-trip every method exactly,
   including awkward parameters (tiny, huge, negative zero, nan). *)
let method_gen =
  let open QCheck2.Gen in
  let param =
    oneof
      [
        float;
        oneofl [ 0.0; -0.0; 0.02; 1e-300; Float.max_float; nan; infinity; neg_infinity ];
      ]
  in
  let* population = oneofl [ Cluster.Per_cell; Cluster.Per_drive_strength ] in
  let* kind = int_range 0 2 in
  let+ p = param in
  let criterion =
    match kind with
    | 0 -> Threshold.Load_slope p
    | 1 -> Threshold.Slew_slope p
    | _ -> Threshold.Sigma_ceiling p
  in
  { Tuning_method.population; criterion }

let criterion_equal a b =
  match (a, b) with
  | Threshold.Load_slope x, Threshold.Load_slope y
  | Threshold.Slew_slope x, Threshold.Slew_slope y
  | Threshold.Sigma_ceiling x, Threshold.Sigma_ceiling y ->
    Float.compare x y = 0 (* bit-level on nan; -0. = 0. is fine, both parse back *)
  | _ -> false

let test_method_string_roundtrip =
  Helpers.qtest ~count:500 "of_string (to_string m) = Some m" method_gen (fun m ->
      match Tuning_method.of_string (Tuning_method.to_string m) with
      | None -> false
      | Some m' ->
        m'.Tuning_method.population = m.Tuning_method.population
        && criterion_equal m'.Tuning_method.criterion m.Tuning_method.criterion)

let test_method_of_string_forms () =
  let check s expected =
    Alcotest.(check bool) (Printf.sprintf "parse %S" s) true
      (Tuning_method.of_string s = expected)
  in
  check "cell/ceiling=0.02"
    (Some { Tuning_method.population = Cluster.Per_cell;
            criterion = Threshold.Sigma_ceiling 0.02 });
  check "strength/load=0.05"
    (Some { Tuning_method.population = Cluster.Per_drive_strength;
            criterion = Threshold.Load_slope 0.05 });
  (* a missing population defaults to cell *)
  check "slew=0.03"
    (Some { Tuning_method.population = Cluster.Per_cell;
            criterion = Threshold.Slew_slope 0.03 });
  check "cell/bogus=1" None;
  check "tribe/load=1" None;
  check "cell/load=abc" None;
  check "cell/load" None

let test_restrictions_cover_output_pins () =
  let tuning =
    { Tuning_method.population = Cluster.Per_drive_strength;
      criterion = Threshold.Sigma_ceiling 0.02 }
  in
  let table = Tuning_method.restrictions tuning statlib in
  (* every sigma-bearing output pin received an entry *)
  List.iter
    (fun (cell : Cell.t) ->
      List.iter
        (fun (p : Pin.t) ->
          if List.exists Vartune_liberty.Arc.has_sigma p.Pin.arcs then
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s restricted" cell.Cell.name p.Pin.name)
              true
              (Restrict.find table ~cell:cell.Cell.name ~pin:p.Pin.name <> Restrict.Unrestricted))
        (Cell.output_pins cell))
    (Library.cells statlib)

let () =
  Alcotest.run "tuning"
    [
      ( "slope",
        [
          Alcotest.test_case "eq 12/13 manual" `Quick test_slope_manual;
          Alcotest.test_case "max equivalent by index" `Quick test_max_equivalent_by_index;
        ] );
      ( "binary_lut",
        [
          Alcotest.test_case "thresholds" `Quick test_binary_thresholds;
          Alcotest.test_case "logical and" `Quick test_binary_and;
          Alcotest.test_case "all_true_in" `Quick test_all_true_in;
        ] );
      ( "rectangle",
        [
          Alcotest.test_case "known cases" `Quick test_rectangle_known_cases;
          Alcotest.test_case "l shape" `Quick test_rectangle_l_shape;
          Alcotest.test_case "origin preference" `Quick test_rectangle_prefers_origin;
          test_rectangle_naive_vs_optimised;
          test_rectangle_naive_is_maximal;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "per cell" `Quick test_cluster_per_cell;
          Alcotest.test_case "per strength" `Quick test_cluster_per_strength;
          Alcotest.test_case "equivalent lut" `Quick test_cluster_equivalent_lut;
        ] );
      ( "threshold",
        [
          Alcotest.test_case "ceiling passthrough" `Quick test_threshold_ceiling_passthrough;
          Alcotest.test_case "slope extraction" `Quick test_threshold_slope_extraction;
          Alcotest.test_case "no flat region" `Quick test_threshold_no_flat_region;
          Alcotest.test_case "paper defaults" `Quick test_paper_defaults;
        ] );
      ( "restrict",
        [
          Alcotest.test_case "window allows" `Quick test_window_allows;
          Alcotest.test_case "pin window" `Quick test_pin_window_extraction;
          Alcotest.test_case "pin window conservative" `Quick
            test_pin_window_conservative_across_arcs;
          test_slope_nonnegative_on_monotone;
          Alcotest.test_case "table semantics" `Quick test_table_semantics;
          Alcotest.test_case "set replaces" `Quick test_table_replaces;
          Alcotest.test_case "restriction fraction" `Quick test_restriction_fraction_bounds;
          Alcotest.test_case "ceiling monotone" `Quick test_ceiling_monotone_removal;
        ] );
      ( "method",
        [
          Alcotest.test_case "five methods" `Quick test_five_methods;
          Alcotest.test_case "with_parameter" `Quick test_with_parameter;
          test_method_string_roundtrip;
          Alcotest.test_case "of_string forms" `Quick test_method_of_string_forms;
          Alcotest.test_case "covers output pins" `Quick test_restrictions_cover_output_pins;
        ] );
    ]
