(* Bitwise tests for the flat numeric kernels: golden digests of the
   statistical library at several pool sizes, the fused bilinear LUT
   kernels against plain lookups and an independent naive evaluator,
   and flat-layout codec round-trips.  Everything here checks exact
   IEEE-754 bit patterns — the kernels' contract is bit-identity, not
   closeness. *)

module Kernel = Vartune_util.Kernel
module Grid = Vartune_util.Grid
module Pool = Vartune_util.Pool
module Lut = Vartune_liberty.Lut
module Arc = Vartune_liberty.Arc
module Cell = Vartune_liberty.Cell
module Library = Vartune_liberty.Library
module Statistical = Vartune_statlib.Statistical
module Sampler = Vartune_charlib.Sampler
module Characterize = Vartune_charlib.Characterize
module Catalog = Vartune_stdcell.Catalog
module Mismatch = Vartune_process.Mismatch
module Codec = Vartune_store.Codec

let beq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Golden digests of the statistical library                           *)
(* ------------------------------------------------------------------ *)

let inv_only = List.filter_map Catalog.find [ "INV" ]

let sample ~seed index =
  Sampler.sample_library Characterize.default_config ~mismatch:Mismatch.default ~seed ~index
    ~specs:inv_only ()

let with_jobs jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* The merge's bits, pinned.  They equal the bits of the boxed
   per-entry accumulator the flat kernels replaced; any change to the
   update or merge arithmetic, the [merge_chunk] block partition or the
   left-to-right fold order moves them.  n = 1 is the single-sample
   case (sigma all zero); 5 and 9 end in a ragged block.  The samples
   come from the characteriser, so the digests also move if
   characterisation does; the formula itself is checked separately
   against two-pass statistics in test_statlib.ml. *)
let golden_seed = 77

let golden_inv =
  [
    (1, "27c3b7cfb927b945b1340841e4587931");
    (5, "46f2c6a83bb38fdf3ac66097de7c57c2");
    (9, "3a042e4afab039c4a2c1a805b2ea814f");
  ]

(* The full catalog at N = 16, seed 42. *)
let golden_catalog = "51dfda0789dc1b2c4ddc4915a0007b88"

let check_of_stream ~label ~n gen expected =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "%s of_stream n=%d jobs=%d" label n jobs)
            expected
            (Helpers.library_digest (Statistical.of_stream ~pool ~n gen))))
    [ 1; 2; 7 ]

(* [of_libraries] runs on the default pool: check it at each size. *)
let check_of_libraries ~label libs expected =
  let default_jobs = Pool.jobs (Pool.default ()) in
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs default_jobs) @@ fun () ->
  List.iter
    (fun jobs ->
      Pool.set_default_jobs jobs;
      Alcotest.(check string)
        (Printf.sprintf "%s of_libraries n=%d jobs=%d" label (List.length libs) jobs)
        expected
        (Helpers.library_digest (Statistical.of_libraries libs)))
    [ 1; 2; 7 ]

let test_golden_inv n () =
  check_of_stream ~label:"INV" ~n (sample ~seed:golden_seed) (List.assoc n golden_inv)

let test_of_libraries_golden () =
  List.iter
    (fun (n, expected) ->
      check_of_libraries ~label:"INV" (List.init n (sample ~seed:golden_seed)) expected)
    golden_inv

let test_golden_catalog () =
  let n = 16 in
  let libs =
    Array.init n (fun index ->
        Sampler.sample_library Characterize.default_config ~mismatch:Mismatch.default ~seed:42
          ~index ())
  in
  check_of_stream ~label:"catalog" ~n (Array.get libs) golden_catalog;
  check_of_libraries ~label:"catalog" (Array.to_list libs) golden_catalog

(* ------------------------------------------------------------------ *)
(* Bilinear kernel vs an independent naive evaluator                   *)
(* ------------------------------------------------------------------ *)

(* Strictly increasing axis of the given length, offset so queries in
   [-0.5, 6.0] hit both in-range and extrapolating cases. *)
let axis_gen =
  QCheck2.Gen.(
    int_range 1 4 >>= fun n ->
    array_size (return n) (float_range 0.05 1.0) >|= fun incs ->
    let acc = ref 0.3 in
    Array.map
      (fun d ->
        let v = !acc in
        acc := !acc +. d;
        v)
      incs)

let lut_gen =
  QCheck2.Gen.(
    pair axis_gen axis_gen >>= fun (slews, loads) ->
    array_size
      (return (Array.length slews * Array.length loads))
      (float_range (-5.0) 5.0)
    >|= fun data ->
    Lut.make ~slews ~loads
      ~values:(Grid.of_flat ~rows:(Array.length slews) ~cols:(Array.length loads) data))

let query_gen = QCheck2.Gen.float_range (-0.5) 6.0

(* Straight-line reference: linear-scan segment search and the paper's
   load-then-slew interpolation written with bounds-checked Lut.get —
   independent of the kernel's flat indexing and binary search, but the
   same float-op sequence, so agreement must be exact. *)
let naive_lookup lut ~slew ~load =
  let seg axis v =
    let n = Array.length axis in
    let k = ref 0 in
    while !k < n - 2 && axis.(!k + 1) <= v do
      incr k
    done;
    !k
  in
  let xs = Lut.slews lut and ys = Lut.loads lut in
  let n_x = Array.length xs and n_y = Array.length ys in
  let i = seg xs slew and j = seg ys load in
  if n_x = 1 && n_y = 1 then Lut.get lut 0 0
  else if n_x = 1 then begin
    let wy = (load -. ys.(j)) /. (ys.(j + 1) -. ys.(j)) in
    ((1.0 -. wy) *. Lut.get lut 0 j) +. (wy *. Lut.get lut 0 (j + 1))
  end
  else if n_y = 1 then begin
    let wx = (slew -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
    ((1.0 -. wx) *. Lut.get lut i 0) +. (wx *. Lut.get lut (i + 1) 0)
  end
  else begin
    let wy = (load -. ys.(j)) /. (ys.(j + 1) -. ys.(j)) in
    let p1 = ((1.0 -. wy) *. Lut.get lut i j) +. (wy *. Lut.get lut i (j + 1)) in
    let p2 = ((1.0 -. wy) *. Lut.get lut (i + 1) j) +. (wy *. Lut.get lut (i + 1) (j + 1)) in
    let wx = (slew -. xs.(i)) /. (xs.(i + 1) -. xs.(i)) in
    ((1.0 -. wx) *. p1) +. (wx *. p2)
  end

let test_lookup_matches_naive =
  Helpers.qtest ~count:300 "kernel lookup bit-matches naive reference"
    QCheck2.Gen.(triple lut_gen query_gen query_gen)
    (fun (lut, slew, load) ->
      beq (Lut.lookup lut ~slew ~load) (naive_lookup lut ~slew ~load))

let test_fused_match_plain =
  (* the fused rise/fall and 4-table entry points must equal
     independent plain lookups bit-for-bit, on shared random axes —
     degenerate 1xN / Nx1 shapes and extrapolating queries included *)
  Helpers.qtest ~count:300 "fused lookups bit-match plain lookups"
    QCheck2.Gen.(
      pair lut_gen (pair query_gen query_gen) >>= fun (a, (slew, load)) ->
      let rows, cols = Lut.dims a in
      array_size (return (3 * rows * cols)) (float_range (-5.0) 5.0) >|= fun rest ->
      let table k =
        Lut.make ~slews:(Lut.slews a) ~loads:(Lut.loads a)
          ~values:
            (Grid.of_flat ~rows ~cols (Array.sub rest (k * rows * cols) (rows * cols)))
      in
      (a, table 0, table 1, table 2, slew, load))
    (fun (a, b, c, d, slew, load) ->
      let la = Lut.lookup a ~slew ~load
      and lb = Lut.lookup b ~slew ~load
      and lc = Lut.lookup c ~slew ~load
      and ld = Lut.lookup d ~slew ~load in
      let out = Array.make 4 nan in
      Lut.lookup4_into a b c d ~slew ~load ~out;
      beq (Lut.lookup_max2 a b ~slew ~load) (Float.max la lb)
      && beq (Lut.lookup_min2 a b ~slew ~load) (Float.min la lb)
      && beq out.(0) la && beq out.(1) lb && beq out.(2) lc && beq out.(3) ld)

let test_arc_eval_into_matches_scalar =
  Helpers.qtest ~count:100 "Arc.eval_into bit-matches scalar delay/min_delay/transition"
    QCheck2.Gen.(triple (int_range 0 10_000) query_gen query_gen)
    (fun (seed, slew, load) ->
      let lib = sample ~seed 0 in
      List.for_all
        (fun cell ->
          List.for_all
            (fun (arc : Arc.t) ->
              let out = Array.make 4 nan in
              Arc.eval_into arc ~slew ~load ~out;
              beq out.(0) (Arc.delay arc ~slew ~load)
              && beq out.(1) (Arc.min_delay arc ~slew ~load)
              && beq out.(2) (Arc.transition arc ~slew ~load))
            (Cell.arcs cell))
        (Library.cells lib))

(* ------------------------------------------------------------------ *)
(* Flat layouts through the store codec                                *)
(* ------------------------------------------------------------------ *)

let test_flat_library_codec_roundtrip () =
  (* a flat-built statistical library (Grid.of_flat surfaces, sigma
     tables from sigma_into) survives the store codec bit-for-bit *)
  let lib = Statistical.of_stream ~n:6 (sample ~seed:11) in
  let encode lib =
    let b = Buffer.create 4096 in
    Codec.w_library b lib;
    Buffer.contents b
  in
  let bytes = encode lib in
  let back = Codec.r_library (Codec.reader bytes) in
  Alcotest.(check string) "every entry's bits survive" (Helpers.library_digest lib)
    (Helpers.library_digest back);
  Alcotest.(check bool) "names, axes and tables re-encode to the same bytes" true
    (String.equal bytes (encode back))

let test_float_codec_special_values () =
  (* the flat grid codec inherits w_float/r_float bit-exactness; pin it
     for the values bilinear weights can produce *)
  List.iter
    (fun f ->
      let b = Buffer.create 16 in
      Codec.w_float b f;
      let back = Codec.r_float (Codec.reader (Buffer.contents b)) in
      Alcotest.(check bool)
        (Printf.sprintf "bits of %h preserved" f)
        true
        (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float back)))
    [ 0.0; -0.0; nan; infinity; neg_infinity; 4.9e-324; 1.0 /. 3.0 ]

let test_grid_of_flat () =
  let data = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  let g = Grid.of_flat ~rows:2 ~cols:3 data in
  Helpers.check_float "row-major (0,2)" 3.0 (Grid.get g 0 2);
  Helpers.check_float "row-major (1,0)" 4.0 (Grid.get g 1 0);
  Alcotest.(check bool) "unsafe_data is the backing array" true (Grid.unsafe_data g == data);
  Alcotest.(check bool) "length mismatch rejected" true
    (try
       ignore (Grid.of_flat ~rows:2 ~cols:2 data);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "kernel"
    [
      ( "welford",
        [
          Alcotest.test_case "golden digest INV n=1 jobs 1/2/7" `Quick (test_golden_inv 1);
          Alcotest.test_case "golden digest INV n=5 jobs 1/2/7" `Quick (test_golden_inv 5);
          Alcotest.test_case "golden digest INV n=9 jobs 1/2/7" `Quick (test_golden_inv 9);
          Alcotest.test_case "of_libraries agrees" `Quick test_of_libraries_golden;
          Alcotest.test_case "golden digest catalog N=16" `Quick test_golden_catalog;
        ] );
      ( "bilinear",
        [
          test_lookup_matches_naive;
          test_fused_match_plain;
          test_arc_eval_into_matches_scalar;
        ] );
      ( "codec",
        [
          Alcotest.test_case "flat library round-trip" `Quick
            test_flat_library_codec_roundtrip;
          Alcotest.test_case "float special values" `Quick test_float_codec_special_values;
          Alcotest.test_case "Grid.of_flat" `Quick test_grid_of_flat;
        ] );
    ]
