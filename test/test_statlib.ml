(* Tests for Vartune_statlib: the entry-wise statistical merge of
   Section IV / Fig 2. *)

module Statistical = Vartune_statlib.Statistical
module Characterize = Vartune_charlib.Characterize
module Sampler = Vartune_charlib.Sampler
module Delay_model = Vartune_charlib.Delay_model
module Catalog = Vartune_stdcell.Catalog
module Corner = Vartune_process.Corner
module Mismatch = Vartune_process.Mismatch
module Library = Vartune_liberty.Library
module Cell = Vartune_liberty.Cell
module Arc = Vartune_liberty.Arc
module Lut = Vartune_liberty.Lut
module Stat = Vartune_util.Stat

let config = Characterize.default_config
let mismatch = Mismatch.default
let inv_only = List.filter_map Catalog.find [ "INV" ]

let sample index =
  Sampler.sample_library config ~mismatch ~seed:21 ~index ~specs:inv_only ()

let first_arc lib name = List.hd (Cell.arcs (Library.find lib name))

(* The formula oracle.  Every entry of the four mean tables and the two
   delay-sigma tables must equal the direct two-pass sample statistics
   ([Stat.mean], [Stat.stddev]: sum / n, then squared deviations over
   n - 1) of that entry across the N sample libraries, which share no
   code with Kernel.Welford.  Bound: |merged - direct| <= 1e-12 *
   max_i |x_i|, relative to the scale of the entry's samples, because a
   mean near zero of larger samples cancels and is ill-conditioned
   relative to itself.  The two schemes round differently by a few
   2^-52 of that scale (under 1e-15 over 300 random seeds); a wrong
   formula (a divisor of n instead of n - 1 moves sigma by 5% at n = 9)
   misses by orders of magnitude.  Each seed checks [of_stream] at
   jobs 1/2/7 and [of_libraries], at n = 1 (sigma exactly zero) and at
   n = 5 and 9, which end in a ragged block.  3 seeds in tier-1, 300
   under QCHECK_LONG. *)
let oracle_rel = 1e-12

let check_oracle ~label ~libs merged =
  let per_sample = List.map (fun lib -> Array.of_list (Library.cells lib)) libs in
  List.iteri
    (fun ci (cell : Cell.t) ->
      let sample_arcs = List.map (fun cells -> Array.of_list (Cell.arcs cells.(ci))) per_sample in
      List.iteri
        (fun ai (arc : Arc.t) ->
          List.iter
            (fun (name, table, sigma) ->
              let mean_lut = table arc in
              let rows, cols = Lut.dims mean_lut in
              for i = 0 to rows - 1 do
                for j = 0 to cols - 1 do
                  let xs =
                    Array.of_list (List.map (fun arcs -> Lut.get (table arcs.(ai)) i j) sample_arcs)
                  in
                  let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 xs in
                  let check what direct got =
                    if not (Float.abs (got -. direct) <= oracle_rel *. scale) then
                      QCheck2.Test.fail_reportf
                        "%s, n=%d: %s arc %d %s (%d,%d) %s: merged %h, direct %h" label
                        (List.length libs) cell.Cell.name ai name i j what got direct
                  in
                  check "mean" (Stat.mean xs) (Lut.get mean_lut i j);
                  Option.iter
                    (fun sigma_lut -> check "sigma" (Stat.stddev xs) (Lut.get sigma_lut i j))
                    (sigma arc)
                done
              done)
            Arc.
              [
                ("rise_delay", (fun a -> a.rise_delay), fun a -> a.rise_delay_sigma);
                ("fall_delay", (fun a -> a.fall_delay), fun a -> a.fall_delay_sigma);
                ("rise_transition", (fun a -> a.rise_transition), fun _ -> None);
                ("fall_transition", (fun a -> a.fall_transition), fun _ -> None);
              ])
        (Cell.arcs cell))
    (Library.cells merged)

let test_merge_matches_manual =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3 ~long_factor:100 ~print:(Printf.sprintf "seed %d")
       ~name:"matches manual stats" (QCheck2.Gen.int_range 0 10_000) (fun seed ->
         let gen index =
           Sampler.sample_library config ~mismatch ~seed ~index ~specs:inv_only ()
         in
         List.iter
           (fun n ->
             let libs = List.init n gen in
             check_oracle ~label:"of_libraries" ~libs (Statistical.of_libraries libs);
             List.iter
               (fun jobs ->
                 let pool = Vartune_util.Pool.create ~jobs () in
                 Fun.protect
                   ~finally:(fun () -> Vartune_util.Pool.shutdown pool)
                   (fun () ->
                     check_oracle ~label:(Printf.sprintf "of_stream jobs=%d" jobs) ~libs
                       (Statistical.of_stream ~pool ~n gen)))
               [ 1; 2; 7 ])
           [ 1; 5; 9 ];
         true))

let test_stream_equals_list () =
  let n = 6 in
  let by_list = Statistical.of_libraries (List.init n sample) in
  let by_stream = Statistical.of_stream ~n sample in
  List.iter2
    (fun (a : Cell.t) (b : Cell.t) ->
      List.iter2
        (fun (x : Arc.t) (y : Arc.t) ->
          Alcotest.(check bool) "mean tables" true
            (Lut.equal ~eps:1e-12 x.Arc.rise_delay y.Arc.rise_delay);
          Alcotest.(check bool) "sigma tables" true
            (Lut.equal ~eps:1e-12
               (Option.get x.Arc.rise_delay_sigma)
               (Option.get y.Arc.rise_delay_sigma)))
        (Cell.arcs a) (Cell.arcs b))
    (Library.cells by_list) (Library.cells by_stream)

let test_is_statistical () =
  let merged = Statistical.of_stream ~n:3 sample in
  Alcotest.(check bool) "statistical" true (Statistical.is_statistical merged);
  let nominal = Characterize.library config inv_only in
  Alcotest.(check bool) "nominal is not" false (Statistical.is_statistical nominal)

let test_merge_rejects_empty_and_mismatch () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Statistical.of_libraries []);
       false
     with Invalid_argument _ -> true);
  let a = sample 0 in
  let other =
    Characterize.library config (List.filter_map Catalog.find [ "ND2" ])
  in
  Alcotest.(check bool) "structure mismatch rejected" true
    (try
       ignore (Statistical.of_libraries [ a; other ]);
       false
     with Invalid_argument _ -> true)

let test_sigma_close_to_analytic () =
  (* the merged sigma approximates the closed-form model sigma; with
     N = 40 the sampling error of a stddev is ~11%, test at 4 sigma *)
  let n = 40 in
  let merged = Statistical.build config ~mismatch ~seed:3 ~n ~specs:inv_only () in
  let spec = Option.get (Catalog.find "INV") in
  let arc = first_arc merged "INV_4" in
  let sigma_lut = Option.get arc.Arc.rise_delay_sigma in
  let slews = Lut.slews sigma_lut and loads = Lut.loads sigma_lut in
  let total_err = ref 0.0 and count = ref 0 in
  Array.iteri
    (fun i slew ->
      Array.iteri
        (fun j load ->
          let analytic =
            Delay_model.delay_sigma config.Characterize.params spec ~mismatch ~drive:4
              ~output:"Z" ~edge:Delay_model.Rise
              ~corner_factor:(Corner.delay_factor Corner.typical)
              ~slew ~load
          in
          total_err := !total_err +. Float.abs ((Lut.get sigma_lut i j /. analytic) -. 1.0);
          incr count)
        loads)
    slews;
  let mean_err = !total_err /. float_of_int !count in
  Alcotest.(check bool)
    (Printf.sprintf "mean relative error %.3f < 0.4" mean_err)
    true (mean_err < 0.4)

let test_mean_close_to_nominal () =
  (* a mean of 40 draws lands within ~3 standard errors of nominal; the
     relative sigma at the small-load LUT corners is a few percent, so
     allow 10% *)
  let merged = Statistical.build config ~mismatch ~seed:3 ~n:40 ~specs:inv_only () in
  let nominal = Characterize.library config inv_only in
  let m = (first_arc merged "INV_4").Arc.rise_delay in
  let o = (first_arc nominal "INV_4").Arc.rise_delay in
  for i = 0 to 7 do
    for j = 0 to 7 do
      let rel = Float.abs ((Lut.get m i j /. Lut.get o i j) -. 1.0) in
      Alcotest.(check bool) "mean within 10%" true (rel < 0.10)
    done
  done

let test_build_jobs_invariant =
  (* the tentpole determinism guarantee: every mean and sigma LUT entry
     of the parallel build is bit-for-bit the serial build's, for any
     job count, seed and N *)
  Helpers.qtest ~count:5 "build identical for jobs 1/2/7"
    QCheck2.Gen.(pair (int_range 0 10_000) (oneofl [ 3; 13; 50 ]))
    (fun (seed, n) ->
      let build pool =
        Statistical.build ~pool config ~mismatch ~seed ~n ~specs:inv_only ()
      in
      let with_jobs jobs f =
        let pool = Vartune_util.Pool.create ~jobs () in
        Fun.protect ~finally:(fun () -> Vartune_util.Pool.shutdown pool) (fun () -> f pool)
      in
      let serial = with_jobs 1 build in
      List.for_all
        (fun jobs -> Helpers.library_digest serial = Helpers.library_digest (with_jobs jobs build))
        [ 2; 7 ])

let test_metadata_preserved () =
  let merged = Statistical.of_stream ~n:3 sample in
  let cell = Library.find merged "INV_8" in
  Alcotest.(check int) "drive" 8 cell.Cell.drive_strength;
  Alcotest.(check string) "family" "INV" cell.Cell.family;
  let nominal_cell = Library.find (Characterize.library config inv_only) "INV_8" in
  Helpers.check_float "area preserved" nominal_cell.Cell.area cell.Cell.area

let () =
  Alcotest.run "statlib"
    [
      ( "merge",
        [
          test_merge_matches_manual;
          Alcotest.test_case "stream equals list" `Quick test_stream_equals_list;
          Alcotest.test_case "is_statistical" `Quick test_is_statistical;
          Alcotest.test_case "rejects bad input" `Quick test_merge_rejects_empty_and_mismatch;
          Alcotest.test_case "sigma near analytic" `Slow test_sigma_close_to_analytic;
          Alcotest.test_case "mean near nominal" `Slow test_mean_close_to_nominal;
          Alcotest.test_case "metadata preserved" `Quick test_metadata_preserved;
          test_build_jobs_invariant;
        ] );
    ]
