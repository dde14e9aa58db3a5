(* Numeric-kernel benchmark: flat kernels vs the frozen boxed reference.

   The statistical-library Welford merge over pre-generated sample
   libraries is run through both the live flat path and
   [Vartune_statlib.Boxed_ref], asserted bit-identical, and the speedup
   plus allocation words/sample recorded together with bilinear
   LUT-lookup throughput in BENCH_kernels.json.

   The run fails (exit 1) if the flat merge is less than 1.2x faster
   than the boxed reference or stops allocating less per sample.  Both
   paths run on the same core in the same process, so the ratio is
   meaningful on any host.  The workload is fixed at 16 samples, seed
   42 — the shape the committed bench/baseline/BENCH_kernels.json was
   recorded with.

   The paper's tables and figures come from `vartune figures`; the
   end-to-end benchmark is perfbench/. *)

module Characterize = Vartune_charlib.Characterize
module Statistical = Vartune_statlib.Statistical
module Sampler = Vartune_charlib.Sampler
module Mismatch = Vartune_process.Mismatch
module Library = Vartune_liberty.Library
module Cell = Vartune_liberty.Cell
module Arc = Vartune_liberty.Arc
module Lut = Vartune_liberty.Lut
module Pool = Vartune_util.Pool
module Json = Vartune_obs.Json

let src = Logs.Src.create "vartune.bench" ~doc:"benchmark harness"

module Log = (val Logs.src_log src : Logs.LOG)

let samples = 16
let seed = 42
let speedup_floor = 1.2

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let luts_identical a b =
  Lut.equal ~eps:0.0 a b && Lut.slews a = Lut.slews b && Lut.loads a = Lut.loads b

let libraries_identical a b =
  List.for_all2
    (fun (x : Cell.t) (y : Cell.t) ->
      List.for_all2
        (fun (p : Arc.t) (q : Arc.t) ->
          luts_identical p.Arc.rise_delay q.Arc.rise_delay
          && luts_identical p.Arc.fall_delay q.Arc.fall_delay
          && luts_identical p.Arc.rise_transition q.Arc.rise_transition
          && luts_identical p.Arc.fall_transition q.Arc.fall_transition
          && luts_identical
               (Option.get p.Arc.rise_delay_sigma)
               (Option.get q.Arc.rise_delay_sigma)
          && luts_identical
               (Option.get p.Arc.fall_delay_sigma)
               (Option.get q.Arc.fall_delay_sigma))
        (Cell.arcs x) (Cell.arcs y))
    (Library.cells a) (Library.cells b)

(* The statistical merge over pre-generated sample libraries — so the
   characterisation cost is out of the loop and the measurement is the
   entry-wise Welford kernel itself.  The two merge paths must agree
   bit-for-bit before any number is reported: the speedup is only
   meaningful between equal outputs.  Best-of-3 wall clock (the workload
   is deterministic, so variance is scheduler noise); allocation from
   the first rep, identical every rep because the work is identical. *)
let merge_comparison () =
  let pool = Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let libs =
    Array.init samples (fun index ->
        Sampler.sample_library Characterize.default_config ~mismatch:Mismatch.default ~seed
          ~index ())
  in
  let gen i = libs.(i) in
  let measure run =
    let mw0 = Gc.minor_words () in
    let r, t0 = time run in
    let alloc = (Gc.minor_words () -. mw0) /. float_of_int samples in
    let best = ref t0 in
    for _ = 2 to 3 do
      let _, t = time run in
      if t < !best then best := t
    done;
    (r, !best, alloc)
  in
  let flat_lib, flat_s, flat_alloc =
    measure (fun () -> Statistical.of_stream ~pool ~n:samples gen)
  in
  let boxed_lib, boxed_s, boxed_alloc =
    measure (fun () -> Vartune_statlib.Boxed_ref.of_stream ~pool ~n:samples gen)
  in
  if not (libraries_identical flat_lib boxed_lib) then
    failwith "kernel benchmark: flat merge diverged from the boxed reference";
  (flat_s, flat_alloc, boxed_s, boxed_alloc)

(* Bilinear lookup throughput on a production 8x8 delay surface; the
   1.3 range factor pushes ~a quarter of the points past the last axis
   breakpoint, so extrapolation stays on the measured path. *)
let lookup_throughput ~iters =
  let lut =
    let inv = Library.find (Characterize.nominal Characterize.default_config) "INV_4" in
    (List.hd (Cell.arcs inv)).Arc.rise_delay
  in
  let slews = Lut.slews lut and loads = Lut.loads lut in
  let smin = slews.(0) and smax = slews.(Array.length slews - 1) in
  let lmin = loads.(0) and lmax = loads.(Array.length loads - 1) in
  let sink = ref 0.0 in
  let _, lut_s =
    time (fun () ->
        for i = 0 to iters - 1 do
          let fi = float_of_int i in
          let s = smin +. (Float.rem (fi *. 0.618) 1.3 *. (smax -. smin)) in
          let l = lmin +. (Float.rem (fi *. 0.382) 1.3 *. (lmax -. lmin)) in
          sink := !sink +. Lut.lookup lut ~slew:s ~load:l
        done)
  in
  (lut_s, !sink)

let write_json path json =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc (Json.to_string json);
  output_char oc '\n'

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Info);
  Printf.printf "Numeric kernels (flat vs boxed reference), N=%d samples, seed %d\n%!" samples
    seed;
  let flat_s, flat_alloc, boxed_s, boxed_alloc = merge_comparison () in
  let speedup = if flat_s > 0.0 then boxed_s /. flat_s else 0.0 in
  let throughput = if flat_s > 0.0 then float_of_int samples /. flat_s else 0.0 in
  let alloc_ratio = if boxed_alloc > 0.0 then flat_alloc /. boxed_alloc else 0.0 in
  Printf.printf "  %-24s flat %7.3f s   boxed %7.3f s   speedup %.2fx\n%!" "statlib merge"
    flat_s boxed_s speedup;
  Printf.printf "  %-24s flat %10.0f   boxed %10.0f   ratio %.3f\n%!" "alloc words/sample"
    flat_alloc boxed_alloc alloc_ratio;
  let iters = 2_000_000 in
  let lut_s, sink = lookup_throughput ~iters in
  let ns_per_lookup = lut_s *. 1e9 /. float_of_int iters in
  Printf.printf "  %-24s %d lookups in %.3f s   %.1f ns/lookup (sink %.3f)\n%!" "lut bilinear"
    iters lut_s ns_per_lookup sink;
  let num x = Json.Number x and int n = Json.Number (float_of_int n) in
  let path_json seconds alloc =
    Json.Object [ ("seconds", num seconds); ("alloc_words_per_sample", num (Float.round alloc)) ]
  in
  write_json "BENCH_kernels.json"
    (Json.Object
       [
         ("samples", int samples);
         ("seed", int seed);
         ("jobs", int 1);
         ( "statlib",
           Json.Object
             [
               ("flat", path_json flat_s flat_alloc);
               ("boxed", path_json boxed_s boxed_alloc);
               ("speedup", num speedup);
               ("throughput_per_sec", num throughput);
               ("alloc_ratio", num alloc_ratio);
             ] );
         ( "lut_lookup",
           Json.Object
             [ ("iters", int iters); ("seconds", num lut_s); ("ns_per_lookup", num ns_per_lookup) ]
         );
         ("ocaml_version", Json.String Sys.ocaml_version);
       ]);
  Log.app (fun m -> m "wrote BENCH_kernels.json");
  if speedup < speedup_floor then begin
    Log.err (fun m ->
        m "bench gate: flat/boxed merge speedup %.2fx is below the %.1fx floor" speedup
          speedup_floor);
    exit 1
  end
  else if alloc_ratio >= 1.0 then begin
    Log.err (fun m ->
        m "bench gate: flat path allocates %.2fx the boxed reference per sample" alloc_ratio);
    exit 1
  end
  else
    Log.app (fun m ->
        m "bench gate passed: kernel speedup %.2fx, alloc ratio %.3f" speedup alloc_ratio)
