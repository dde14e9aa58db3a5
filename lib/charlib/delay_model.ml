module Spec = Vartune_stdcell.Spec
module Mismatch = Vartune_process.Mismatch

type params = {
  tau : float;
  r_unit : float;
  k_slew : float;
  vt_slew_gain : float;
  t_slew_base : float;
  k_trans : float;
  k_trans_slew : float;
  self_load : float;
}

(* Calibrated so the evaluation design closes timing near the paper's
   2.4 ns high-performance clock with 40-55-cell deep paths: a fan-out-4
   inverter delay of ~35 ps, XOR2 stage of ~55 ps. *)
let default =
  {
    tau = 0.007;
    r_unit = 7.0;
    k_slew = 0.08;
    vt_slew_gain = 3.0;
    t_slew_base = 0.008;
    k_trans = 1.2;
    k_trans_slew = 0.07;
    self_load = 0.4;
  }

type edge = Rise | Fall

(* Power-model constants: 1.1 V supply, energies in fJ, leakage in nW. *)
let supply = 1.1
let c_internal = 0.45 (* fF of internal node capacitance per drive unit *)
let k_short_circuit = 0.8 (* fJ per ns of input slew per drive unit *)
let leak_per_transistor = 0.55 (* nW at drive 1 *)

let drive_resistance p ~drive =
  assert (drive > 0);
  p.r_unit /. float_of_int drive

let edge_factor (spec : Spec.t) = function
  | Rise -> 1.0 +. spec.rise_skew
  | Fall -> 1.0 -. spec.rise_skew

(* The model's two formulas, written once.  Each takes the terms that
   depend only on (cell, output, edge, sample) already evaluated: the
   output factor [out_f], the intrinsic term [intr = tau * p * (1 + di)],
   the drive resistance [res = R0 * (1 + dr)], the slew gain
   [gain = 1 + vt_slew_gain * di] and the parasitic output cap [cap].
   Each product keeps OCaml's left-to-right association of the written-
   out model, so hoisting a term changes no bit. *)
let[@inline] delay_entry p ~corner_factor ~out_f ~intr ~res ~gain ~slew ~load =
  corner_factor *. ((out_f *. (intr +. (res *. load))) +. (p.k_slew *. slew *. gain))

let[@inline] transition_entry p ~scale ~res ~cap ~slew ~load =
  (scale *. (p.t_slew_base +. (p.k_trans *. res *. (load +. cap)))) +. (p.k_trans_slew *. slew)

let[@inline] out_factor (spec : Spec.t) ~output ~edge =
  Spec.output_factor spec output *. edge_factor spec edge

let[@inline] intrinsic_term p (spec : Spec.t) (sample : Mismatch.sample) =
  p.tau *. spec.parasitic *. (1.0 +. sample.d_intrinsic)

let[@inline] resistance_term p ~drive (sample : Mismatch.sample) =
  drive_resistance p ~drive *. (1.0 +. sample.d_resistance)

let[@inline] slew_gain p (sample : Mismatch.sample) = 1.0 +. (p.vt_slew_gain *. sample.d_intrinsic)
let[@inline] parasitic_cap p ~drive = p.self_load *. Spec.c_unit *. float_of_int drive

let delay p spec ~drive ~output ~edge ~corner_factor ~sample ~slew ~load =
  delay_entry p ~corner_factor ~out_f:(out_factor spec ~output ~edge)
    ~intr:(intrinsic_term p spec sample) ~res:(resistance_term p ~drive sample)
    ~gain:(slew_gain p sample) ~slew ~load

let transition p spec ~drive ~output ~edge ~corner_factor ~sample ~slew ~load =
  transition_entry p
    ~scale:(corner_factor *. out_factor spec ~output ~edge)
    ~res:(resistance_term p ~drive sample) ~cap:(parasitic_cap p ~drive) ~slew ~load

(* One edge's delay and transition surfaces, row-major over
   [slews] x [loads], at [dst.(d)] and [dst.(t)]. *)
let fill_edge p spec ~drive ~output ~edge ~corner_factor ~sample ~slews ~loads dst ~d ~t =
  let out_f = out_factor spec ~output ~edge in
  let intr = intrinsic_term p spec sample in
  let res = resistance_term p ~drive sample in
  let gain = slew_gain p sample in
  let scale = corner_factor *. out_f in
  let cap = parasitic_cap p ~drive in
  let cols = Array.length loads in
  for i = 0 to Array.length slews - 1 do
    let slew = Array.unsafe_get slews i in
    let row = i * cols in
    for j = 0 to cols - 1 do
      let load = Array.unsafe_get loads j in
      Array.unsafe_set dst (d + row + j)
        (delay_entry p ~corner_factor ~out_f ~intr ~res ~gain ~slew ~load);
      Array.unsafe_set dst (t + row + j) (transition_entry p ~scale ~res ~cap ~slew ~load)
    done
  done

let fill_arc p spec ~drive ~output ~corner_factor ~sample ~slews ~loads dst pos =
  let size = Array.length slews * Array.length loads in
  if pos < 0 || pos + (4 * size) > Array.length dst then
    invalid_arg "Delay_model.fill_arc: surfaces do not fit the destination";
  fill_edge p spec ~drive ~output ~edge:Rise ~corner_factor ~sample ~slews ~loads dst ~d:pos
    ~t:(pos + (2 * size));
  fill_edge p spec ~drive ~output ~edge:Fall ~corner_factor ~sample ~slews ~loads dst
    ~d:(pos + size) ~t:(pos + (3 * size))

let stage_count (spec : Spec.t) = Vartune_stdcell.Func.inversions spec.func

let internal_energy p (spec : Spec.t) ~drive ~slew ~load =
  ignore load;
  ignore p;
  let d = float_of_int drive in
  let stages = float_of_int (Vartune_stdcell.Func.inversions spec.func) in
  (supply *. supply *. c_internal *. d *. stages *. spec.parasitic /. 2.0)
  +. (k_short_circuit *. slew *. d)

let leakage (spec : Spec.t) ~drive =
  leak_per_transistor *. float_of_int spec.transistors
  *. (0.4 +. (0.6 *. float_of_int drive))

let delay_sigma p (spec : Spec.t) ~mismatch ~drive ~output ~edge ~corner_factor ~slew ~load =
  let r0 = drive_resistance p ~drive in
  let intrinsic = p.tau *. spec.parasitic in
  let out_f = out_factor spec ~output ~edge in
  let stages = stage_count spec in
  let sigma_i = Mismatch.intrinsic_sigma mismatch ~stages ~drive () in
  let sigma_r = Mismatch.resistance_sigma mismatch ~stages ~drive () in
  let d_di = (out_f *. intrinsic) +. (p.vt_slew_gain *. p.k_slew *. slew) in
  let d_dr = out_f *. r0 *. load in
  corner_factor *. sqrt (((d_di *. sigma_i) ** 2.0) +. ((d_dr *. sigma_r) ** 2.0))
