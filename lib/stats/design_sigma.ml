module Path = Vartune_sta.Path
module Timing = Vartune_sta.Timing
module Netlist = Vartune_netlist.Netlist
module Cell = Vartune_liberty.Cell
module Arc = Vartune_liberty.Arc
module Obs = Vartune_obs.Obs

type t = { dist : Dist.t; paths : int; worst_path_3sigma : float }

let c_paths = Obs.Counter.make "sta.paths_convolved"

let of_dists dists = Dist.sum_independent dists

let of_paths paths =
  Obs.span "sta.design_sigma"
    ~attrs:(fun () -> [ ("paths", string_of_int (List.length paths)) ])
  @@ fun () ->
  Obs.Counter.add c_paths (List.length paths);
  let dists = List.map Convolve.of_path paths in
  let worst =
    List.fold_left (fun acc d -> Float.max acc (Dist.quantile_3sigma d)) neg_infinity dists
  in
  { dist = of_dists dists; paths = List.length paths; worst_path_3sigma = worst }

(* One endpoint's critical chain, walked capture to launch exactly as
   [Path.extract] walks it, into [delays]/[sigmas] from index 0; returns
   the step count.  The scratch pair grows by doubling. *)
type scratch = { mutable delays : float array; mutable sigmas : float array }

let push sc k delay sigma =
  if k = Array.length sc.delays then begin
    let grow a = Array.append a (Array.make (Array.length a) 0.0) in
    sc.delays <- grow sc.delays;
    sc.sigmas <- grow sc.sigmas
  end;
  sc.delays.(k) <- delay;
  sc.sigmas.(k) <- sigma

let chain sc timing nl (ep : Timing.endpoint_timing) =
  let cfg = Timing.config timing in
  let rec walk nid k =
    match (Netlist.net nl nid).Netlist.driver with
    | None -> k
    | Some { Netlist.inst; _ } -> (
      match Timing.critical_arc timing nid with
      | None -> k
      | Some (in_pin, arc, delay) ->
        let inst = Netlist.instance nl inst in
        let sequential = Cell.is_sequential inst.Netlist.cell in
        let in_net = if sequential then None else List.assoc_opt in_pin inst.Netlist.inputs in
        let slew =
          if sequential then cfg.Timing.clock_slew
          else
            match in_net with
            | Some n -> Timing.net_slew timing n
            | None -> cfg.Timing.input_slew
        in
        push sc k delay (Arc.sigma arc ~slew ~load:(Timing.net_load timing nid));
        match in_net with Some n -> walk n (k + 1) | None -> k + 1)
  in
  match ep.endpoint with
  | Timing.Reg_data { inst; pin } ->
    walk (List.assoc pin (Netlist.instance nl inst).Netlist.inputs) 0
  | Timing.Primary_output nid -> walk nid 0

(* [of_paths (Path.worst_per_endpoint timing nl)] without the path
   list: each chain folds launch to capture, the order [Convolve.of_path]
   sums a path's steps in, and the path sigma is squared again for the
   design sum, as [Dist.sum_independent] does. *)
let measure timing nl =
  let eps = Timing.endpoints timing in
  let n = List.length eps in
  Obs.span "sta.design_sigma" ~attrs:(fun () -> [ ("paths", string_of_int n) ]) @@ fun () ->
  Obs.Counter.add c_paths n;
  let sc = { delays = Array.make 64 0.0; sigmas = Array.make 64 0.0 } in
  (* design mean, design variance, worst path mean + 3 sigma *)
  let acc = [| 0.0; 0.0; neg_infinity |] in
  List.iter
    (fun ep ->
      let k = chain sc timing nl ep in
      let mean = ref 0.0 and var = ref 0.0 in
      for i = k - 1 downto 0 do
        let s = sc.sigmas.(i) in
        mean := !mean +. sc.delays.(i);
        var := !var +. (s *. s)
      done;
      let sigma = sqrt !var in
      acc.(0) <- acc.(0) +. !mean;
      acc.(1) <- acc.(1) +. (sigma *. sigma);
      acc.(2) <- Float.max acc.(2) (!mean +. (3.0 *. sigma)))
    eps;
  { dist = { Dist.mean = acc.(0); sigma = sqrt acc.(1) }; paths = n; worst_path_3sigma = acc.(2) }
