module Netlist = Vartune_netlist.Netlist
module Cell = Vartune_liberty.Cell
module Arc = Vartune_liberty.Arc
module Obs = Vartune_obs.Obs

type step = {
  inst : Netlist.inst_id;
  cell : Cell.t;
  out_pin : string;
  arc : Arc.t;
  input_slew : float;
  load : float;
  delay : float;
}

type t = {
  endpoint : Timing.endpoint;
  steps : step list;
  arrival : float;
  required : float;
  slack : float;
}

let extract timing nl (ep : Timing.endpoint_timing) =
  let start_net =
    match ep.endpoint with
    | Timing.Reg_data { inst; pin } -> List.assoc pin (Netlist.instance nl inst).inputs
    | Timing.Primary_output nid -> nid
  in
  (* Walk drivers backwards, collecting steps in capture-to-launch order. *)
  let rec walk nid acc =
    match (Netlist.net nl nid).driver with
    | None -> acc
    | Some { inst = inst_id; pin = out_pin } -> begin
      let inst = Netlist.instance nl inst_id in
      match Timing.critical_arc timing nid with
      | None -> acc (* tie cell or arc-less driver: path starts here *)
      | Some (in_pin, arc, delay) ->
        let sequential = Cell.is_sequential inst.cell in
        let input_slew =
          if sequential then (Timing.config timing).Timing.clock_slew
          else
            match List.assoc_opt in_pin inst.inputs with
            | Some in_net -> Timing.net_slew timing in_net
            | None -> (Timing.config timing).Timing.input_slew
        in
        let load = Timing.net_load timing nid in
        let step = { inst = inst_id; cell = inst.cell; out_pin; arc; input_slew; load; delay } in
        if sequential then step :: acc
        else
          match List.assoc_opt in_pin inst.inputs with
          | Some in_net -> walk in_net (step :: acc)
          | None -> step :: acc
    end
  in
  {
    endpoint = ep.endpoint;
    steps = walk start_net [];
    arrival = ep.arrival;
    required = ep.required;
    slack = ep.slack;
  }

let worst_per_endpoint timing nl =
  let eps = Timing.endpoints timing in
  Obs.span "sta.paths" ~attrs:(fun () -> [ ("paths", string_of_int (List.length eps)) ])
  @@ fun () -> List.map (extract timing nl) eps

let depth t = List.length t.steps
let mean_delay t = List.fold_left (fun acc s -> acc +. s.delay) 0.0 t.steps

let depth_histogram paths =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let d = depth p in
      Hashtbl.replace counts d (1 + Option.value (Hashtbl.find_opt counts d) ~default:0))
    paths;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
