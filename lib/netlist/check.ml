module Cell = Vartune_liberty.Cell
module Pin = Vartune_liberty.Pin

exception Combinational_loop of string

let validate nl =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let pi_set = Hashtbl.create 16 in
  List.iter (fun nid -> Hashtbl.replace pi_set nid ()) (Netlist.primary_inputs nl);
  Option.iter (fun c -> Hashtbl.replace pi_set c ()) (Netlist.clock nl);
  Netlist.iter_nets nl ~f:(fun n ->
      if n.Netlist.sinks <> [] && n.driver = None && not (Hashtbl.mem pi_set n.net_id) then
        err "net %s has sinks but no driver" n.net_name);
  Netlist.iter_instances nl ~f:(fun inst ->
      let cell = inst.Netlist.cell in
      List.iter
        (fun (p : Pin.t) ->
          let connected =
            if Pin.is_input p then List.mem_assoc p.name inst.inputs
            else List.mem_assoc p.name inst.outputs
          in
          if not connected then
            err "instance %s: pin %s of %s unconnected" inst.inst_name p.name cell.Cell.name)
        cell.pins;
      match (Cell.is_sequential cell, cell.clock_pin, Netlist.clock nl) with
      | true, Some ck, Some clock_net ->
        if List.assoc_opt ck inst.inputs <> Some clock_net then
          err "instance %s: clock pin %s not on the clock net" inst.inst_name ck
      | true, Some _, None -> err "design has sequential cells but no clock net"
      | true, None, _ -> err "sequential cell %s lacks a clock pin" cell.Cell.name
      | false, _, _ -> ());
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let validate_exn nl =
  match validate nl with
  | Ok () -> ()
  | Error es -> failwith (String.concat "\n" es)

(* Kahn's algorithm.  Edges run from a net's driver to its combinational
   sinks; sequential sinks take data without constraining order.  The
   queue is one array: every instance is pushed exactly once, so the
   pop sequence — the order — is the array itself. *)
let topological_order nl =
  let n_insts =
    Netlist.fold_instances nl ~init:0 ~f:(fun acc inst -> max acc (inst.Netlist.inst_id + 1))
  in
  (* tombstoned slots are neither live nor combinational *)
  let live = Array.make n_insts false in
  let comb = Array.make n_insts false in
  Netlist.iter_instances nl ~f:(fun inst ->
      live.(inst.inst_id) <- true;
      comb.(inst.inst_id) <- not (Cell.is_sequential inst.cell));
  let indegree = Array.make n_insts 0 in
  let rec count = function
    | [] -> ()
    | (r : Netlist.pin_ref) :: rest ->
      if comb.(r.inst) then indegree.(r.inst) <- indegree.(r.inst) + 1;
      count rest
  in
  Netlist.iter_nets nl ~f:(fun net ->
      match net.Netlist.driver with None -> () | Some _ -> count net.sinks);
  let queue = Array.make n_insts 0 in
  let tail = ref 0 in
  for i = 0 to n_insts - 1 do
    if live.(i) && indegree.(i) = 0 then begin
      queue.(!tail) <- i;
      incr tail
    end
  done;
  let rec release = function
    | [] -> ()
    | (r : Netlist.pin_ref) :: rest ->
      if comb.(r.inst) then begin
        indegree.(r.inst) <- indegree.(r.inst) - 1;
        if indegree.(r.inst) = 0 then begin
          queue.(!tail) <- r.inst;
          incr tail
        end
      end;
      release rest
  in
  let head = ref 0 in
  while !head < !tail do
    let inst = Netlist.instance nl queue.(!head) in
    incr head;
    List.iter (fun (_, nid) -> release (Netlist.net nl nid).sinks) inst.outputs
  done;
  let seen = !tail in
  if seen <> Netlist.instance_count nl then
    raise (Combinational_loop (Printf.sprintf "%d instances unreached" (Netlist.instance_count nl - seen)));
  Array.sub queue 0 seen

let logic_depths nl =
  let order = topological_order nl in
  let depth = Hashtbl.create 256 in
  Array.iter
    (fun id ->
      let inst = Netlist.instance nl id in
      let d =
        if Cell.is_sequential inst.Netlist.cell then 0
        else begin
          let input_depth =
            List.fold_left
              (fun acc (_, nid) ->
                match (Netlist.net nl nid).driver with
                | None -> acc
                | Some (r : Netlist.pin_ref) ->
                  max acc (Option.value (Hashtbl.find_opt depth r.inst) ~default:0))
              0 inst.inputs
          in
          input_depth + 1
        end
      in
      Hashtbl.replace depth id d)
    order;
  Array.to_list (Array.map (fun id -> (id, Hashtbl.find depth id)) order)
