module Vec = Vartune_util.Vec
module Cell = Vartune_liberty.Cell

type net_id = int
type inst_id = int
type pin_ref = { inst : inst_id; pin : string }

type net = {
  net_id : net_id;
  net_name : string;
  mutable driver : pin_ref option;
  mutable sinks : pin_ref list;
}

type instance = {
  inst_id : inst_id;
  inst_name : string;
  mutable cell : Cell.t;
  mutable inputs : (string * net_id) list;
  mutable outputs : (string * net_id) list;
}

type t = {
  design_name : string;
  nets : net Vec.t;
  instances : instance option Vec.t;
  mutable live_instances : int;
  mutable pis : net_id list;
  mutable pos : net_id list;
  mutable clock_net : net_id option;
  mutable name_counter : int;
  edits : int Vec.t;  (* packed [edit]s, see [log] *)
  mutable logging : bool;  (* set by the first [edit_count] *)
}

type edit = Instance of inst_id | Net of net_id | Output of net_id

let create ~name =
  {
    design_name = name;
    nets = Vec.create ();
    instances = Vec.create ();
    live_instances = 0;
    pis = [];
    pos = [];
    clock_net = None;
    name_counter = 0;
    edits = Vec.create ();
    logging = false;
  }

let name t = t.design_name

(* The log is one unboxed int per entry: the id shifted past a two-bit
   tag.  Nothing is kept before a reader first takes a position, so
   building a netlist logs nothing. *)
let log t e =
  if t.logging then begin
    let packed =
      match e with
      | Instance id -> id lsl 2
      | Net id -> (id lsl 2) lor 1
      | Output id -> (id lsl 2) lor 2
    in
    ignore (Vec.push t.edits packed)
  end

let log_nets t conns = List.iter (fun (_, nid) -> log t (Net nid)) conns
let edit_count t =
  t.logging <- true;
  Vec.length t.edits

let iter_edits t ~from ~f =
  for i = from to Vec.length t.edits - 1 do
    let packed = Vec.get t.edits i in
    let id = packed asr 2 in
    f (match packed land 3 with 0 -> Instance id | 1 -> Net id | _ -> Output id)
  done

let add_net t ?net_name () =
  let net_id = Vec.length t.nets in
  let net_name = Option.value net_name ~default:(Printf.sprintf "n%d" net_id) in
  ignore (Vec.push t.nets { net_id; net_name; driver = None; sinks = [] });
  log t (Net net_id);
  net_id

let net t id = Vec.get t.nets id
let net_count t = Vec.length t.nets

let check_pin_exists cell pin_name context =
  match Cell.find_pin cell pin_name with
  | Some _ -> ()
  | None ->
    invalid_arg
      (Printf.sprintf "Netlist: cell %s has no pin %s (%s)" cell.Cell.name pin_name context)

let add_instance t ~inst_name ~cell ~inputs ~outputs =
  let inst_id = Vec.length t.instances in
  List.iter (fun (p, _) -> check_pin_exists cell p "input") inputs;
  List.iter (fun (p, _) -> check_pin_exists cell p "output") outputs;
  let inst = { inst_id; inst_name; cell; inputs; outputs } in
  List.iter
    (fun (pin, nid) ->
      let n = net t nid in
      n.sinks <- { inst = inst_id; pin } :: n.sinks)
    inputs;
  List.iter
    (fun (pin, nid) ->
      let n = net t nid in
      if n.driver <> None then
        invalid_arg (Printf.sprintf "Netlist: net %s already driven" n.net_name);
      n.driver <- Some { inst = inst_id; pin })
    outputs;
  ignore (Vec.push t.instances (Some inst));
  t.live_instances <- t.live_instances + 1;
  log t (Instance inst_id);
  log_nets t inputs;
  log_nets t outputs;
  inst_id

let instance_opt t id =
  if id < 0 || id >= Vec.length t.instances then None else Vec.get t.instances id

let instance t id =
  match instance_opt t id with
  | Some inst -> inst
  | None -> invalid_arg (Printf.sprintf "Netlist: no instance %d" id)

let remove_instance t id =
  let inst = instance t id in
  List.iter
    (fun (pin, nid) ->
      let n = net t nid in
      n.sinks <- List.filter (fun r -> not (r.inst = id && r.pin = pin)) n.sinks)
    inst.inputs;
  List.iter
    (fun (_, nid) ->
      let n = net t nid in
      n.driver <- None)
    inst.outputs;
  Vec.set t.instances id None;
  t.live_instances <- t.live_instances - 1;
  log t (Instance id);
  log_nets t inst.inputs;
  log_nets t inst.outputs

let set_cell t id cell =
  let inst = instance t id in
  List.iter (fun (p, _) -> check_pin_exists cell p "input") inst.inputs;
  List.iter (fun (p, _) -> check_pin_exists cell p "output") inst.outputs;
  inst.cell <- cell;
  log t (Instance id);
  (* the sink pin capacitances on the input nets change with the cell *)
  log_nets t inst.inputs

let rewire_input t ~inst:id ~pin nid =
  let inst = instance t id in
  match List.assoc_opt pin inst.inputs with
  | None -> invalid_arg (Printf.sprintf "Netlist: instance %s has no input %s" inst.inst_name pin)
  | Some old_nid ->
    let old_net = net t old_nid in
    old_net.sinks <- List.filter (fun r -> not (r.inst = id && r.pin = pin)) old_net.sinks;
    let new_net = net t nid in
    new_net.sinks <- { inst = id; pin } :: new_net.sinks;
    inst.inputs <- List.map (fun (p, n) -> if p = pin then (p, nid) else (p, n)) inst.inputs;
    log t (Instance id);
    log t (Net old_nid);
    log t (Net nid)

let iter_instances t ~f = Vec.iter (function Some inst -> f inst | None -> ()) t.instances

let fold_instances t ~init ~f =
  Vec.fold (fun acc -> function Some inst -> f acc inst | None -> acc) init t.instances

let iter_nets t ~f = Vec.iter f t.nets
let instance_count t = t.live_instances
let instance_bound t = Vec.length t.instances

let mark_primary_input t nid =
  t.pis <- nid :: t.pis;
  log t (Net nid)

let mark_primary_output t nid =
  t.pos <- nid :: t.pos;
  log t (Output nid)

let set_clock t nid =
  t.clock_net <- Some nid;
  log t (Net nid)

let primary_inputs t = List.rev t.pis
let primary_outputs t = List.rev t.pos
let clock t = t.clock_net

let total_area t = fold_instances t ~init:0.0 ~f:(fun acc inst -> acc +. inst.cell.Cell.area)

let usage key_of t =
  let counts = Hashtbl.create 64 in
  iter_instances t ~f:(fun inst ->
      let key = key_of inst.cell in
      Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (na, ca) (nb, cb) ->
         if ca <> cb then compare cb ca else String.compare na nb)

let cell_usage t = usage (fun (c : Cell.t) -> c.name) t
let family_usage t = usage (fun (c : Cell.t) -> c.family) t

let fresh_name t ~prefix =
  t.name_counter <- t.name_counter + 1;
  Printf.sprintf "%s_%d" prefix t.name_counter

(* -------------------------------------------------------------------- *)
(* Faithful snapshots                                                    *)
(* -------------------------------------------------------------------- *)

type repr = {
  repr_name : string;
  repr_nets : (string * pin_ref option * pin_ref list) array;
  repr_instances :
    (string * Cell.t * (string * net_id) list * (string * net_id) list) option array;
  repr_pis : net_id list;
  repr_pos : net_id list;
  repr_clock : net_id option;
  repr_name_counter : int;
}

let export t =
  {
    repr_name = t.design_name;
    repr_nets =
      Array.map (fun n -> (n.net_name, n.driver, n.sinks)) (Vec.to_array t.nets);
    repr_instances =
      Array.map
        (Option.map (fun i -> (i.inst_name, i.cell, i.inputs, i.outputs)))
        (Vec.to_array t.instances);
    (* internal pi/po lists are reversed; snapshots use user order *)
    repr_pis = List.rev t.pis;
    repr_pos = List.rev t.pos;
    repr_clock = t.clock_net;
    repr_name_counter = t.name_counter;
  }

let import repr =
  let bad fmt = Printf.ksprintf invalid_arg ("Netlist.import: " ^^ fmt) in
  let n_nets = Array.length repr.repr_nets in
  let n_slots = Array.length repr.repr_instances in
  let check_net nid ctx = if nid < 0 || nid >= n_nets then bad "net %d out of range (%s)" nid ctx in
  let inst_of nid { inst; pin } ctx =
    if inst < 0 || inst >= n_slots then bad "instance %d out of range (%s of net %d)" inst ctx nid;
    match repr.repr_instances.(inst) with
    | None -> bad "net %d %s references tombstoned instance %d" nid ctx inst
    | Some (_, cell, inputs, outputs) ->
      let conns = if ctx = "driver" then outputs else inputs in
      (match Cell.find_pin cell pin with
      | Some _ -> ()
      | None -> bad "instance %d cell %s has no pin %s" inst cell.Cell.name pin);
      if List.assoc_opt pin conns <> Some nid then
        bad "net %d %s disagrees with instance %d pin %s" nid ctx inst pin
  in
  Array.iteri
    (fun nid (_, driver, sinks) ->
      Option.iter (fun r -> inst_of nid r "driver") driver;
      List.iter (fun r -> inst_of nid r "sink") sinks)
    repr.repr_nets;
  let live = ref 0 in
  Array.iter
    (Option.iter (fun (_, _, inputs, outputs) ->
         incr live;
         List.iter (fun (_, nid) -> check_net nid "instance input") inputs;
         List.iter (fun (_, nid) -> check_net nid "instance output") outputs))
    repr.repr_instances;
  List.iter (fun nid -> check_net nid "primary input") repr.repr_pis;
  List.iter (fun nid -> check_net nid "primary output") repr.repr_pos;
  Option.iter (fun nid -> check_net nid "clock") repr.repr_clock;
  let nets = Vec.create () in
  Array.iteri
    (fun net_id (net_name, driver, sinks) ->
      ignore (Vec.push nets { net_id; net_name; driver; sinks }))
    repr.repr_nets;
  let instances = Vec.create () in
  Array.iteri
    (fun inst_id slot ->
      ignore
        (Vec.push instances
           (Option.map
              (fun (inst_name, cell, inputs, outputs) ->
                { inst_id; inst_name; cell; inputs; outputs })
              slot)))
    repr.repr_instances;
  {
    design_name = repr.repr_name;
    nets;
    instances;
    live_instances = !live;
    pis = List.rev repr.repr_pis;
    pos = List.rev repr.repr_pos;
    clock_net = repr.repr_clock;
    name_counter = repr.repr_name_counter;
    edits = Vec.create ();
    logging = false;
  }
