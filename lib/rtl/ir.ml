module Vec = Vartune_util.Vec

type node_id = int

type op =
  | Input of string
  | Const0
  | Const1
  | Not
  | Buf
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Mux2
  | Xor3
  | Maj3
  | Ff of string

type node = { op : op; fanins : node_id array }

type t = {
  design_name : string;
  nodes : node Vec.t;
  cse : (op * node_id array, node_id) Hashtbl.t;
  mutable outs : (string * node_id) list;
  mutable ins : (string * node_id) list;
  mutable ff_counter : int;
  mutable c0 : node_id option;
  mutable c1 : node_id option;
}

let create ~name =
  {
    design_name = name;
    nodes = Vec.create ();
    cse = Hashtbl.create 4096;
    outs = [];
    ins = [];
    ff_counter = 0;
    c0 = None;
    c1 = None;
  }

let name t = t.design_name

let raw_add t op fanins = Vec.push t.nodes { op; fanins }

let hashconsed t op fanins =
  let key = (op, fanins) in
  match Hashtbl.find_opt t.cse key with
  | Some id -> id
  | None ->
    let id = raw_add t op fanins in
    Hashtbl.add t.cse key id;
    id

let input t port =
  let id = raw_add t (Input port) [||] in
  t.ins <- (port, id) :: t.ins;
  id

let const0 t =
  match t.c0 with
  | Some id -> id
  | None ->
    let id = raw_add t Const0 [||] in
    t.c0 <- Some id;
    id

let const1 t =
  match t.c1 with
  | Some id -> id
  | None ->
    let id = raw_add t Const1 [||] in
    t.c1 <- Some id;
    id

let op_of t id = (Vec.get t.nodes id).op
let fanins t id = (Vec.get t.nodes id).fanins

let is_const0 t id = op_of t id = Const0
let is_const1 t id = op_of t id = Const1

let sort2 a b = if a <= b then [| a; b |] else [| b; a |]

let sort3 a b c =
  let arr = [| a; b; c |] in
  Array.sort compare arr;
  arr

let rec not_ t a =
  if is_const0 t a then const1 t
  else if is_const1 t a then const0 t
  else
    match op_of t a with
    | Not -> (fanins t a).(0)
    | Input _ | Const0 | Const1 | Buf | And2 | Or2 | Xor2 | Xnor2 | Mux2 | Xor3 | Maj3
    | Ff _ ->
      hashconsed t Not [| a |]

and and2 t a b =
  if a = b then a
  else if is_const0 t a || is_const0 t b then const0 t
  else if is_const1 t a then b
  else if is_const1 t b then a
  else hashconsed t And2 (sort2 a b)

and or2 t a b =
  if a = b then a
  else if is_const1 t a || is_const1 t b then const1 t
  else if is_const0 t a then b
  else if is_const0 t b then a
  else hashconsed t Or2 (sort2 a b)

and xor2 t a b =
  if a = b then const0 t
  else if is_const0 t a then b
  else if is_const0 t b then a
  else if is_const1 t a then not_ t b
  else if is_const1 t b then not_ t a
  else hashconsed t Xor2 (sort2 a b)

and xnor2 t a b =
  if a = b then const1 t
  else if is_const0 t a then not_ t b
  else if is_const0 t b then not_ t a
  else if is_const1 t a then b
  else if is_const1 t b then a
  else hashconsed t Xnor2 (sort2 a b)

and mux2 t ~a ~b ~s =
  if is_const0 t s then a
  else if is_const1 t s then b
  else if a = b then a
  else if is_const0 t a && is_const1 t b then s
  else if is_const1 t a && is_const0 t b then not_ t s
  else hashconsed t Mux2 [| a; b; s |]

and xor3 t a b c =
  if is_const0 t a then xor2 t b c
  else if is_const0 t b then xor2 t a c
  else if is_const0 t c then xor2 t a b
  else hashconsed t Xor3 (sort3 a b c)

and maj3 t a b c =
  if a = b then a
  else if a = c then a
  else if b = c then b
  else if is_const0 t a then and2 t b c
  else if is_const0 t b then and2 t a c
  else if is_const0 t c then and2 t a b
  else if is_const1 t a then or2 t b c
  else if is_const1 t b then or2 t a c
  else if is_const1 t c then or2 t a b
  else hashconsed t Maj3 (sort3 a b c)

let nand2 t a b = not_ t (and2 t a b)
let nor2 t a b = not_ t (or2 t a b)

let ff t ?name ~d () =
  t.ff_counter <- t.ff_counter + 1;
  let ff_name = Option.value name ~default:(Printf.sprintf "ff_%d" t.ff_counter) in
  raw_add t (Ff ff_name) [| d |]

let unconnected = -1

let ff_forward t ?name () =
  t.ff_counter <- t.ff_counter + 1;
  let ff_name = Option.value name ~default:(Printf.sprintf "ff_%d" t.ff_counter) in
  raw_add t (Ff ff_name) [| unconnected |]

let set_ff_data t ff_id d =
  let node = Vec.get t.nodes ff_id in
  match node.op with
  | Ff _ ->
    if node.fanins.(0) <> unconnected then
      invalid_arg "Ir.set_ff_data: flip-flop already connected";
    node.fanins.(0) <- d
  | Input _ | Const0 | Const1 | Not | Buf | And2 | Or2 | Xor2 | Xnor2 | Mux2 | Xor3
  | Maj3 ->
    invalid_arg "Ir.set_ff_data: not a flip-flop"

let ff_data_connected t ff_id =
  let node = Vec.get t.nodes ff_id in
  match node.op with
  | Ff _ -> node.fanins.(0) <> unconnected
  | Input _ | Const0 | Const1 | Not | Buf | And2 | Or2 | Xor2 | Xnor2 | Mux2 | Xor3
  | Maj3 ->
    invalid_arg "Ir.ff_data_connected: not a flip-flop"

let output t port id = t.outs <- (port, id) :: t.outs
let node_count t = Vec.length t.nodes
let outputs t = List.rev t.outs
let inputs t = List.rev t.ins

let iter_nodes t ~f = Vec.iteri (fun id node -> f id node.op node.fanins) t.nodes

let fingerprint t =
  (* FNV-1a over the full structure: every node's op and fanins plus the
     output bindings.  Two designs collide only if they are structurally
     identical (modulo 62-bit hash collisions) — unlike node_count, which
     conflates any two configurations of equal size. *)
  let h = ref 0x3bf29ce484222325 (* FNV offset basis truncated to 62 bits *) in
  let mix v = h := (!h lxor v) * 0x100000001b3 land max_int in
  iter_nodes t ~f:(fun id op fanins ->
      mix id;
      mix (Hashtbl.hash op);
      Array.iter mix fanins);
  List.iter
    (fun (port, id) ->
      mix (Hashtbl.hash port);
      mix id)
    (outputs t);
  !h

let op_tag = function
  | Input _ -> "input"
  | Const0 | Const1 -> "const"
  | Not -> "not"
  | Buf -> "buf"
  | And2 -> "and2"
  | Or2 -> "or2"
  | Xor2 -> "xor2"
  | Xnor2 -> "xnor2"
  | Mux2 -> "mux2"
  | Xor3 -> "xor3"
  | Maj3 -> "maj3"
  | Ff _ -> "ff"

let stats t =
  let counts = Hashtbl.create 16 in
  iter_nodes t ~f:(fun _ op _ ->
      let tag = op_tag op in
      Hashtbl.replace counts tag (1 + Option.value (Hashtbl.find_opt counts tag) ~default:0));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
