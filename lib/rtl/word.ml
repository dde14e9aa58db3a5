type word = Ir.node_id array

let const g ~width value =
  Array.init width (fun i ->
      if (value lsr i) land 1 = 1 then Ir.const1 g else Ir.const0 g)

let inputs g ~prefix ~width =
  Array.init width (fun i -> Ir.input g (Printf.sprintf "%s[%d]" prefix i))

let outputs g ~prefix w =
  Array.iteri (fun i bit -> Ir.output g (Printf.sprintf "%s[%d]" prefix i) bit) w

let check_same_width a b =
  if Array.length a <> Array.length b then invalid_arg "Word: width mismatch"

let lognot g a = Array.map (Ir.not_ g) a

let map2 f a b =
  check_same_width a b;
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let logand g = map2 (Ir.and2 g)
let logor g = map2 (Ir.or2 g)
let logxor g = map2 (Ir.xor2 g)

let add g ?carry_in a b =
  check_same_width a b;
  let carry_in = Option.value carry_in ~default:(Ir.const0 g) in
  let width = Array.length a in
  let sum = Array.make width (Ir.const0 g) in
  let carry = ref carry_in in
  for i = 0 to width - 1 do
    sum.(i) <- Ir.xor3 g a.(i) b.(i) !carry;
    carry := Ir.maj3 g a.(i) b.(i) !carry
  done;
  (sum, !carry)

let mux g ~sel a b = map2 (fun x y -> Ir.mux2 g ~a:x ~b:y ~s:sel) a b

let add_fast g ?carry_in ?(group = 4) a b =
  check_same_width a b;
  let width = Array.length a in
  let carry_in = Option.value carry_in ~default:(Ir.const0 g) in
  if width <= group then add g ~carry_in a b
  else begin
    let sum = Array.make width (Ir.const0 g) in
    let rec groups lo carry =
      if lo >= width then carry
      else begin
        let len = min group (width - lo) in
        let ga = Array.sub a lo len and gb = Array.sub b lo len in
        (* both speculative results, selected by the incoming carry *)
        let sum0, cout0 = add g ~carry_in:(Ir.const0 g) ga gb in
        let sum1, cout1 = add g ~carry_in:(Ir.const1 g) ga gb in
        for i = 0 to len - 1 do
          sum.(lo + i) <- Ir.mux2 g ~a:sum0.(i) ~b:sum1.(i) ~s:carry
        done;
        let cout = Ir.mux2 g ~a:cout0 ~b:cout1 ~s:carry in
        groups (lo + len) cout
      end
    in
    let cout = groups 0 carry_in in
    (sum, cout)
  end

(* Subtraction feeds the ALU's compare paths; carry-select keeps them
   shallow. *)
let sub g a b = add_fast g ~carry_in:(Ir.const1 g) a (lognot g b)

let one_hot_mux g ~onehot words =
  let words = Array.of_list words in
  if Array.length onehot <> Array.length words then
    invalid_arg "Word.one_hot_mux: select/input count mismatch";
  if Array.length words = 0 then invalid_arg "Word.one_hot_mux: no inputs";
  let width = Array.length words.(0) in
  Array.init width (fun bit ->
      let terms = Array.mapi (fun k sel -> Ir.and2 g sel words.(k).(bit)) onehot in
      (* balanced OR tree *)
      let rec level = function
        | [] -> Ir.const0 g
        | [ x ] -> x
        | xs ->
          let rec pair = function
            | [] -> []
            | [ x ] -> [ x ]
            | p :: q :: tl -> Ir.or2 g p q :: pair tl
          in
          level (pair xs)
      in
      level (Array.to_list terms))

let rec mux_tree g ~sel words =
  match (Array.length sel, words) with
  | _, [] -> invalid_arg "Word.mux_tree: no inputs"
  | 0, w :: _ -> w
  | _, [ w ] -> w
  | _, _ ->
    let s = sel.(0) in
    let rest_sel = Array.sub sel 1 (Array.length sel - 1) in
    let rec pair = function
      | [] -> []
      | [ last ] -> [ last ]
      | a :: b :: tl -> mux g ~sel:s a b :: pair tl
    in
    mux_tree g ~sel:rest_sel (pair words)

let shift_stage g dir word s k =
  let width = Array.length word in
  Array.init width (fun i ->
      let from = match dir with `Left -> i - k | `Right -> i + k in
      let shifted = if from < 0 || from >= width then Ir.const0 g else word.(from) in
      Ir.mux2 g ~a:word.(i) ~b:shifted ~s)

let barrel g dir word ~amount =
  let shifted = ref word in
  Array.iteri (fun idx s -> shifted := shift_stage g dir !shifted s (1 lsl idx)) amount;
  !shifted

let barrel_shift_left g word ~amount = barrel g `Left word ~amount
let barrel_shift_right g word ~amount = barrel g `Right word ~amount

let reduce f = function
  | [||] -> invalid_arg "Word.reduce: empty word"
  | bits ->
    (* balanced tree keeps logic depth logarithmic *)
    let rec level = function
      | [] -> assert false
      | [ x ] -> x
      | xs ->
        let rec pair = function
          | [] -> []
          | [ x ] -> [ x ]
          | a :: b :: tl -> f a b :: pair tl
        in
        level (pair xs)
    in
    level (Array.to_list bits)

let reduce_or g w = reduce (Ir.or2 g) w
let reduce_and g w = reduce (Ir.and2 g) w
let is_zero g w = Ir.not_ g (reduce_or g w)
let equal g a b = is_zero g (logxor g a b)

let less_than g a b =
  (* a < b iff a - b borrows, i.e. carry out of a + ~b + 1 is 0 *)
  let _, carry = sub g a b in
  Ir.not_ g carry

let multiply g a b =
  let wa = Array.length a and wb = Array.length b in
  let width = wa + wb in
  let extend row shift =
    Array.init width (fun i ->
        let j = i - shift in
        if j < 0 || j >= wa then Ir.const0 g else row.(j))
  in
  let rows =
    List.init wb (fun k -> extend (Array.map (fun abit -> Ir.and2 g abit b.(k)) a) k)
  in
  match rows with
  | [] -> const g ~width 0
  | first :: rest ->
    List.fold_left (fun acc row -> fst (add g acc row)) first rest

let decoder g sel =
  let width = Array.length sel in
  let inverted = Array.map (Ir.not_ g) sel in
  Array.init (1 lsl width) (fun k ->
      let literals =
        Array.init width (fun i -> if (k lsr i) land 1 = 1 then sel.(i) else inverted.(i))
      in
      reduce_and g literals)

let rec ceil_log2 n = if n <= 1 then 0 else 1 + ceil_log2 ((n + 1) / 2)

let priority_encode g requests =
  let n = Array.length requests in
  if n = 0 then invalid_arg "Word.priority_encode: no requests";
  let width = max 1 (ceil_log2 n) in
  (* grant_i = req_i and none of the lower-indexed requests *)
  let blocked = ref (Ir.const0 g) in
  let grants =
    Array.map
      (fun req ->
        let grant = Ir.and2 g req (Ir.not_ g !blocked) in
        blocked := Ir.or2 g !blocked req;
        grant)
      requests
  in
  let index =
    Array.init width (fun bit ->
        let contributing =
          Array.to_list grants
          |> List.mapi (fun i grant -> if (i lsr bit) land 1 = 1 then Some grant else None)
          |> List.filter_map Fun.id
        in
        match contributing with
        | [] -> Ir.const0 g
        | bits -> reduce_or g (Array.of_list bits))
  in
  (index, !blocked)

let reg g ?enable ?name d =
  let bit_name i = Option.map (fun n -> Printf.sprintf "%s[%d]" n i) name in
  match enable with
  | None -> Array.mapi (fun i bit -> Ir.ff g ?name:(bit_name i) ~d:bit ()) d
  | Some en ->
    (* Recirculating register: q' = en ? d : q.  The flop is forward-
       declared so its own output can feed the recirculation mux. *)
    Array.mapi
      (fun i bit ->
        let q = Ir.ff_forward g ?name:(bit_name i) () in
        Ir.set_ff_data g q (Ir.mux2 g ~a:q ~b:bit ~s:en);
        q)
      d
