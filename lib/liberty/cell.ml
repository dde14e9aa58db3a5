type kind = Combinational | Flip_flop | Latch

type t = {
  name : string;
  family : string;
  drive_strength : int;
  kind : kind;
  area : float;
  pins : Pin.t list;
  setup_time : float;
  hold_time : float;
  clock_pin : string option;
  leakage : float;
}

let make ~name ~family ~drive_strength ~kind ~area ~pins ?(setup_time = 0.0)
    ?(hold_time = 0.0) ?clock_pin ?(leakage = 0.0) () =
  if drive_strength <= 0 then invalid_arg "Cell.make: drive strength must be positive";
  if area < 0.0 then invalid_arg "Cell.make: negative area";
  { name; family; drive_strength; kind; area; pins; setup_time; hold_time; clock_pin;
    leakage }

let input_pins t =
  List.filter
    (fun (p : Pin.t) -> Pin.is_input p && Some p.name <> t.clock_pin)
    t.pins

let data_input_names t = List.map (fun (p : Pin.t) -> p.name) (input_pins t)
let output_pins t = List.filter Pin.is_output t.pins
let find_pin t name = List.find_opt (fun (p : Pin.t) -> p.name = name) t.pins
let arcs t = List.concat_map (fun (p : Pin.t) -> p.arcs) (output_pins t)

let input_capacitance t name =
  match find_pin t name with
  | Some p when Pin.is_input p -> p.capacitance
  | Some _ | None -> raise Not_found

let max_load t =
  List.fold_left
    (fun acc (p : Pin.t) ->
      match p.max_capacitance with
      | Some m when Pin.is_output p -> Float.min acc m
      | _ -> acc)
    infinity t.pins

let is_sequential t = t.kind <> Combinational

let kind_to_string = function
  | Combinational -> "combinational"
  | Flip_flop -> "flip_flop"
  | Latch -> "latch"

let kind_of_string = function
  | "combinational" -> Some Combinational
  | "flip_flop" -> Some Flip_flop
  | "latch" -> Some Latch
  | _ -> None
