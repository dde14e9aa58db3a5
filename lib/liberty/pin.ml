type direction = Input | Output

type t = {
  name : string;
  direction : direction;
  capacitance : float;
  max_capacitance : float option;
  arcs : Arc.t list;
}

let input ~name ~capacitance =
  { name; direction = Input; capacitance; max_capacitance = None; arcs = [] }

let output ~name ?max_capacitance ~arcs () =
  { name; direction = Output; capacitance = 0.0; max_capacitance; arcs }

let is_output t = t.direction = Output
let is_input t = t.direction = Input

let direction_to_string = function Input -> "input" | Output -> "output"
