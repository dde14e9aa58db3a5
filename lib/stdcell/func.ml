module Arc = Vartune_liberty.Arc

type ff_features = { reset : bool; set : bool; enable : bool; scan : bool }

type t =
  | Inv
  | Buf
  | Nand of int
  | Nor of int
  | And of int
  | Or of int
  | Nand_b of int
  | Nor_b of int
  | Xor of int
  | Xnor of int
  | Mux2
  | Mux2_inv
  | Mux4
  | Full_adder
  | Half_adder
  | Maj3
  | Dff of ff_features
  | Dlat of { reset : bool }
  | Tie_low
  | Tie_high
  | Delay_buf

let letters = [| "A"; "B"; "C"; "D"; "E"; "F" |]
let first_letters n = List.init n (fun i -> letters.(i))

let input_names = function
  | Inv | Buf | Delay_buf -> [ "A" ]
  | Nand n | Nor n | And n | Or n | Nand_b n | Nor_b n | Xor n | Xnor n -> first_letters n
  | Mux2 | Mux2_inv -> [ "A"; "B"; "S" ]
  | Mux4 -> [ "A"; "B"; "C"; "D"; "S0"; "S1" ]
  | Full_adder | Maj3 -> [ "A"; "B"; "CI" ]
  | Half_adder -> [ "A"; "B" ]
  | Dff f ->
    let base = [ "D" ] in
    let base = if f.enable then base @ [ "E" ] else base in
    let base = if f.reset then base @ [ "RN" ] else base in
    let base = if f.set then base @ [ "SN" ] else base in
    if f.scan then base @ [ "SI"; "SE" ] else base
  | Dlat { reset } -> if reset then [ "D"; "RN" ] else [ "D" ]
  | Tie_low | Tie_high -> []

let output_names = function
  | Inv | Buf | Delay_buf | Nand _ | Nor _ | And _ | Or _ | Nand_b _ | Nor_b _
  | Xor _ | Xnor _ | Mux2 | Mux2_inv | Mux4 | Tie_low | Tie_high ->
    [ "Z" ]
  | Maj3 -> [ "CO" ]
  | Full_adder -> [ "S"; "CO" ]
  | Half_adder -> [ "S"; "CO" ]
  | Dff _ -> [ "Q" ]
  | Dlat _ -> [ "Q" ]

let clock_name = function
  | Dff _ -> Some "CK"
  | Dlat _ -> Some "G"
  | Inv | Buf | Delay_buf | Nand _ | Nor _ | And _ | Or _ | Nand_b _ | Nor_b _
  | Xor _ | Xnor _ | Mux2 | Mux2_inv | Mux4 | Full_adder | Half_adder | Maj3
  | Tie_low | Tie_high ->
    None

let is_sequential = function
  | Dff _ | Dlat _ -> true
  | Inv | Buf | Delay_buf | Nand _ | Nor _ | And _ | Or _ | Nand_b _ | Nor_b _
  | Xor _ | Xnor _ | Mux2 | Mux2_inv | Mux4 | Full_adder | Half_adder | Maj3
  | Tie_low | Tie_high ->
    false

let arc_sense t ~input ~output =
  ignore output;
  match t with
  | Inv | Nand _ | Nor _ | Mux2_inv -> Arc.Negative_unate
  | Nand_b n | Nor_b n ->
    (* the bubbled first input sees a non-inverting path *)
    ignore n;
    if input = "A" then Arc.Positive_unate else Arc.Negative_unate
  | Buf | Delay_buf | And _ | Or _ | Maj3 -> Arc.Positive_unate
  | Xor _ | Xnor _ | Mux2 | Mux4 | Full_adder | Half_adder -> Arc.Non_unate
  | Dff _ | Dlat _ -> Arc.Positive_unate
  | Tie_low | Tie_high -> Arc.Positive_unate

let inversions = function
  | Inv | Nand _ | Nor _ | Nand_b _ | Nor_b _ | Mux2_inv -> 1
  | Buf | And _ | Or _ | Mux2 | Half_adder | Maj3 -> 2
  | Xor _ | Xnor _ | Dlat _ -> 2
  | Mux4 | Full_adder -> 3
  | Dff _ -> 3
  | Delay_buf -> 4
  | Tie_low | Tie_high -> 1

let equal a b = a = b
