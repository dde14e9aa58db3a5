module Lut = Vartune_liberty.Lut

type t = { rows : int; cols : int; bits : bool array }

let rows t = t.rows
let cols t = t.cols

let index t i j =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg "Binary_lut: index out of bounds";
  (i * t.cols) + j

let get t i j = t.bits.(index t i j)

let of_predicate lut p =
  let rows, cols = Lut.dims lut in
  { rows; cols; bits = Array.init (rows * cols) (fun k -> p (Lut.get lut (k / cols) (k mod cols))) }

let of_threshold lut ~threshold = of_predicate lut (fun v -> v < threshold)
let of_ceiling lut ~ceiling = of_predicate lut (fun v -> v <= ceiling)

let logical_and a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Binary_lut: dimension mismatch";
  { a with bits = Array.init (Array.length a.bits) (fun k -> a.bits.(k) && b.bits.(k)) }

let all_true_in t ~row_lo ~col_lo ~row_hi ~col_hi =
  let ok = ref true in
  for i = row_lo to row_hi do
    for j = col_lo to col_hi do
      if not (get t i j) then ok := false
    done
  done;
  !ok

let count_true t = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.bits

let of_bool_rows a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Binary_lut.of_bool_rows: empty";
  let cols = Array.length a.(0) in
  if cols = 0 then invalid_arg "Binary_lut.of_bool_rows: empty row";
  Array.iter
    (fun r -> if Array.length r <> cols then invalid_arg "Binary_lut.of_bool_rows: ragged")
    a;
  { rows; cols; bits = Array.init (rows * cols) (fun k -> a.(k / cols).(k mod cols)) }
