type t = { rows : int; cols : int; data : float array }

let check_dims rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Grid: dimensions must be positive"

let create ~rows ~cols v =
  check_dims rows cols;
  { rows; cols; data = Array.make (rows * cols) v }

let init ~rows ~cols f =
  check_dims rows cols;
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let of_flat ~rows ~cols data =
  check_dims rows cols;
  if Array.length data <> rows * cols then invalid_arg "Grid.of_flat: length mismatch";
  { rows; cols; data }

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Grid.of_arrays: empty";
  let cols = Array.length a.(0) in
  if cols = 0 then invalid_arg "Grid.of_arrays: empty row";
  Array.iter (fun r -> if Array.length r <> cols then invalid_arg "Grid.of_arrays: ragged") a;
  init ~rows ~cols (fun i j -> a.(i).(j))

let rows g = g.rows
let cols g = g.cols

let index g i j =
  if i < 0 || i >= g.rows || j < 0 || j >= g.cols then invalid_arg "Grid: index out of bounds";
  (i * g.cols) + j

let get g i j = g.data.(index g i j)
let set g i j v = g.data.(index g i j) <- v

(* Unchecked accessors for inner loops whose indices were validated
   once, up front (e.g. LUT interpolation over axes the constructor
   checked).  Out-of-range indices are undefined behaviour. *)
let unsafe_get g i j = Array.unsafe_get g.data ((i * g.cols) + j)
let unsafe_set g i j v = Array.unsafe_set g.data ((i * g.cols) + j) v

(* The live row-major backing, not a copy: the flat kernels (Welford
   merge, bilinear interpolation, codec IO) iterate it directly.
   Writes alias the grid. *)
let unsafe_data g = g.data

let to_arrays g = Array.init g.rows (fun i -> Array.init g.cols (fun j -> get g i j))

let map f g = { g with data = Array.map f g.data }

let map2 f a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Grid.map2: dimension mismatch";
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

let fold f init g = Array.fold_left f init g.data
let iteri f g = Array.iteri (fun k v -> f (k / g.cols) (k mod g.cols) v) g.data

let max_value g = fold (fun acc v -> if v > acc then v else acc) neg_infinity g
let min_value g = fold (fun acc v -> if v < acc then v else acc) infinity g

let equal ?(eps = 1e-12) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.data b.data

let pp ppf g =
  for i = 0 to g.rows - 1 do
    for j = 0 to g.cols - 1 do
      if j > 0 then Format.pp_print_string ppf " ";
      Format.fprintf ppf "%10.6f" (get g i j)
    done;
    if i < g.rows - 1 then Format.pp_print_newline ppf ()
  done
