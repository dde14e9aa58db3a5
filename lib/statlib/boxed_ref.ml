(* Frozen copy of the seed (pre-flattening) boxed Welford accumulator.

   [Statistical] now accumulates into flat SoA float arrays through
   [Vartune_util.Kernel]; this module keeps the original per-entry
   Grid.get/set implementation alive as an executable specification.
   Tests assert bit-identical output between the two paths, and
   bench/main.exe times both to attribute the flattening win.  Nothing in the
   pipeline calls this module. *)

module Grid = Vartune_util.Grid
module Pool = Vartune_util.Pool
module Lut = Vartune_liberty.Lut
module Arc = Vartune_liberty.Arc
module Pin = Vartune_liberty.Pin
module Cell = Vartune_liberty.Cell
module Library = Vartune_liberty.Library

type acc = { template : Lut.t; mutable count : int; mean : Grid.t; m2 : Grid.t }

let acc_create lut =
  let rows, cols = Lut.dims lut in
  { template = lut; count = 0; mean = Grid.create ~rows ~cols 0.0; m2 = Grid.create ~rows ~cols 0.0 }

let acc_update acc lut =
  if not (Lut.same_axes acc.template lut) then
    invalid_arg "Statistical: sample library has mismatched table axes";
  acc.count <- acc.count + 1;
  let n = float_of_int acc.count in
  let rows, cols = Lut.dims lut in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let x = Lut.get lut i j in
      let m = Grid.get acc.mean i j in
      let delta = x -. m in
      let m' = m +. (delta /. n) in
      Grid.set acc.mean i j m';
      Grid.set acc.m2 i j (Grid.get acc.m2 i j +. (delta *. (x -. m')))
    done
  done

(* Chan et al. pairwise combination of two Welford partials, entry-wise
   over the grids. *)
let acc_merge a b =
  if not (Lut.same_axes a.template b.template) then
    invalid_arg "Statistical: sample library has mismatched table axes";
  if b.count > 0 then begin
    if a.count = 0 then begin
      a.count <- b.count;
      let rows, cols = Lut.dims a.template in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          Grid.set a.mean i j (Grid.get b.mean i j);
          Grid.set a.m2 i j (Grid.get b.m2 i j)
        done
      done
    end
    else begin
      let na = float_of_int a.count and nb = float_of_int b.count in
      let n = na +. nb in
      let rows, cols = Lut.dims a.template in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          let ma = Grid.get a.mean i j and mb = Grid.get b.mean i j in
          let delta = mb -. ma in
          Grid.set a.mean i j (ma +. (delta *. (nb /. n)));
          Grid.set a.m2 i j
            (Grid.get a.m2 i j +. Grid.get b.m2 i j
            +. (delta *. delta *. (na *. nb /. n)))
        done
      done;
      a.count <- a.count + b.count
    end
  end

let acc_mean acc =
  Lut.make ~slews:(Lut.slews acc.template) ~loads:(Lut.loads acc.template) ~values:acc.mean

let acc_sigma acc =
  let values =
    if acc.count < 2 then Grid.map (fun _ -> 0.0) acc.m2
    else
      Grid.map
        (fun m2 ->
          let v = m2 /. float_of_int (acc.count - 1) in
          sqrt (if v < 0.0 then 0.0 else v))
        acc.m2
  in
  Lut.make ~slews:(Lut.slews acc.template) ~loads:(Lut.loads acc.template) ~values

type arc_acc = {
  proto : Arc.t;
  rise_delay : acc;
  fall_delay : acc;
  rise_transition : acc;
  fall_transition : acc;
}

let arc_acc_create (a : Arc.t) =
  {
    proto = a;
    rise_delay = acc_create a.rise_delay;
    fall_delay = acc_create a.fall_delay;
    rise_transition = acc_create a.rise_transition;
    fall_transition = acc_create a.fall_transition;
  }

let arc_acc_update acc (a : Arc.t) =
  if a.related_pin <> acc.proto.related_pin then
    invalid_arg "Statistical: sample library has mismatched arc order";
  acc_update acc.rise_delay a.rise_delay;
  acc_update acc.fall_delay a.fall_delay;
  acc_update acc.rise_transition a.rise_transition;
  acc_update acc.fall_transition a.fall_transition

let arc_acc_merge a b =
  if b.proto.Arc.related_pin <> a.proto.Arc.related_pin then
    invalid_arg "Statistical: sample library has mismatched arc order";
  acc_merge a.rise_delay b.rise_delay;
  acc_merge a.fall_delay b.fall_delay;
  acc_merge a.rise_transition b.rise_transition;
  acc_merge a.fall_transition b.fall_transition

let arc_acc_finish acc =
  Arc.make ~related_pin:acc.proto.related_pin ~sense:acc.proto.sense
    ~rise_delay:(acc_mean acc.rise_delay)
    ~fall_delay:(acc_mean acc.fall_delay)
    ~rise_transition:(acc_mean acc.rise_transition)
    ~fall_transition:(acc_mean acc.fall_transition)
    ~rise_delay_sigma:(acc_sigma acc.rise_delay)
    ~fall_delay_sigma:(acc_sigma acc.fall_delay)
    ?internal_power:acc.proto.internal_power ()

type cell_acc = { proto_cell : Cell.t; arcs : arc_acc array }

let cell_acc_create (c : Cell.t) =
  { proto_cell = c; arcs = Array.of_list (List.map arc_acc_create (Cell.arcs c)) }

let cell_acc_update acc (c : Cell.t) =
  if c.name <> acc.proto_cell.name then
    invalid_arg "Statistical: sample library has mismatched cell order";
  let arcs = Array.of_list (Cell.arcs c) in
  if Array.length arcs <> Array.length acc.arcs then
    invalid_arg "Statistical: sample library has mismatched arc count";
  Array.iteri (fun i a -> arc_acc_update acc.arcs.(i) a) arcs

let cell_acc_merge a b =
  if b.proto_cell.Cell.name <> a.proto_cell.Cell.name then
    invalid_arg "Statistical: sample library has mismatched cell order";
  if Array.length b.arcs <> Array.length a.arcs then
    invalid_arg "Statistical: sample library has mismatched arc count";
  Array.iteri (fun i arc -> arc_acc_merge a.arcs.(i) arc) b.arcs

let cell_acc_finish acc =
  let merged = Array.map arc_acc_finish acc.arcs in
  let cursor = ref 0 in
  let take n =
    let slice = Array.sub merged !cursor n in
    cursor := !cursor + n;
    Array.to_list slice
  in
  let c = acc.proto_cell in
  let pins =
    List.map
      (fun (p : Pin.t) ->
        if Pin.is_output p then
          Pin.output ~name:p.name ?max_capacitance:p.max_capacitance
            ~arcs:(take (List.length p.arcs)) ()
        else p)
      c.pins
  in
  Cell.make ~name:c.name ~family:c.family ~drive_strength:c.drive_strength ~kind:c.kind
    ~area:c.area ~pins ~setup_time:c.setup_time ~hold_time:c.hold_time
    ?clock_pin:c.clock_pin ~leakage:c.leakage ()

(* Same fixed block partition as [Statistical.merge_chunk]. *)
let merge_chunk = 4

type chunk_acc = { first_name : string; first_corner : string; cell_accs : cell_acc array }

let accumulate_chunk gen ~lo ~hi =
  let first = gen lo in
  let cell_accs = Array.of_list (List.map cell_acc_create (Library.cells first)) in
  let feed lib =
    let cells = Array.of_list (Library.cells lib) in
    if Array.length cells <> Array.length cell_accs then
      invalid_arg "Statistical: sample library has mismatched cell count";
    Array.iteri (fun i c -> cell_acc_update cell_accs.(i) c) cells
  in
  feed first;
  for index = lo + 1 to hi - 1 do
    feed (gen index)
  done;
  { first_name = Library.name first; first_corner = Library.corner first; cell_accs }

let chunk_merge a b =
  if Array.length b.cell_accs <> Array.length a.cell_accs then
    invalid_arg "Statistical: sample library has mismatched cell count";
  Array.iteri (fun i c -> cell_acc_merge a.cell_accs.(i) c) b.cell_accs;
  a

let of_stream ?pool ~n gen =
  if n <= 0 then invalid_arg "Statistical.of_stream: n must be positive";
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let nchunks = (n + merge_chunk - 1) / merge_chunk in
  let chunks =
    Pool.map_chunked pool
      (fun c ->
        let lo = c * merge_chunk in
        accumulate_chunk gen ~lo ~hi:(min n (lo + merge_chunk)))
      (List.init nchunks Fun.id)
  in
  let merged =
    match chunks with
    | [] -> assert false
    | head :: rest -> List.fold_left chunk_merge head rest
  in
  let cells = Array.to_list (Array.map cell_acc_finish merged.cell_accs) in
  Library.make ~name:(merged.first_name ^ "_stat") ~corner:merged.first_corner ~cells

let of_libraries = function
  | [] -> invalid_arg "Statistical.of_libraries: empty list"
  | libs ->
    let arr = Array.of_list libs in
    of_stream ~n:(Array.length arr) (fun i -> arr.(i))
