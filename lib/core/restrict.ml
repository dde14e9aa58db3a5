module Lut = Vartune_liberty.Lut
module Arc = Vartune_liberty.Arc
module Pin = Vartune_liberty.Pin
module Cell = Vartune_liberty.Cell
module Library = Vartune_liberty.Library

type window = { slew_min : float; slew_max : float; load_min : float; load_max : float }

type status = Unrestricted | Window of window | Unusable

type summary = {
  usable : bool;
  windowed : bool;
  slew_lo : float;
  slew_hi : float;
  load_lo : float;
  load_hi : float;
  load_max : float;
  slew_max : float;
}

(* A cell's entries, with their summary recomputed on every [set]. *)
type cell_entry = { mutable pins : (string * status) list; mutable summary : summary }

type table = (string, cell_entry) Hashtbl.t

let unrestricted =
  {
    usable = true;
    windowed = false;
    slew_lo = neg_infinity;
    slew_hi = infinity;
    load_lo = neg_infinity;
    load_hi = infinity;
    load_max = infinity;
    slew_max = infinity;
  }

let window_allows w ~slew ~load =
  slew >= w.slew_min && slew <= w.slew_max && load >= w.load_min && load <= w.load_max

let lut_window lut ~ceiling =
  (* "Values in the equivalent table which are smaller than the
     threshold will become a logic one" -- <= keeps the ceiling value
     itself usable, matching the sigma-ceiling sweep's intent. *)
  match Rectangle.naive_largest (Binary_lut.of_ceiling lut ~ceiling) with
  | None -> Unusable
  | Some rect ->
    let slews = Lut.slews lut and loads = Lut.loads lut in
    Window
      {
        slew_min = slews.(rect.Rectangle.row_lo);
        slew_max = slews.(rect.Rectangle.row_hi);
        load_min = loads.(rect.Rectangle.col_lo);
        load_max = loads.(rect.Rectangle.col_hi);
      }

let pin_window (pin : Pin.t) ~threshold =
  match List.filter_map Arc.worst_sigma pin.arcs with
  | [] -> Unrestricted
  | sigmas -> lut_window (Slope.max_equivalent_by_index sigmas) ~ceiling:threshold

let empty_table () : table = Hashtbl.create 512

(* A pin's window admits a point iff every bound does, so the
   intersection of a cell's windows admits exactly what each of them
   does.  [Float.min]/[Float.max] are commutative (NaN and signed zeros
   included), so the summary is independent of pin order. *)
let summarise pins =
  List.fold_left
    (fun s (_, status) ->
      match status with
      | Unrestricted -> s
      | Unusable ->
        { s with usable = false; load_max = Float.min s.load_max 0.0;
          slew_max = Float.min s.slew_max 0.0 }
      | Window w ->
        {
          s with
          windowed = true;
          slew_lo = Float.max s.slew_lo w.slew_min;
          slew_hi = Float.min s.slew_hi w.slew_max;
          load_lo = Float.max s.load_lo w.load_min;
          load_hi = Float.min s.load_hi w.load_max;
          load_max = Float.min s.load_max w.load_max;
          slew_max = Float.min s.slew_max w.slew_max;
        })
    unrestricted pins

let set table ~cell ~pin status =
  match Hashtbl.find_opt table cell with
  | Some e ->
    e.pins <- (pin, status) :: List.remove_assoc pin e.pins;
    e.summary <- summarise e.pins
  | None ->
    let pins = [ (pin, status) ] in
    Hashtbl.replace table cell { pins; summary = summarise pins }

let find table ~cell ~pin =
  match Hashtbl.find_opt table cell with
  | None -> Unrestricted
  | Some e -> Option.value (List.assoc_opt pin e.pins) ~default:Unrestricted

let allows table ~cell ~pin ~slew ~load =
  match find table ~cell ~pin with
  | Unrestricted -> true
  | Unusable -> false
  | Window w -> window_allows w ~slew ~load

let summary table ~cell =
  match Hashtbl.find_opt table cell with Some e -> e.summary | None -> unrestricted

let summary_allows s ~slew ~load =
  s.usable
  && ((not s.windowed)
     || (slew >= s.slew_lo && slew <= s.slew_hi && load >= s.load_lo && load <= s.load_hi))

let restricted_pins table =
  Hashtbl.fold
    (fun cell e acc ->
      List.fold_left (fun acc (pin, status) -> (cell, pin, status) :: acc) acc e.pins)
    table []
  |> List.sort compare

let restriction_fraction table lib =
  let total = ref 0 and removed = ref 0 in
  List.iter
    (fun (cell : Cell.t) ->
      List.iter
        (fun (p : Pin.t) ->
          match p.arcs with
          | [] -> ()
          | arc :: _ ->
            let rows, cols = Lut.dims arc.Arc.rise_delay in
            let entries = rows * cols in
            total := !total + entries;
            (match find table ~cell:cell.name ~pin:p.name with
            | Unrestricted -> ()
            | Unusable -> removed := !removed + entries
            | Window w ->
              let slews = Lut.slews arc.Arc.rise_delay in
              let loads = Lut.loads arc.Arc.rise_delay in
              let kept = ref 0 in
              Array.iter
                (fun s ->
                  Array.iter (fun l -> if window_allows w ~slew:s ~load:l then incr kept) loads)
                slews;
              removed := !removed + entries - !kept))
        (Cell.output_pins cell))
    (Library.cells lib);
  if !total = 0 then 0.0 else float_of_int !removed /. float_of_int !total
