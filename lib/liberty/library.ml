type t = {
  name : string;
  corner : string;
  cells : Cell.t list;
  by_name : (string, Cell.t) Hashtbl.t;
  by_family : (string, Cell.t list) Hashtbl.t;  (* ascending drive strength *)
}

let make ~name ~corner ~cells =
  let by_name = Hashtbl.create (List.length cells) in
  List.iter
    (fun (c : Cell.t) ->
      if Hashtbl.mem by_name c.name then
        invalid_arg (Printf.sprintf "Library.make: duplicate cell %s" c.name);
      Hashtbl.add by_name c.name c)
    cells;
  (* each family in library order, then stably by drive strength: the
     sizer asks for a ladder on every resize move *)
  let by_family = Hashtbl.create 64 in
  List.iter
    (fun (c : Cell.t) ->
      let members = Option.value (Hashtbl.find_opt by_family c.family) ~default:[] in
      Hashtbl.replace by_family c.family (c :: members))
    (List.rev cells);
  Hashtbl.filter_map_inplace
    (fun _ members ->
      Some
        (List.stable_sort
           (fun (a : Cell.t) (b : Cell.t) -> compare a.drive_strength b.drive_strength)
           members))
    by_family;
  { name; corner; cells; by_name; by_family }

let name t = t.name
let corner t = t.corner
let cells t = t.cells
let size t = List.length t.cells
let find t cell_name = Hashtbl.find t.by_name cell_name
let find_opt t cell_name = Hashtbl.find_opt t.by_name cell_name
let mem t cell_name = Hashtbl.mem t.by_name cell_name

let families t =
  List.sort_uniq String.compare (List.map (fun (c : Cell.t) -> c.family) t.cells)

let family_members t family = Option.value (Hashtbl.find_opt t.by_family family) ~default:[]

let drive_cluster t strength =
  List.filter (fun (c : Cell.t) -> c.drive_strength = strength) t.cells

let filter t ~f = make ~name:t.name ~corner:t.corner ~cells:(List.filter f t.cells)
let map_cells t ~f = make ~name:t.name ~corner:t.corner ~cells:(List.map f t.cells)
let total_area t = List.fold_left (fun acc (c : Cell.t) -> acc +. c.area) 0.0 t.cells
