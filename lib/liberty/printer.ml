(* Renders the library into Buffers with explicit indentation.
   Floats use the shared round-trip convention (Floatfmt). *)
let add_float = Vartune_util.Floatfmt.add_buffer

(* Starts a new line indented by [ind] spaces and writes [s]. *)
let line b ind s =
  Buffer.add_char b '\n';
  for _ = 1 to ind do Buffer.add_char b ' ' done;
  Buffer.add_string b s

(* ["x0, x1, ..."] with the quotes. *)
let add_row b n get =
  Buffer.add_char b '"';
  for j = 0 to n - 1 do
    if j > 0 then Buffer.add_string b ", ";
    add_float b (get j)
  done;
  Buffer.add_char b '"'

let add_axis b axis = add_row b (Array.length axis) (Array.get axis)

let add_table b ind name lut =
  line b ind name;
  Buffer.add_string b "() {";
  line b (ind + 2) "index_1(";
  add_axis b (Lut.slews lut);
  Buffer.add_string b ");";
  line b (ind + 2) "index_2(";
  add_axis b (Lut.loads lut);
  Buffer.add_string b ");";
  line b (ind + 2) "values(";
  let rows, cols = Lut.dims lut in
  for i = 0 to rows - 1 do
    if i > 0 then (Buffer.add_char b ','; line b (ind + 4) "");
    add_row b cols (Lut.get lut i)
  done;
  Buffer.add_string b ");";
  line b ind "}"

(* [key : x;] on a new line. *)
let num b ind key x =
  line b ind key;
  Buffer.add_string b " : ";
  add_float b x;
  Buffer.add_char b ';'

let add_arc b ind (arc : Arc.t) =
  line b ind "timing() {";
  line b (ind + 2) (Printf.sprintf "related_pin : \"%s\";" arc.related_pin);
  line b (ind + 2) ("timing_sense : " ^ Arc.sense_to_string arc.sense ^ ";");
  let table name lut = add_table b (ind + 2) name lut in
  table "cell_rise" arc.rise_delay;
  table "cell_fall" arc.fall_delay;
  table "rise_transition" arc.rise_transition;
  table "fall_transition" arc.fall_transition;
  Option.iter (table "cell_rise_sigma") arc.rise_delay_sigma;
  Option.iter (table "cell_fall_sigma") arc.fall_delay_sigma;
  Option.iter (table "internal_power") arc.internal_power;
  line b ind "}"

let add_pin b ind (pin : Pin.t) =
  line b ind (Printf.sprintf "pin(%s) {" pin.name);
  line b (ind + 2) ("direction : " ^ Pin.direction_to_string pin.direction ^ ";");
  (match pin.direction with
  | Pin.Input -> num b (ind + 2) "capacitance" pin.capacitance
  | Pin.Output ->
    Option.iter (num b (ind + 2) "max_capacitance") pin.max_capacitance;
    List.iter (add_arc b (ind + 2)) pin.arcs);
  line b ind "}"

let add_cell b ind (cell : Cell.t) =
  let num = num b (ind + 2) in
  line b ind (Printf.sprintf "cell(%s) {" cell.name);
  line b (ind + 2) (Printf.sprintf "family : \"%s\";" cell.family);
  line b (ind + 2) (Printf.sprintf "drive_strength : %d;" cell.drive_strength);
  line b (ind + 2) (Printf.sprintf "kind : \"%s\";" (Cell.kind_to_string cell.kind));
  num "area" cell.area;
  num "cell_leakage_power" cell.leakage;
  if Cell.is_sequential cell then begin
    num "setup_time" cell.setup_time;
    num "hold_time" cell.hold_time;
    Option.iter (fun p -> line b (ind + 2) (Printf.sprintf "clock_pin : \"%s\";" p)) cell.clock_pin
  end;
  List.iter (add_pin b (ind + 2)) cell.pins;
  line b ind "}"

(* Pool tasks render contiguous runs of cells, one buffer per cell; the
   header, the cells in input order and the closing brace are then
   blitted once into a string of the exact total length.  The bytes are
   those of a serial render at any job count and run size. *)
let to_string ?pool lib =
  let pool = match pool with Some p -> p | None -> Vartune_util.Pool.default () in
  let head = Buffer.create 256 in
  Buffer.add_string head (Printf.sprintf "library(%s) {" (Library.name lib));
  line head 2 (Printf.sprintf "corner : \"%s\";" (Library.corner lib));
  let bodies =
    Vartune_util.Pool.map_chunked pool
      (fun cell ->
        let b = Buffer.create 32768 in
        add_cell b 2 cell;
        b)
      (Library.cells lib)
  in
  let tail = Buffer.create 4 in
  line tail 0 "}\n";
  let parts = (head :: bodies) @ [ tail ] in
  let out = Bytes.create (List.fold_left (fun n b -> n + Buffer.length b) 0 parts) in
  ignore
    (List.fold_left
       (fun pos b ->
         Buffer.blit b 0 out pos (Buffer.length b);
         pos + Buffer.length b)
       0 parts);
  Bytes.unsafe_to_string out

let write_file path lib =
  let text = to_string lib in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
