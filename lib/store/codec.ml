module Grid = Vartune_util.Grid
module Lut = Vartune_liberty.Lut
module Arc = Vartune_liberty.Arc
module Pin = Vartune_liberty.Pin
module Cell = Vartune_liberty.Cell
module Library = Vartune_liberty.Library
module Netlist = Vartune_netlist.Netlist
module Timing = Vartune_sta.Timing
module Synthesis = Vartune_synth.Synthesis
module Sizer = Vartune_synth.Sizer
module Design_sigma = Vartune_stats.Design_sigma
module Dist = Vartune_stats.Dist

(* Bump on any layout change AND on any pipeline-semantics change that
   alters what a stage computes for the same key — see codec.mli. *)
let version = 2

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

type reader = { s : string; mutable pos : int }

let reader s = { s; pos = 0 }
let at_end r = r.pos = String.length r.s

let need r n =
  if n < 0 || r.pos + n > String.length r.s then
    corrupt "truncated payload (need %d bytes at %d of %d)" n r.pos (String.length r.s)

(* ------------------------------------------------------------------ *)
(* Primitives: fixed-width little-endian                               *)
(* ------------------------------------------------------------------ *)

let w_i64 b v = Buffer.add_int64_le b v

let r_i64 r =
  need r 8;
  let v = String.get_int64_le r.s r.pos in
  r.pos <- r.pos + 8;
  v

let w_int b v = w_i64 b (Int64.of_int v)
let r_int r = Int64.to_int (r_i64 r)

let w_bool b v = w_int b (if v then 1 else 0)

let r_bool r =
  match r_int r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "bad bool tag %d" n

let w_float b v = w_i64 b (Int64.bits_of_float v)
let r_float r = Int64.float_of_bits (r_i64 r)

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let r_string r =
  let n = r_int r in
  need r n;
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

(* Element count of a list/array about to be decoded: each element
   consumes at least one byte downstream, so a count beyond the
   remaining payload is corruption, not a huge allocation request. *)
let r_count r =
  let n = r_int r in
  if n < 0 || n > String.length r.s - r.pos then corrupt "bad element count %d" n;
  n

let w_list b w xs =
  w_int b (List.length xs);
  List.iter (fun x -> w b x) xs

let r_list r f = List.init (r_count r) (fun _ -> f r)

let w_option b w = function
  | None -> w_int b 0
  | Some x ->
    w_int b 1;
    w b x

let r_option r f =
  match r_int r with
  | 0 -> None
  | 1 -> Some (f r)
  | n -> corrupt "bad option tag %d" n

let w_float_array b a =
  w_int b (Array.length a);
  Array.iter (fun v -> w_float b v) a

let r_float_array r =
  let n = r_count r in
  Array.init n (fun _ -> r_float r)

(* ------------------------------------------------------------------ *)
(* Liberty: Grid / Lut / Arc / Pin / Cell / Library                    *)
(* ------------------------------------------------------------------ *)

(* Grids travel as their flat row-major backing array — the same bytes
   the old nested get/set walk produced, streamed without per-row
   structure or bounds checks. *)
let w_grid b g =
  let rows = Grid.rows g and cols = Grid.cols g in
  w_int b rows;
  w_int b cols;
  let data = Grid.unsafe_data g in
  for k = 0 to (rows * cols) - 1 do
    w_float b (Array.unsafe_get data k)
  done

let r_grid r =
  let rows = r_int r in
  let cols = r_int r in
  if rows <= 0 || cols <= 0 || rows * cols > String.length r.s - r.pos then
    corrupt "bad grid dimensions %dx%d" rows cols;
  let data = Array.make (rows * cols) 0.0 in
  for k = 0 to (rows * cols) - 1 do
    Array.unsafe_set data k (r_float r)
  done;
  Grid.of_flat ~rows ~cols data

let w_lut b lut =
  w_float_array b (Lut.slews lut);
  w_float_array b (Lut.loads lut);
  w_grid b (Lut.values lut)

let r_lut r =
  let slews = r_float_array r in
  let loads = r_float_array r in
  let values = r_grid r in
  Lut.make ~slews ~loads ~values

let sense_tag = function
  | Arc.Positive_unate -> 0
  | Arc.Negative_unate -> 1
  | Arc.Non_unate -> 2

let sense_of_tag = function
  | 0 -> Arc.Positive_unate
  | 1 -> Arc.Negative_unate
  | 2 -> Arc.Non_unate
  | n -> corrupt "bad arc sense tag %d" n

let w_arc b (a : Arc.t) =
  w_string b a.related_pin;
  w_int b (sense_tag a.sense);
  w_lut b a.rise_delay;
  w_lut b a.fall_delay;
  w_lut b a.rise_transition;
  w_lut b a.fall_transition;
  w_option b w_lut a.rise_delay_sigma;
  w_option b w_lut a.fall_delay_sigma;
  w_option b w_lut a.internal_power

let r_arc r =
  let related_pin = r_string r in
  let sense = sense_of_tag (r_int r) in
  let rise_delay = r_lut r in
  let fall_delay = r_lut r in
  let rise_transition = r_lut r in
  let fall_transition = r_lut r in
  let rise_delay_sigma = r_option r r_lut in
  let fall_delay_sigma = r_option r r_lut in
  let internal_power = r_option r r_lut in
  Arc.make ~related_pin ~sense ~rise_delay ~fall_delay ~rise_transition ~fall_transition
    ?rise_delay_sigma ?fall_delay_sigma ?internal_power ()

let w_pin b (p : Pin.t) =
  match p.direction with
  | Pin.Input ->
    w_int b 0;
    w_string b p.name;
    w_float b p.capacitance
  | Pin.Output ->
    w_int b 1;
    w_string b p.name;
    w_option b w_float p.max_capacitance;
    w_list b w_arc p.arcs

let r_pin r =
  match r_int r with
  | 0 ->
    let name = r_string r in
    let capacitance = r_float r in
    Pin.input ~name ~capacitance
  | 1 ->
    let name = r_string r in
    let max_capacitance = r_option r r_float in
    let arcs = r_list r r_arc in
    Pin.output ~name ?max_capacitance ~arcs ()
  | n -> corrupt "bad pin direction tag %d" n

let kind_tag = function
  | Cell.Combinational -> 0
  | Cell.Flip_flop -> 1
  | Cell.Latch -> 2

let kind_of_tag = function
  | 0 -> Cell.Combinational
  | 1 -> Cell.Flip_flop
  | 2 -> Cell.Latch
  | n -> corrupt "bad cell kind tag %d" n

let w_cell b (c : Cell.t) =
  w_string b c.name;
  w_string b c.family;
  w_int b c.drive_strength;
  w_int b (kind_tag c.kind);
  w_float b c.area;
  w_list b w_pin c.pins;
  w_float b c.setup_time;
  w_float b c.hold_time;
  w_option b w_string c.clock_pin;
  w_float b c.leakage

let r_cell r =
  let name = r_string r in
  let family = r_string r in
  let drive_strength = r_int r in
  let kind = kind_of_tag (r_int r) in
  let area = r_float r in
  let pins = r_list r r_pin in
  let setup_time = r_float r in
  let hold_time = r_float r in
  let clock_pin = r_option r r_string in
  let leakage = r_float r in
  Cell.make ~name ~family ~drive_strength ~kind ~area ~pins ~setup_time ~hold_time
    ?clock_pin ~leakage ()

let w_library b lib =
  w_string b (Library.name lib);
  w_string b (Library.corner lib);
  w_list b w_cell (Library.cells lib)

let r_library r =
  let name = r_string r in
  let corner = r_string r in
  let cells = r_list r r_cell in
  Library.make ~name ~corner ~cells

(* ------------------------------------------------------------------ *)
(* Cell tables                                                         *)
(*                                                                     *)
(* A netlist references the same library cell many times; an entry     *)
(* names each distinct cell once (names are unique within a library)   *)
(* and sites store indices.  The decoder resolves the names against    *)
(* the library the netlist was synthesised with.                       *)
(* ------------------------------------------------------------------ *)

type cell_table_enc = { index_of : (string, int) Hashtbl.t; mutable rev : string list }

let ct_create () = { index_of = Hashtbl.create 64; rev = [] }

let ct_index t (c : Cell.t) =
  match Hashtbl.find_opt t.index_of c.name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.index_of in
    Hashtbl.add t.index_of c.name i;
    t.rev <- c.name :: t.rev;
    i

let w_cell_table b t = w_list b w_string (List.rev t.rev)

let r_cell_table library r =
  Array.of_list
    (r_list r (fun r ->
         let name = r_string r in
         match Library.find_opt library name with
         | Some cell -> cell
         | None -> corrupt "cell %s is not in the library" name))

let ct_get table i =
  if i < 0 || i >= Array.length table then corrupt "cell index %d out of range" i;
  table.(i)

(* ------------------------------------------------------------------ *)
(* Design sigma                                                        *)
(* ------------------------------------------------------------------ *)

let w_design_sigma b (ds : Design_sigma.t) =
  w_float b ds.dist.Dist.mean;
  w_float b ds.dist.Dist.sigma;
  w_int b ds.paths;
  w_float b ds.worst_path_3sigma

let r_design_sigma r =
  let mean = r_float r in
  let sigma = r_float r in
  let paths = r_int r in
  let worst_path_3sigma = r_float r in
  { Design_sigma.dist = { Dist.mean; sigma }; paths; worst_path_3sigma }

(* ------------------------------------------------------------------ *)
(* Netlist + synthesis result                                          *)
(* ------------------------------------------------------------------ *)

let w_pin_ref b (p : Netlist.pin_ref) =
  w_int b p.Netlist.inst;
  w_string b p.Netlist.pin

let r_pin_ref r =
  let inst = r_int r in
  let pin = r_string r in
  { Netlist.inst; pin }

let w_port b (pin, nid) =
  w_string b pin;
  w_int b nid

let r_port r =
  let pin = r_string r in
  let nid = r_int r in
  (pin, nid)

let w_netlist b nl =
  let repr = Netlist.export nl in
  let ct = ct_create () in
  let body = Buffer.create 65536 in
  w_string body repr.Netlist.repr_name;
  w_int body (Array.length repr.Netlist.repr_nets);
  Array.iter
    (fun (name, driver, sinks) ->
      w_string body name;
      w_option body w_pin_ref driver;
      w_list body w_pin_ref sinks)
    repr.Netlist.repr_nets;
  w_int body (Array.length repr.Netlist.repr_instances);
  Array.iter
    (fun slot ->
      w_option body
        (fun body (name, cell, inputs, outputs) ->
          w_string body name;
          w_int body (ct_index ct cell);
          w_list body w_port inputs;
          w_list body w_port outputs)
        slot)
    repr.Netlist.repr_instances;
  w_list body (fun b v -> w_int b v) repr.Netlist.repr_pis;
  w_list body (fun b v -> w_int b v) repr.Netlist.repr_pos;
  w_option body (fun b v -> w_int b v) repr.Netlist.repr_clock;
  w_int body repr.Netlist.repr_name_counter;
  w_cell_table b ct;
  Buffer.add_buffer b body

let r_netlist ~library r =
  let table = r_cell_table library r in
  let repr_name = r_string r in
  let n_nets = r_count r in
  let repr_nets =
    Array.init n_nets (fun _ ->
        let name = r_string r in
        let driver = r_option r r_pin_ref in
        let sinks = r_list r r_pin_ref in
        (name, driver, sinks))
  in
  let n_insts = r_count r in
  let repr_instances =
    Array.init n_insts (fun _ ->
        r_option r (fun r ->
            let name = r_string r in
            let cell = ct_get table (r_int r) in
            let inputs = r_list r r_port in
            let outputs = r_list r r_port in
            (name, cell, inputs, outputs)))
  in
  let repr_pis = r_list r r_int in
  let repr_pos = r_list r r_int in
  let repr_clock = r_option r r_int in
  let repr_name_counter = r_int r in
  Netlist.import
    {
      Netlist.repr_name;
      repr_nets;
      repr_instances;
      repr_pis;
      repr_pos;
      repr_clock;
      repr_name_counter;
    }

let w_sizer b (s : Sizer.report) =
  w_int b s.iterations;
  w_int b s.resized;
  w_int b s.buffered;
  w_int b s.decomposed;
  w_int b s.downsized;
  w_int b s.window_violations

let r_sizer r =
  let iterations = r_int r in
  let resized = r_int r in
  let buffered = r_int r in
  let decomposed = r_int r in
  let downsized = r_int r in
  let window_violations = r_int r in
  { Sizer.iterations; resized; buffered; decomposed; downsized; window_violations }

let w_result b (res : Synthesis.result) =
  w_netlist b res.netlist;
  w_bool b res.feasible;
  w_float b res.worst_slack;
  w_float b res.area;
  w_int b res.instances;
  w_sizer b res.sizer

let r_result ~library ~timing_config r =
  let netlist = r_netlist ~library r in
  let feasible = r_bool r in
  let worst_slack = r_float r in
  let area = r_float r in
  let instances = r_int r in
  let sizer = r_sizer r in
  (* The sizer always leaves its timing equal to a fresh analysis of the
     final netlist, so recomputation reproduces the cold run's timing
     bit-for-bit.  A drift means the pipeline changed without a codec
     version bump — evict rather than trust the entry. *)
  let timing = Timing.run timing_config netlist in
  let recomputed = Timing.worst_slack timing in
  if not (Int64.equal (Int64.bits_of_float recomputed) (Int64.bits_of_float worst_slack))
  then
    corrupt "stored worst slack %.17g disagrees with recomputed timing %.17g" worst_slack
      recomputed;
  (* the other verdicts are functions of the netlist and its timing too *)
  if feasible <> (worst_slack >= 0.0) then corrupt "stored feasibility contradicts the slack";
  if instances <> Netlist.instance_count netlist then
    corrupt "stored instance count %d, netlist holds %d" instances
      (Netlist.instance_count netlist);
  let total = Netlist.total_area netlist in
  if not (Int64.equal (Int64.bits_of_float area) (Int64.bits_of_float total)) then
    corrupt "stored area %.17g disagrees with the netlist's %.17g" area total;
  (* the result is shared once decoded: build the endpoint-list cache
     now, so that no later reader writes it *)
  ignore (Timing.endpoints timing);
  { Synthesis.netlist; timing; feasible; worst_slack; area; instances; sizer }
