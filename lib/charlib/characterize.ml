module Lut = Vartune_liberty.Lut
module Arc = Vartune_liberty.Arc
module Pin = Vartune_liberty.Pin
module Cell = Vartune_liberty.Cell
module Library = Vartune_liberty.Library
module Corner = Vartune_process.Corner
module Mismatch = Vartune_process.Mismatch
module Spec = Vartune_stdcell.Spec
module Func = Vartune_stdcell.Func
module Obs = Vartune_obs.Obs

let c_cells = Obs.Counter.make "charlib.cells"
let c_arcs = Obs.Counter.make "charlib.arcs"

type config = {
  params : Delay_model.params;
  corner : Corner.t;
  slew_axis : float array;
  load_fractions : float array;
}

let default_config =
  {
    params = Delay_model.default;
    corner = Corner.typical;
    slew_axis = [| 0.01; 0.02; 0.04; 0.08; 0.16; 0.32; 0.64; 1.0 |];
    load_fractions = [| 0.015625; 0.03125; 0.0625; 0.125; 0.25; 0.5; 0.75; 1.0 |];
  }

let load_axis config spec ~drive =
  let max_cap = Spec.max_capacitance spec ~drive in
  Array.map (fun f -> f *. max_cap) config.load_fractions

let no_sample _spec ~drive:_ = Mismatch.zero_sample

let arc config spec ~drive ~sample ~input ~output =
  let corner_factor = Corner.delay_factor config.corner in
  let loads = load_axis config spec ~drive in
  let slews = config.slew_axis in
  let table f = Lut.of_fn ~slews ~loads f in
  let delay edge ~slew ~load =
    Delay_model.delay config.params spec ~drive ~output ~edge ~corner_factor ~sample ~slew
      ~load
  in
  let transition edge ~slew ~load =
    Delay_model.transition config.params spec ~drive ~output ~edge ~corner_factor ~sample
      ~slew ~load
  in
  let energy ~slew ~load =
    Delay_model.internal_energy config.params spec ~drive ~slew ~load
  in
  Obs.Counter.incr c_arcs;
  Arc.make ~related_pin:input
    ~sense:(Func.arc_sense spec.func ~input ~output)
    ~rise_delay:(table (delay Delay_model.Rise))
    ~fall_delay:(table (delay Delay_model.Fall))
    ~rise_transition:(table (transition Delay_model.Rise))
    ~fall_transition:(table (transition Delay_model.Fall))
    ~internal_power:(table energy) ()

let cell config ?(sample_for = no_sample) (spec : Spec.t) ~drive =
  Obs.Counter.incr c_cells;
  let sample = sample_for spec ~drive in
  let func = spec.func in
  let cap = Spec.input_capacitance spec ~drive in
  let input_pins =
    List.map (fun name -> Pin.input ~name ~capacitance:cap) (Func.input_names func)
  in
  let clock_pins =
    match Func.clock_name func with
    | None -> []
    | Some name -> [ Pin.input ~name ~capacitance:(cap *. 0.8) ]
  in
  (* Sequential cells launch from the clock pin; combinational cells have
     one arc per data input.  Tie cells have no arcs at all. *)
  let arc_inputs =
    match Func.clock_name func with
    | Some clock -> [ clock ]
    | None -> Func.input_names func
  in
  let output_pins =
    List.map
      (fun output ->
        let arcs = List.map (fun input -> arc config spec ~drive ~sample ~input ~output) arc_inputs in
        Pin.output ~name:output ~max_capacitance:(Spec.max_capacitance spec ~drive) ~arcs ())
      (Func.output_names func)
  in
  let kind =
    match func with
    | Func.Dff _ -> Cell.Flip_flop
    | Func.Dlat _ -> Cell.Latch
    | Func.Inv | Func.Buf | Func.Nand _ | Func.Nor _ | Func.And _ | Func.Or _
    | Func.Nand_b _ | Func.Nor_b _ | Func.Xor _ | Func.Xnor _ | Func.Mux2 | Func.Mux2_inv
    | Func.Mux4 | Func.Full_adder | Func.Half_adder | Func.Maj3 | Func.Tie_low
    | Func.Tie_high | Func.Delay_buf ->
      Cell.Combinational
  in
  Cell.make
    ~name:(Spec.cell_name spec ~drive)
    ~family:spec.family ~drive_strength:drive ~kind
    ~area:(Spec.area spec ~drive)
    ~pins:(input_pins @ clock_pins @ output_pins)
    ~setup_time:spec.setup_time ~hold_time:spec.hold_time
    ?clock_pin:(Func.clock_name func)
    ~leakage:(Delay_model.leakage spec ~drive) ()

let library config ?name ?sample_for specs =
  let name = Option.value name ~default:(Corner.name config.corner) in
  Obs.span "charlib.library"
    ~attrs:(fun () -> [ ("library", name); ("families", string_of_int (List.length specs)) ])
    (fun () ->
      let cells =
        List.concat_map
          (fun (spec : Spec.t) ->
            List.map (fun drive -> cell config ?sample_for spec ~drive) spec.drives)
          specs
      in
      Library.make ~name ~corner:(Corner.name config.corner) ~cells)

module Store = Vartune_store.Store
module Codec = Vartune_store.Codec

let store_log_src =
  Logs.Src.create "vartune.charlib" ~doc:"characterisation store checks"

module Store_log = (val Logs.src_log store_log_src : Logs.LOG)

(* Cheap structural sanity check on an artifact served by the store: the
   cell count is fully determined by the specs in the key, so a mismatch
   means the entry is logically corrupt even though its checksum and
   codec framing were fine.  Raising [Codec.Corrupt] makes the store
   evict the entry and the caller recompute rather than serve it. *)
let expected_cells specs =
  List.fold_left (fun acc (s : Spec.t) -> acc + List.length s.drives) 0 specs

let decode_library ~what ~specs r =
  let lib = Codec.r_library r in
  let expected = expected_cells specs in
  let actual = Library.size lib in
  if actual <> expected then begin
    Store_log.warn (fun m ->
        m "stored %s library has %d cells where the specs demand %d; discarding and \
           recomputing"
          what actual expected);
    raise
      (Codec.Corrupt
         (Printf.sprintf "%s library: %d cells, specs demand %d" what actual expected))
  end;
  lib

let add_config_to_key key config =
  let p = config.params in
  Store.Key.(
    key
    |> fun k ->
    floats k "model"
      [|
        p.Delay_model.tau; p.r_unit; p.k_slew; p.vt_slew_gain; p.t_slew_base; p.k_trans;
        p.k_trans_slew; p.self_load;
      |]
    |> fun k ->
    str k "corner" (Corner.name config.corner) |> fun k ->
    floats k "slews" config.slew_axis |> fun k -> floats k "loads" config.load_fractions)

let add_specs_to_key key specs =
  List.fold_left
    (fun k (spec : Spec.t) ->
      Store.Key.str k "family"
        (Printf.sprintf "%s:%s" spec.family
           (String.concat "," (List.map string_of_int spec.drives))))
    key specs

let nominal ?(specs = Vartune_stdcell.Catalog.specs) ?store config =
  let key = add_specs_to_key (add_config_to_key (Store.Key.v "nominal") config) specs in
  fst
    (Store.fetch (Option.to_list store) key
       (decode_library ~what:"nominal" ~specs)
       (fun lib b -> Codec.w_library b lib)
       (fun () -> library config specs))
