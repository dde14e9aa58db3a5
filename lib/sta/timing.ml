module Netlist = Vartune_netlist.Netlist
module Check = Vartune_netlist.Check
module Cell = Vartune_liberty.Cell
module Pin = Vartune_liberty.Pin
module Arc = Vartune_liberty.Arc
module Obs = Vartune_obs.Obs

type config = {
  clock_period : float;
  guard_band : float;
  input_slew : float;
  clock_slew : float;
  output_load : float;
  wire_cap_base : float;
  wire_cap_per_sink : float;
  wire_caps : (Netlist.net_id -> float) option;
}

let default_config ~clock_period =
  {
    clock_period;
    guard_band = 0.3;
    input_slew = 0.05;
    clock_slew = 0.04;
    output_load = 0.004;
    wire_cap_base = 0.0002;
    wire_cap_per_sink = 0.00015;
    wire_caps = None;
  }

type endpoint =
  | Reg_data of { inst : Netlist.inst_id; pin : string }
  | Primary_output of Netlist.net_id

type endpoint_timing = {
  endpoint : endpoint;
  arrival : float;
  required : float;
  slack : float;
}

(* ------------------------------------------------------------------ *)
(* Levelized timing graph                                              *)
(* ------------------------------------------------------------------ *)

(* Endpoint slots are structural: which (instance, pin, net) triples
   and which primary outputs are checked.  The required values and the
   hold filter are re-read from the value arrays at each analysis. *)
type ep_slot =
  | Sreg of { inst : Netlist.inst_id; pin : string; net : int }
  | Spo of int

(* One evaluation unit per driven output pin, stored in topological
   order (the level schedule) as parallel arrays indexed by eval.  The
   arcs of every eval are flattened into one slot range: eval [k] owns
   slots [e_arc0.(k)] to [e_arc0.(k + 1) - 1], each slot holding the
   arc and its resolved input net, so the propagation loops never walk
   association lists or pin records.  [arcs] and [arc_in] are the
   fields a cell swap (Netlist.set_cell) refreshes in place; a swap
   that keeps the footprint keeps the slot count. *)
type graph = {
  nl : Netlist.t;
  n_nets : int;
  n_insts : int;  (* live instances at build time, for edit detection *)
  e_inst : int array;
  e_out_pin : string array;
  e_out_net : int array;
  e_seq : bool array;
  e_arc0 : int array;  (* eval -> first arc slot; length evals + 1 *)
  arcs : Arc.t array;  (* slot -> arc *)
  arc_in : int array;  (* slot -> input net, -1 = unconnected *)
  eval_of_net : int array;  (* net -> driving eval, -1 if undriven *)
  inst_eval : int array;
      (* instance id -> its first eval, -1 if none; an instance's evals
         are consecutive in the level order *)
  cons0 : int array;
      (* CSR over nets (length nets + 1): entries [cons0.(n)] to
         [cons0.(n + 1) - 1] are the combinational arcs reading net [n],
         in ascending (eval, slot) order — the forward fanout and the
         backward required-time contributions alike *)
  cons_eval : int array;
  cons_slot : int array;
  ep_slots : ep_slot array;
}

let n_evals g = Array.length g.e_out_net

(* Structure-of-arrays timing state over the graph: one flat float
   array per quantity, indexed by net, plus the winning-arc index per
   net for path backtracing and the interpolated delay of every arc
   slot, which the backward pass reads instead of interpolating again.
   [run] allocates it; [retime] updates it in place. *)
type t = {
  cfg : config;
  graph : graph;
  loads : float array;
  arrivals : float array;
  slews : float array;
  requireds : float array;
  min_arrivals : float array;  (* earliest register-launched arrival *)
  crit_idx : int array;  (* net -> winning arc index within its driver's slots *)
  arc_delay : float array;  (* slot -> delay at the current slew and load *)
  ep_seed : float array;  (* net -> tightest endpoint required, or inf *)
  (* Arc.eval_into scratch (delay, min_delay, transition, spare).  The
     analysis is single-domain — the pool parallelises across analyses,
     never inside one — so one buffer per graph is race-free and keeps
     the forward sweep allocation-free. *)
  arc_out : float array;
  mutable eps : endpoint_timing list;
  mutable hold_eps : endpoint_timing list;
}

let config t = t.cfg

(* Netlist edits made after an analysis may create nets the arrays don't
   cover; those read as neutral defaults until the next [run]. *)
let in_range t nid = nid >= 0 && nid < Array.length t.loads
let net_load t nid = if in_range t nid then t.loads.(nid) else 0.0
let net_arrival t nid = if in_range t nid then t.arrivals.(nid) else 0.0
let net_slew t nid = if in_range t nid then t.slews.(nid) else t.cfg.input_slew
let net_required t nid = if in_range t nid then t.requireds.(nid) else infinity
let net_slack t nid = net_required t nid -. net_arrival t nid
let net_min_arrival t nid = if in_range t nid then t.min_arrivals.(nid) else infinity
let hold_endpoints t = t.hold_eps

let worst_hold_slack t =
  List.fold_left (fun acc ep -> Float.min acc ep.slack) infinity t.hold_eps

let critical_input t inst ~out_pin =
  match Netlist.instance_opt t.graph.nl inst with
  | None -> None
  | Some i -> (
    match List.assoc_opt out_pin i.Netlist.outputs with
    | None -> None
    | Some nid ->
      if not (in_range t nid) then None
      else begin
        let ai = t.crit_idx.(nid) in
        let k = t.graph.eval_of_net.(nid) in
        if ai < 0 || k < 0 then None
        else begin
          let s = t.graph.e_arc0.(k) + ai in
          let arc = t.graph.arcs.(s) in
          Some (arc.Arc.related_pin, arc, t.arc_delay.(s))
        end
      end)

let endpoints t = t.eps

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)
(* ------------------------------------------------------------------ *)

(* Cell.find_pin without the closure and option it allocates: the
   graph build and the load sum ask once per pin connection.  [no_pin]
   stands for "not found". *)
let no_pin = Pin.input ~name:"" ~capacitance:0.0

let rec pin_named name = function
  | [] -> no_pin
  | (p : Pin.t) :: rest -> if String.equal p.name name then p else pin_named name rest

let output_pin (cell : Cell.t) name =
  let p = pin_named name cell.pins in
  if p != no_pin && p.Pin.direction = Pin.Output then p else no_pin

let rec input_net pin = function
  | [] -> -1
  | (p, n) :: rest -> if String.equal p pin then n else input_net pin rest

(* The build walks the netlist's lists through recursive helpers
   defined once per build rather than List.iter closures allocated per
   instance, and never allocates per net beyond the arrays it fills. *)
let build_graph nl =
  Obs.span "sta.build" @@ fun () ->
  let order = Check.topological_order nl in
  let n_nets = Netlist.net_count nl in
  (* first pass: size the eval and slot arrays *)
  let n_evals = ref 0 and n_slots = ref 0 and some_arc = ref None in
  let rec count_outputs cell = function
    | [] -> ()
    | (name, _) :: rest ->
      let p = output_pin cell name in
      if p != no_pin then begin
        incr n_evals;
        n_slots := !n_slots + List.length p.Pin.arcs;
        match (!some_arc, p.arcs) with None, a :: _ -> some_arc := Some a | _ -> ()
      end;
      count_outputs cell rest
  in
  let id_bound = ref 0 in
  Array.iter
    (fun id ->
      let inst = Netlist.instance nl id in
      id_bound := max !id_bound (id + 1);
      count_outputs inst.Netlist.cell inst.outputs)
    order;
  let ne = !n_evals and ns = !n_slots in
  let e_inst = Array.make ne 0 in
  let e_out_pin = Array.make ne "" in
  let e_out_net = Array.make ne 0 in
  let e_seq = Array.make ne false in
  let e_arc0 = Array.make (ne + 1) ns in
  let arcs = match !some_arc with None -> [||] | Some a -> Array.make ns a in
  let arc_in = Array.make ns (-1) in
  let inst_eval = Array.make !id_bound (-1) in
  (* second pass: fill them in level order *)
  let k = ref 0 and s = ref 0 in
  let rec fill_arcs inputs = function
    | [] -> ()
    | (arc : Arc.t) :: rest ->
      arcs.(!s) <- arc;
      arc_in.(!s) <- input_net arc.related_pin inputs;
      incr s;
      fill_arcs inputs rest
  in
  let rec fill_outputs (inst : Netlist.instance) seq = function
    | [] -> ()
    | (name, out_net) :: rest ->
      let p = output_pin inst.cell name in
      if p != no_pin then begin
        if inst_eval.(inst.inst_id) < 0 then inst_eval.(inst.inst_id) <- !k;
        e_inst.(!k) <- inst.inst_id;
        e_out_pin.(!k) <- name;
        e_out_net.(!k) <- out_net;
        e_seq.(!k) <- seq;
        e_arc0.(!k) <- !s;
        fill_arcs inst.inputs p.Pin.arcs;
        incr k
      end;
      fill_outputs inst seq rest
  in
  Array.iter
    (fun id ->
      let inst = Netlist.instance nl id in
      fill_outputs inst (Cell.is_sequential inst.cell) inst.outputs)
    order;
  let eval_of_net = Array.make n_nets (-1) in
  let cons0 = Array.make (n_nets + 1) 0 in
  for k = 0 to ne - 1 do
    eval_of_net.(e_out_net.(k)) <- k;
    if not e_seq.(k) then
      for s = e_arc0.(k) to e_arc0.(k + 1) - 1 do
        let innet = arc_in.(s) in
        if innet >= 0 then cons0.(innet + 1) <- cons0.(innet + 1) + 1
      done
  done;
  for n = 1 to n_nets do
    cons0.(n) <- cons0.(n) + cons0.(n - 1)
  done;
  let cons_eval = Array.make cons0.(n_nets) 0 in
  let cons_slot = Array.make cons0.(n_nets) 0 in
  let next = Array.sub cons0 0 n_nets in
  for k = 0 to ne - 1 do
    if not e_seq.(k) then
      for s = e_arc0.(k) to e_arc0.(k + 1) - 1 do
        let innet = arc_in.(s) in
        if innet >= 0 then begin
          let c = next.(innet) in
          cons_eval.(c) <- k;
          cons_slot.(c) <- s;
          next.(innet) <- c + 1
        end
      done
  done;
  (* endpoint slots in the order endpoint lists are reported: register
     data pins in instance order, then primary outputs *)
  let slots = ref [] in
  Netlist.iter_instances nl ~f:(fun inst ->
      if Cell.is_sequential inst.Netlist.cell then
        List.iter
          (fun (pin_name, nid) ->
            if Some pin_name <> inst.cell.Cell.clock_pin then
              slots := Sreg { inst = inst.inst_id; pin = pin_name; net = nid } :: !slots)
          inst.inputs);
  List.iter (fun nid -> slots := Spo nid :: !slots) (Netlist.primary_outputs nl);
  {
    nl;
    n_nets;
    n_insts = Netlist.instance_count nl;
    e_inst;
    e_out_pin;
    e_out_net;
    e_seq;
    e_arc0;
    arcs;
    arc_in;
    eval_of_net;
    inst_eval;
    cons0;
    cons_eval;
    cons_slot;
    ep_slots = Array.of_list (List.rev !slots);
  }

(* The evals of one instance: consecutive from [inst_eval]. *)
let iter_inst_evals g inst_id f =
  if inst_id >= 0 && inst_id < Array.length g.inst_eval then begin
    let k = ref g.inst_eval.(inst_id) in
    if !k >= 0 then
      while !k < n_evals g && g.e_inst.(!k) = inst_id do
        f !k;
        incr k
      done
  end

(* ------------------------------------------------------------------ *)
(* Per-net load                                                        *)
(* ------------------------------------------------------------------ *)

(* Shared by the full analysis and the incremental load refresh so a
   recomputed load is bit-identical to a fresh one: the sink fold runs
   in the net's sink-list order either way. *)
let compute_net_load cfg nl ~is_po (net : Netlist.net) =
  let nid = net.Netlist.net_id in
  let sink_caps = ref 0.0 and n_sinks = ref 0 and rest = ref net.sinks in
  while !rest != [] do
    match !rest with
    | [] -> ()
    | (r : Netlist.pin_ref) :: tl ->
      let p = pin_named r.pin (Netlist.instance nl r.inst).cell.Cell.pins in
      if p != no_pin then sink_caps := !sink_caps +. p.Pin.capacitance;
      incr n_sinks;
      rest := tl
  done;
  let n_sinks = !n_sinks in
  let wire =
    if n_sinks = 0 then 0.0
    else
      match cfg.wire_caps with
      | Some f -> f nid
      | None -> cfg.wire_cap_base +. (cfg.wire_cap_per_sink *. float_of_int n_sinks)
  in
  let external_load = if is_po.(nid) then cfg.output_load else 0.0 in
  !sink_caps +. wire +. external_load

(* net -> is a primary output, read afresh from the netlist *)
let po_flags nl =
  let po = Array.make (Netlist.net_count nl) false in
  List.iter (fun nid -> po.(nid) <- true) (Netlist.primary_outputs nl);
  po

(* ------------------------------------------------------------------ *)
(* Node evaluation (shared by full run and retime)                     *)
(* ------------------------------------------------------------------ *)

let c_sta_runs = Obs.Counter.make "sta.runs"
let c_retimes = Obs.Counter.make "sta.retimes"
let c_node_evals = Obs.Counter.make "sta.node_evals"
let c_required_evals = Obs.Counter.make "sta.required_evals"

(* Forward evaluation of one node: fused arrival/slew (late) and
   min-arrival (hold) propagation over the node's arcs, recording each
   arc's delay in its slot.  Pure in the upstream arrays, so
   re-evaluating with unchanged inputs reproduces the stored values
   bit-for-bit — the invariant [retime] rests on.  The three input
   values are read separately rather than as one tuple: without
   flambda a tuple of floats is allocated (and its floats boxed) on
   every arc. *)
let eval_forward t k =
  Obs.Counter.incr c_node_evals;
  let g = t.graph in
  let out = Array.unsafe_get g.e_out_net k in
  let s0 = Array.unsafe_get g.e_arc0 k in
  let s1 = Array.unsafe_get g.e_arc0 (k + 1) in
  if s0 = s1 then begin
    (* tie cells: constant output, clean edge, no hold constraint *)
    t.arrivals.(out) <- 0.0;
    t.slews.(out) <- t.cfg.input_slew;
    t.min_arrivals.(out) <- infinity;
    t.crit_idx.(out) <- -1
  end
  else begin
    let seq = Array.unsafe_get g.e_seq k in
    let load = t.loads.(out) in
    let best = ref neg_infinity in
    let best_slew = ref 0.0 in
    let best_idx = ref (-1) in
    let mina = ref infinity in
    for s = s0 to s1 - 1 do
      let innet = Array.unsafe_get g.arc_in s in
      let in_slew =
        if seq then t.cfg.clock_slew
        else if innet < 0 then t.cfg.input_slew
        else Array.unsafe_get t.slews innet
      in
      (* One fused segment search yields delay, min_delay and
         transition together (the arc's tables share axes); each value
         is bit-identical to the scalar Arc.delay/min_delay/transition
         queries. *)
      Arc.eval_into (Array.unsafe_get g.arcs s) ~slew:in_slew ~load ~out:t.arc_out;
      let delay = Array.unsafe_get t.arc_out 0 in
      Array.unsafe_set t.arc_delay s delay;
      let arrival =
        (if seq || innet < 0 then 0.0 else Array.unsafe_get t.arrivals innet) +. delay
      in
      if arrival > !best then begin
        best := arrival;
        best_idx := s - s0
      end;
      let out_slew = Array.unsafe_get t.arc_out 2 in
      if out_slew > !best_slew then best_slew := out_slew;
      let in_min =
        if seq then 0.0
        else if innet < 0 then infinity
        else Array.unsafe_get t.min_arrivals innet
      in
      if in_min < infinity then begin
        let m = in_min +. Array.unsafe_get t.arc_out 1 in
        if m < !mina then mina := m
      end
    done;
    t.arrivals.(out) <- !best;
    t.slews.(out) <- !best_slew;
    t.min_arrivals.(out) <- !mina;
    t.crit_idx.(out) <- !best_idx
  end

(* Required time of one net, recomputed from scratch: the tightest
   endpoint seed on the net, tightened by every consuming arc.  A
   consumer's delay is the one its forward evaluation stored: it was
   interpolated at this net's slew and the consumer's load, the same
   query as Arc.delay, so the result is pure in (ep_seed, slews,
   loads, downstream requireds) exactly as if re-interpolated. *)
let required_of_net t nid =
  Obs.Counter.incr c_required_evals;
  let g = t.graph in
  let r = ref t.ep_seed.(nid) in
  for c = g.cons0.(nid) to g.cons0.(nid + 1) - 1 do
    let out = Array.unsafe_get g.e_out_net (Array.unsafe_get g.cons_eval c) in
    let delay = Array.unsafe_get t.arc_delay (Array.unsafe_get g.cons_slot c) in
    r := Float.min !r (Array.unsafe_get t.requireds out -. delay)
  done;
  !r

(* ------------------------------------------------------------------ *)
(* Endpoint lists                                                      *)
(* ------------------------------------------------------------------ *)

let data_required cfg (cell : Cell.t) =
  cfg.clock_period -. cfg.guard_band -. cell.Cell.setup_time

let po_required cfg = cfg.clock_period -. cfg.guard_band

let rebuild_ep_seed t =
  let g = t.graph in
  let seed = t.ep_seed in
  Array.fill seed 0 (Array.length seed) infinity;
  Array.iter
    (function
      | Sreg { inst; net; _ } ->
        let cell = (Netlist.instance g.nl inst).Netlist.cell in
        seed.(net) <- Float.min seed.(net) (data_required t.cfg cell)
      | Spo net -> seed.(net) <- Float.min seed.(net) (po_required t.cfg))
    g.ep_slots

let rebuild_endpoint_lists t =
  let g = t.graph in
  let eps = ref [] and hold = ref [] in
  Array.iter
    (function
      | Sreg { inst; pin; net } ->
        let cell = (Netlist.instance g.nl inst).Netlist.cell in
        let arrival = t.arrivals.(net) in
        let required = data_required t.cfg cell in
        eps :=
          { endpoint = Reg_data { inst; pin }; arrival; required;
            slack = required -. arrival }
          :: !eps;
        if t.min_arrivals.(net) < infinity then begin
          let arrival = t.min_arrivals.(net) in
          let required = cell.Cell.hold_time in
          hold :=
            { endpoint = Reg_data { inst; pin }; arrival; required;
              slack = arrival -. required }
            :: !hold
        end
      | Spo net ->
        let arrival = t.arrivals.(net) in
        let required = po_required t.cfg in
        eps :=
          { endpoint = Primary_output net; arrival; required;
            slack = required -. arrival }
          :: !eps)
    g.ep_slots;
  t.eps <- List.rev !eps;
  t.hold_eps <- List.rev !hold

(* ------------------------------------------------------------------ *)
(* Full analysis                                                       *)
(* ------------------------------------------------------------------ *)

let analyse_full t =
  let g = t.graph in
  let is_po = po_flags g.nl in
  Netlist.iter_nets g.nl ~f:(fun net ->
      t.loads.(net.Netlist.net_id) <- compute_net_load t.cfg g.nl ~is_po net);
  let nevals = n_evals g in
  (* one span over the whole sweep, not per lookup: eval_forward runs
     millions of times and a span each would swamp the trace.  The GC
     delta attributed here is the LUT-interpolation allocation cost. *)
  Obs.span "sta.forward"
    ~attrs:(fun () -> [ ("evals", string_of_int nevals) ])
    (fun () ->
      for k = 0 to nevals - 1 do
        eval_forward t k
      done);
  rebuild_ep_seed t;
  (* backward: in reverse level order a net's consumers have all been
     processed before its driver, so one sweep settles every driven
     net; driverless nets (primary inputs) follow, depending only on
     already-settled downstream requireds *)
  for k = nevals - 1 downto 0 do
    let out = g.e_out_net.(k) in
    t.requireds.(out) <- required_of_net t out
  done;
  for nid = 0 to g.n_nets - 1 do
    if g.eval_of_net.(nid) < 0 then t.requireds.(nid) <- required_of_net t nid
  done;
  rebuild_endpoint_lists t

let run cfg nl =
  Obs.span "sta.run"
    ~attrs:(fun () -> [ ("nets", string_of_int (Netlist.net_count nl)) ])
  @@ fun () ->
  Obs.Counter.incr c_sta_runs;
  let graph = build_graph nl in
  let n = graph.n_nets in
  let t =
    {
      cfg;
      graph;
      loads = Array.make n 0.0;
      arrivals = Array.make n 0.0;
      slews = Array.make n cfg.input_slew;
      requireds = Array.make n infinity;
      min_arrivals = Array.make n infinity;
      crit_idx = Array.make n (-1);
      arc_delay = Array.make (Array.length graph.arcs) 0.0;
      ep_seed = Array.make n infinity;
      arc_out = Array.make 4 0.0;
      eps = [];
      hold_eps = [];
    }
  in
  analyse_full t;
  t

(* ------------------------------------------------------------------ *)
(* Incremental re-timing                                               *)
(* ------------------------------------------------------------------ *)

(* A changed instance is refreshable in place when its footprint still
   matches the graph: same pins, same sequential kind, and arcs whose
   related-pin sequence lines up with the slots built from the old
   cell.  Family ladders satisfy this; anything else falls back to a
   full rebuild. *)
let rec same_related_pins g s = function
  | [] -> true
  | (a : Arc.t) :: rest ->
    String.equal a.related_pin g.arcs.(s).Arc.related_pin && same_related_pins g (s + 1) rest

let refreshable g inst_id =
  match Netlist.instance_opt g.nl inst_id with
  | None -> false
  | Some inst ->
    let cell = inst.Netlist.cell in
    let ok = ref true in
    iter_inst_evals g inst_id (fun k ->
        ok :=
          !ok
          && g.e_seq.(k) = Cell.is_sequential cell
          &&
          let out_pin = output_pin cell g.e_out_pin.(k) in
          out_pin != no_pin
          && List.length out_pin.Pin.arcs = g.e_arc0.(k + 1) - g.e_arc0.(k)
          && same_related_pins g g.e_arc0.(k) out_pin.Pin.arcs);
    !ok

let bits = Int64.bits_of_float

(* mark every net eval [k]'s arcs read for a required-time refresh *)
let mark_inputs g breq k =
  for s = g.e_arc0.(k) to g.e_arc0.(k + 1) - 1 do
    let innet = g.arc_in.(s) in
    if innet >= 0 then breq.(innet) <- true
  done

let retime t ~changed =
  let g = t.graph in
  let nl = g.nl in
  if
    Netlist.net_count nl <> g.n_nets
    || Netlist.instance_count nl <> g.n_insts
    || not (List.for_all (refreshable g) changed)
  then run t.cfg nl (* structural edits: rebuild the graph from scratch *)
  else begin
    Obs.span "sta.retime"
      ~attrs:(fun () -> [ ("changed", string_of_int (List.length changed)) ])
    @@ fun () ->
    Obs.Counter.incr c_retimes;
    let nevals = n_evals g in
    let fwd_dirty = Array.make nevals false in
    let breq = Array.make g.n_nets false in
    let is_po = po_flags nl in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun inst_id ->
        if not (Hashtbl.mem seen inst_id) then begin
          Hashtbl.replace seen inst_id ();
          let inst = Netlist.instance nl inst_id in
          (* refresh the instance's arc slots from the new cell *)
          iter_inst_evals g inst_id (fun k ->
              (* [refreshable] vouched for the pin and its arc count *)
              List.iteri
                (fun i (arc : Arc.t) ->
                  let s = g.e_arc0.(k) + i in
                  g.arcs.(s) <- arc;
                  g.arc_in.(s) <- input_net arc.related_pin inst.inputs)
                (output_pin inst.Netlist.cell g.e_out_pin.(k)).Pin.arcs;
              fwd_dirty.(k) <- true;
              (* new arcs change this node's required contributions *)
              mark_inputs g breq k);
          (* the new cell's input pin capacitances change the loads of
             the nets feeding this instance *)
          List.iter
            (fun (_, nid) ->
              let old = t.loads.(nid) in
              let fresh = compute_net_load t.cfg nl ~is_po (Netlist.net nl nid) in
              if bits fresh <> bits old then begin
                t.loads.(nid) <- fresh;
                match g.eval_of_net.(nid) with
                | -1 -> ()
                | k ->
                  fwd_dirty.(k) <- true;
                  (* a load change shifts the driver's arc delays, and
                     with them its required contributions upstream *)
                  if not g.e_seq.(k) then mark_inputs g breq k
              end)
            inst.inputs
        end)
      changed;
    (* forward cone: sweep the level schedule, re-evaluating dirty
       nodes and marking their fanout only when an output actually
       changed (bitwise), so the cone stays as narrow as the values
       allow *)
    for k = 0 to nevals - 1 do
      if fwd_dirty.(k) then begin
        let out = g.e_out_net.(k) in
        let oa = t.arrivals.(out) and os = t.slews.(out) and om = t.min_arrivals.(out) in
        eval_forward t k;
        let slew_changed = bits os <> bits t.slews.(out) in
        if slew_changed then breq.(out) <- true;
        if
          slew_changed
          || bits oa <> bits t.arrivals.(out)
          || bits om <> bits t.min_arrivals.(out)
        then
          for c = g.cons0.(out) to g.cons0.(out + 1) - 1 do
            fwd_dirty.(g.cons_eval.(c)) <- true
          done
      end
    done;
    (* required-time fan-in: endpoint seeds that moved (a sequential
       cell swap changes its setup time) start the backward cone *)
    let old_seed = Array.copy t.ep_seed in
    rebuild_ep_seed t;
    for nid = 0 to g.n_nets - 1 do
      if bits old_seed.(nid) <> bits t.ep_seed.(nid) then breq.(nid) <- true
    done;
    for k = nevals - 1 downto 0 do
      let out = g.e_out_net.(k) in
      if breq.(out) then begin
        let old = t.requireds.(out) in
        let fresh = required_of_net t out in
        t.requireds.(out) <- fresh;
        if bits old <> bits fresh && not g.e_seq.(k) then mark_inputs g breq k
      end
    done;
    for nid = 0 to g.n_nets - 1 do
      if breq.(nid) && g.eval_of_net.(nid) < 0 then
        t.requireds.(nid) <- required_of_net t nid
    done;
    rebuild_endpoint_lists t;
    t
  end

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let worst_slack t =
  List.fold_left (fun acc ep -> Float.min acc ep.slack) infinity t.eps

let worst_endpoint t =
  match t.eps with
  | [] -> None
  | first :: rest ->
    Some (List.fold_left (fun acc ep -> if ep.slack < acc.slack then ep else acc) first rest)

let total_negative_slack t =
  List.fold_left (fun acc ep -> if ep.slack < 0.0 then acc +. ep.slack else acc) 0.0 t.eps

let endpoint_name nl = function
  | Reg_data { inst; pin } ->
    Printf.sprintf "%s/%s" (Netlist.instance nl inst).inst_name pin
  | Primary_output nid -> (Netlist.net nl nid).net_name
