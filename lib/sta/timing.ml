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
(* Extensible timing graph                                             *)
(* ------------------------------------------------------------------ *)

(* What the endpoint lists need of a register, as of the last analysis:
   its cell (setup and hold times) and its checked data pins with their
   nets, in input order. *)
type register = { cell : Cell.t; data : (string * int) list }

(* One evaluation unit ("eval") per driven output pin, as parallel
   arrays indexed by eval id.  The arcs of every eval are flattened into
   one slot range: eval [k] owns slots [e_arc0.(k)] to
   [e_arc0.(k + 1) - 1], each slot holding the arc and its resolved
   input net, so the propagation loops never walk association lists or
   pin records.

   The graph grows with the netlist.  [retime] appends the evals of
   added instances, and of re-celled ones whose arc shape changed, at
   the end; it tombstones the evals of removed instances ([e_inst] =
   -1, their slots left dead) and repoints [eval_of_net] at a net's new
   driver.  Eval ids therefore carry no order: the level schedule is
   [order], re-derived with the reader CSR from the integer arrays
   alone whenever the wiring of the arcs changed.  The arrays keep
   geometric headroom; the [n_*] fields count what is in use. *)
type graph = {
  nl : Netlist.t;
  mutable log_pos : int;  (* the netlist edit-log position reflected *)
  mutable n_nets : int;
  mutable n_evals : int;  (* eval ids in use, tombstones included *)
  mutable n_slots : int;
  mutable e_inst : int array;  (* eval -> instance, -1 = tombstone *)
  mutable e_out_pin : string array;
  mutable e_out_net : int array;
  mutable e_seq : bool array;
  mutable e_arc0 : int array;  (* eval -> first arc slot; [e_arc0.(n_evals)] = [n_slots] *)
  mutable arcs : Arc.t array;  (* slot -> arc *)
  mutable arc_in : int array;  (* slot -> input net, -1 = unconnected *)
  mutable eval_of_net : int array;  (* net -> driving eval, -1 if undriven *)
  mutable is_po : bool array;
  mutable inst_eval : int array;
      (* instance id -> its first eval, -1 if none; an instance's evals
         have consecutive ids *)
  mutable regs : register option array;  (* instance id -> its register view *)
  mutable po_nets : int array;  (* primary outputs, in netlist order *)
  mutable order : int array;  (* the live evals in topological order *)
  mutable n_order : int;
  mutable cons0 : int array;
      (* CSR over nets (nets + 1 entries): entries [cons0.(n)] to
         [cons0.(n + 1) - 1] are the combinational arcs reading net [n],
         in ascending (eval, slot) order — the forward fanout and the
         backward required-time contributions alike *)
  mutable cons_eval : int array;
  mutable cons_slot : int array;
}

(* [a] if it holds [n] elements, else a copy with geometric headroom
   whose new tail holds [fill]. *)
let grow a n fill =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = Array.make (max n (len + (len / 2) + 16)) fill in
    Array.blit a 0 b 0 len;
    b
  end

(* Structure-of-arrays timing state over the graph: one flat float
   array per quantity, indexed by net, plus the winning-arc index per
   net for path backtracing and the interpolated delay of every arc
   slot, which the backward pass reads instead of interpolating again.
   [run] allocates it; [retime] updates it in place, growing the arrays
   with the graph.  Entries past [n_nets] hold the undriven defaults. *)
type t = {
  cfg : config;
  graph : graph;
  mutable loads : float array;
  mutable arrivals : float array;
  mutable slews : float array;
  mutable requireds : float array;
  mutable min_arrivals : float array;  (* earliest register-launched arrival *)
  mutable crit_idx : int array;  (* net -> winning arc index within its driver's slots *)
  mutable arc_delay : float array;  (* slot -> delay at the current slew and load *)
  mutable ep_seed : float array;  (* net -> tightest endpoint required, or inf *)
  (* Arc.eval_into scratch (delay, min_delay, transition, spare).  The
     analysis is single-domain — the pool parallelises across analyses,
     never inside one — so one buffer per graph is race-free and keeps
     the forward sweep allocation-free. *)
  arc_out : float array;
  mutable ep_lists : (endpoint_timing list * endpoint_timing list) option;
      (* setup and hold endpoint lists, built on first demand after each
         analysis that moved an endpoint.  Two domains forcing them at
         once both store equal lists. *)
  mutable moved : int array;  (* the nets whose slew bits the last retime changed... *)
  mutable n_moved : int;  (* ...in [moved.(0)] to [moved.(n_moved - 1)] *)
}

let config t = t.cfg

(* Nets created after the last [run] or [retime] read as neutral
   defaults until the next [retime] covers them. *)
let in_range t nid = nid >= 0 && nid < t.graph.n_nets
let net_load t nid = if in_range t nid then t.loads.(nid) else 0.0
let net_arrival t nid = if in_range t nid then t.arrivals.(nid) else 0.0
let net_slew t nid = if in_range t nid then t.slews.(nid) else t.cfg.input_slew
let net_required t nid = if in_range t nid then t.requireds.(nid) else infinity
let net_slack t nid = net_required t nid -. net_arrival t nid
let net_min_arrival t nid = if in_range t nid then t.min_arrivals.(nid) else infinity

let critical_arc t nid =
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
  end

let critical_input t inst ~out_pin =
  match Netlist.instance_opt t.graph.nl inst with
  | None -> None
  | Some i -> (
    match List.assoc_opt out_pin i.Netlist.outputs with
    | None -> None
    | Some nid -> critical_arc t nid)

(* ------------------------------------------------------------------ *)
(* Graph construction and growth                                       *)
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

(* Make room for eval id [k] and instance id [inst]. *)
let reserve_eval g k inst =
  g.e_inst <- grow g.e_inst (k + 1) (-1);
  g.e_out_pin <- grow g.e_out_pin (k + 1) "";
  g.e_out_net <- grow g.e_out_net (k + 1) 0;
  g.e_seq <- grow g.e_seq (k + 1) false;
  g.e_arc0 <- grow g.e_arc0 (k + 2) 0;
  g.inst_eval <- grow g.inst_eval (inst + 1) (-1);
  g.regs <- grow g.regs (inst + 1) None

(* Append one eval per output pin of [inst], with its arcs in pin
   order, and make each the driver of its output net.  The netlist's
   lists are walked by recursive helpers rather than List.iter closures
   allocated per instance. *)
let append_evals g (inst : Netlist.instance) =
  let id = inst.inst_id in
  let seq = Cell.is_sequential inst.cell in
  let first = g.n_evals in
  reserve_eval g first id;
  let rec fill_arcs = function
    | [] -> ()
    | (arc : Arc.t) :: rest ->
      g.arcs.(g.n_slots) <- arc;
      g.arc_in.(g.n_slots) <- input_net arc.related_pin inst.inputs;
      g.n_slots <- g.n_slots + 1;
      fill_arcs rest
  in
  let rec fill_outputs = function
    | [] -> ()
    | (name, out_net) :: rest ->
      let p = output_pin inst.cell name in
      if p != no_pin then begin
        let k = g.n_evals in
        reserve_eval g k id;
        (match p.Pin.arcs with
        | [] -> ()
        | a :: _ as arcs ->
          let n = g.n_slots + List.length arcs in
          g.arcs <- grow g.arcs n a;
          g.arc_in <- grow g.arc_in n (-1));
        g.e_inst.(k) <- id;
        g.e_out_pin.(k) <- name;
        g.e_out_net.(k) <- out_net;
        g.e_seq.(k) <- seq;
        g.e_arc0.(k) <- g.n_slots;
        fill_arcs p.arcs;
        g.n_evals <- k + 1;
        g.e_arc0.(k + 1) <- g.n_slots;
        g.eval_of_net.(out_net) <- k
      end;
      fill_outputs rest
  in
  fill_outputs inst.outputs;
  g.inst_eval.(id) <- (if g.n_evals > first then first else -1)

(* The evals of one instance: consecutive from [inst_eval]. *)
let iter_inst_evals g inst_id f =
  if inst_id < Array.length g.inst_eval then begin
    let k = ref g.inst_eval.(inst_id) in
    if !k >= 0 then
      while !k < g.n_evals && g.e_inst.(!k) = inst_id do
        f !k;
        incr k
      done
  end

(* The reader CSR and the level order, from the integer arrays alone.
   The CSR lists every live combinational slot under the net it reads.
   The order is Kahn's algorithm over the evals: an eval waits for the
   driven inputs of its combinational arcs, sequential evals launch
   from the clock and wait for nothing, and the queue is the order.  An
   eval no release reaches sits on a combinational cycle. *)
let derive_schedule g =
  let nn = g.n_nets and ne = g.n_evals in
  let e_inst = g.e_inst and e_seq = g.e_seq and e_arc0 = g.e_arc0 in
  let arc_in = g.arc_in and eval_of_net = g.eval_of_net in
  let cons0 = grow g.cons0 (nn + 1) 0 in
  Array.fill cons0 0 (nn + 1) 0;
  let waiting = Array.make ne 0 in
  let live = ref 0 in
  for k = 0 to ne - 1 do
    if e_inst.(k) >= 0 then begin
      incr live;
      if not e_seq.(k) then
        for s = e_arc0.(k) to e_arc0.(k + 1) - 1 do
          let innet = arc_in.(s) in
          if innet >= 0 then begin
            cons0.(innet + 1) <- cons0.(innet + 1) + 1;
            if eval_of_net.(innet) >= 0 then waiting.(k) <- waiting.(k) + 1
          end
        done
    end
  done;
  for n = 1 to nn do
    cons0.(n) <- cons0.(n) + cons0.(n - 1)
  done;
  let cons_eval = grow g.cons_eval cons0.(nn) 0 in
  let cons_slot = grow g.cons_slot cons0.(nn) 0 in
  let next = Array.sub cons0 0 nn in
  for k = 0 to ne - 1 do
    if e_inst.(k) >= 0 && not e_seq.(k) then
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
  g.cons0 <- cons0;
  g.cons_eval <- cons_eval;
  g.cons_slot <- cons_slot;
  let queue = grow g.order ne 0 in
  let tail = ref 0 in
  for k = 0 to ne - 1 do
    if e_inst.(k) >= 0 && waiting.(k) = 0 then begin
      queue.(!tail) <- k;
      incr tail
    end
  done;
  let e_out_net = g.e_out_net in
  let head = ref 0 in
  while !head < !tail do
    let out = e_out_net.(queue.(!head)) in
    incr head;
    for c = cons0.(out) to cons0.(out + 1) - 1 do
      let j = cons_eval.(c) in
      waiting.(j) <- waiting.(j) - 1;
      if waiting.(j) = 0 then begin
        queue.(!tail) <- j;
        incr tail
      end
    done
  done;
  if !tail <> !live then
    raise
      (Check.Combinational_loop
         (Printf.sprintf "%d timing nodes unreached" (!live - !tail)));
  g.order <- queue;
  g.n_order <- !tail

(* Endpoints are structural: which register data pins and which
   primary outputs are checked.  The required values and the hold
   filter are re-read from the value arrays at each analysis. *)
let register_of (inst : Netlist.instance) =
  if Cell.is_sequential inst.cell then
    Some
      {
        cell = inst.cell;
        data = List.filter (fun (pin, _) -> Some pin <> inst.cell.Cell.clock_pin) inst.inputs;
      }
  else None

(* The graph of the whole netlist, its arrays sized exactly by a first
   counting pass; evals are appended in instance-id order. *)
let build_graph nl =
  Obs.span "sta.build" @@ fun () ->
  let n_evals = ref 0 and n_slots = ref 0 and some_arc = ref None and id_bound = ref 0 in
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
  Netlist.iter_instances nl ~f:(fun inst ->
      id_bound := inst.Netlist.inst_id + 1;
      count_outputs inst.cell inst.outputs);
  let ne = !n_evals and ns = !n_slots and n_nets = Netlist.net_count nl in
  let is_po = Array.make n_nets false in
  List.iter (fun nid -> is_po.(nid) <- true) (Netlist.primary_outputs nl);
  let g =
    {
      nl;
      log_pos = Netlist.edit_count nl;
      n_nets;
      n_evals = 0;
      n_slots = 0;
      e_inst = Array.make ne (-1);
      e_out_pin = Array.make ne "";
      e_out_net = Array.make ne 0;
      e_seq = Array.make ne false;
      e_arc0 = Array.make (ne + 1) 0;
      arcs = (match !some_arc with None -> [||] | Some a -> Array.make ns a);
      arc_in = Array.make ns (-1);
      eval_of_net = Array.make n_nets (-1);
      is_po;
      inst_eval = Array.make !id_bound (-1);
      regs = Array.make !id_bound None;
      po_nets = Array.of_list (Netlist.primary_outputs nl);
      order = Array.make ne 0;
      n_order = 0;
      cons0 = [||];
      cons_eval = [||];
      cons_slot = [||];
    }
  in
  Netlist.iter_instances nl ~f:(fun inst ->
      append_evals g inst;
      g.regs.(inst.inst_id) <- register_of inst);
  derive_schedule g;
  g

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

(* Endpoint lists report register data pins in instance order, then
   primary outputs. *)
let iter_register_pins g f =
  let regs = g.regs in
  for id = 0 to Array.length regs - 1 do
    match regs.(id) with
    | None -> ()
    | Some r -> List.iter (fun (pin, net) -> f id r.cell pin net) r.data
  done

let rebuild_ep_seed t =
  let g = t.graph in
  let seed = t.ep_seed in
  Array.fill seed 0 (Array.length seed) infinity;
  iter_register_pins g (fun _ cell _ net ->
      seed.(net) <- Float.min seed.(net) (data_required t.cfg cell));
  Array.iter (fun net -> seed.(net) <- Float.min seed.(net) (po_required t.cfg)) g.po_nets

let endpoint_lists t =
  match t.ep_lists with
  | Some lists -> lists
  | None ->
    let g = t.graph in
    let eps = ref [] and hold = ref [] in
    iter_register_pins g (fun inst cell pin net ->
        let arrival = t.arrivals.(net) in
        let required = data_required t.cfg cell in
        eps :=
          { endpoint = Reg_data { inst; pin }; arrival; required; slack = required -. arrival }
          :: !eps;
        if t.min_arrivals.(net) < infinity then begin
          let arrival = t.min_arrivals.(net) in
          let required = cell.Cell.hold_time in
          hold :=
            { endpoint = Reg_data { inst; pin }; arrival; required; slack = arrival -. required }
            :: !hold
        end);
    Array.iter
      (fun net ->
        let arrival = t.arrivals.(net) in
        let required = po_required t.cfg in
        eps :=
          { endpoint = Primary_output net; arrival; required; slack = required -. arrival }
          :: !eps)
      g.po_nets;
    let lists = (List.rev !eps, List.rev !hold) in
    t.ep_lists <- Some lists;
    lists

let endpoints t = fst (endpoint_lists t)
let hold_endpoints t = snd (endpoint_lists t)

(* The same slacks as [endpoints] lists, without building the list. *)
let worst_slack t =
  let worst = ref infinity in
  iter_register_pins t.graph (fun _ cell _ net ->
      worst := Float.min !worst (data_required t.cfg cell -. t.arrivals.(net)));
  Array.iter
    (fun net -> worst := Float.min !worst (po_required t.cfg -. t.arrivals.(net)))
    t.graph.po_nets;
  !worst

let worst_hold_slack t =
  List.fold_left (fun acc ep -> Float.min acc ep.slack) infinity (hold_endpoints t)

(* ------------------------------------------------------------------ *)
(* Full analysis                                                       *)
(* ------------------------------------------------------------------ *)

let run cfg nl =
  Obs.span "sta.run"
    ~attrs:(fun () -> [ ("nets", string_of_int (Netlist.net_count nl)) ])
  @@ fun () ->
  Obs.Counter.incr c_sta_runs;
  let g = build_graph nl in
  let n = g.n_nets in
  let t =
    {
      cfg;
      graph = g;
      loads = Array.make n 0.0;
      arrivals = Array.make n 0.0;
      slews = Array.make n cfg.input_slew;
      requireds = Array.make n infinity;
      min_arrivals = Array.make n infinity;
      crit_idx = Array.make n (-1);
      arc_delay = Array.make g.n_slots 0.0;
      ep_seed = Array.make n infinity;
      arc_out = Array.make 4 0.0;
      ep_lists = None;
      moved = [||];
      n_moved = 0;
    }
  in
  Netlist.iter_nets nl ~f:(fun net ->
      t.loads.(net.Netlist.net_id) <- compute_net_load cfg nl ~is_po:g.is_po net);
  (* one span over the whole sweep, not per lookup: eval_forward runs
     millions of times and a span each would swamp the trace.  The GC
     delta attributed here is the LUT-interpolation allocation cost. *)
  Obs.span "sta.forward"
    ~attrs:(fun () -> [ ("evals", string_of_int g.n_order) ])
    (fun () ->
      for i = 0 to g.n_order - 1 do
        eval_forward t g.order.(i)
      done);
  rebuild_ep_seed t;
  (* backward: in reverse level order a net's consumers have all been
     processed before its driver, so one sweep settles every driven
     net; driverless nets (primary inputs) follow, depending only on
     already-settled downstream requireds *)
  for i = g.n_order - 1 downto 0 do
    let out = g.e_out_net.(g.order.(i)) in
    t.requireds.(out) <- required_of_net t out
  done;
  for nid = 0 to n - 1 do
    if g.eval_of_net.(nid) < 0 then t.requireds.(nid) <- required_of_net t nid
  done;
  t

(* ------------------------------------------------------------------ *)
(* Incremental re-timing                                               *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

(* mark every net eval [k]'s arcs read for a required-time refresh *)
let mark_inputs g breq k =
  for s = g.e_arc0.(k) to g.e_arc0.(k + 1) - 1 do
    let innet = g.arc_in.(s) in
    if innet >= 0 then breq.(innet) <- true
  done

(* Cover nets [g.n_nets] to [n - 1]: the arrays grow, and the new
   entries hold what a fresh run gives a net before it is driven. *)
let cover_nets t n =
  let g = t.graph in
  let old = g.n_nets in
  let fill a x =
    let a = grow a n x in
    Array.fill a old (n - old) x;
    a
  in
  t.loads <- fill t.loads 0.0;
  t.arrivals <- fill t.arrivals 0.0;
  t.slews <- fill t.slews t.cfg.input_slew;
  t.requireds <- fill t.requireds infinity;
  t.min_arrivals <- fill t.min_arrivals infinity;
  t.crit_idx <- fill t.crit_idx (-1);
  t.ep_seed <- fill t.ep_seed infinity;
  g.eval_of_net <- fill g.eval_of_net (-1);
  g.is_po <- fill g.is_po false;
  (* no reader yet: an arc reading a new net re-derives the CSR *)
  let cons0 = grow g.cons0 (n + 1) 0 in
  Array.fill cons0 (old + 1) (n - old) cons0.(old);
  g.cons0 <- cons0;
  g.n_nets <- n

(* record that a retime changed [nid]'s slew bits *)
let slew_moved t nid =
  t.moved <- grow t.moved (t.n_moved + 1) 0;
  t.moved.(t.n_moved) <- nid;
  t.n_moved <- t.n_moved + 1

let iter_slew_changes t ~f =
  for i = 0 to t.n_moved - 1 do
    f t.moved.(i)
  done

(* A net that lost its driver reads as a primary input again. *)
let reset_undriven t nid =
  if bits t.slews.(nid) <> bits t.cfg.input_slew then slew_moved t nid;
  t.arrivals.(nid) <- 0.0;
  t.slews.(nid) <- t.cfg.input_slew;
  t.min_arrivals.(nid) <- infinity;
  t.crit_idx.(nid) <- -1

(* A re-celled instance keeps its evals when the new cell has the same
   shape: the same output pins with arcs, each with as many arcs, and
   the same sequential kind.  Family ladders always do. *)
let same_shape g (inst : Netlist.instance) =
  let seq = Cell.is_sequential inst.cell in
  let rec fits k = function
    | [] -> k >= g.n_evals || g.e_inst.(k) <> inst.inst_id
    | (name, _) :: rest ->
      let p = output_pin inst.cell name in
      if p == no_pin then fits k rest
      else
        k < g.n_evals
        && g.e_inst.(k) = inst.inst_id
        && String.equal g.e_out_pin.(k) name
        && g.e_seq.(k) = seq
        && List.length p.Pin.arcs = g.e_arc0.(k + 1) - g.e_arc0.(k)
        && fits (k + 1) rest
  in
  let first = g.inst_eval.(inst.inst_id) in
  first >= 0 && fits first inst.outputs

(* Refresh the slots of a same-shape instance from its cell and inputs;
   true when some slot now reads a different net. *)
let refill_slots g (inst : Netlist.instance) =
  let rewired = ref false in
  iter_inst_evals g inst.inst_id (fun k ->
      List.iteri
        (fun i (arc : Arc.t) ->
          let s = g.e_arc0.(k) + i in
          g.arcs.(s) <- arc;
          let innet = input_net arc.related_pin inst.inputs in
          if innet <> g.arc_in.(s) then begin
            g.arc_in.(s) <- innet;
            rewired := true
          end)
        (output_pin inst.cell g.e_out_pin.(k)).Pin.arcs);
  !rewired

(* Bring the graph up to date with the logged instances [ids]: refill
   same-shape instances in place, tombstone the evals of the others and
   append their current ones.  Returns the edited evals, the nets whose
   driving eval changed, whether the schedule must be re-derived, and
   whether a register changed. *)
let restructure g ids =
  let dirty = ref [] and redriven = ref [] in
  let rewired = ref false and registers = ref false in
  List.iter
    (fun id ->
      let inst = Netlist.instance_opt g.nl id in
      (match inst with
      | Some inst when id < Array.length g.inst_eval && same_shape g inst ->
        if refill_slots g inst then rewired := true;
        iter_inst_evals g id (fun k -> dirty := k :: !dirty)
      | _ ->
        iter_inst_evals g id (fun k ->
            g.e_inst.(k) <- -1;
            rewired := true;
            let out = g.e_out_net.(k) in
            if g.eval_of_net.(out) = k then begin
              g.eval_of_net.(out) <- -1;
              redriven := out :: !redriven
            end);
        (match inst with
        | Some inst ->
          append_evals g inst;
          iter_inst_evals g id (fun k ->
              rewired := true;
              dirty := k :: !dirty;
              redriven := g.e_out_net.(k) :: !redriven)
        | None -> if id < Array.length g.inst_eval then g.inst_eval.(id) <- -1));
      (* a register edit moves endpoints, or their setup times *)
      if id < Array.length g.regs then begin
        let reg = Option.bind inst register_of in
        (match (g.regs.(id), reg) with None, None -> () | _ -> registers := true);
        g.regs.(id) <- reg
      end)
    (List.sort_uniq Int.compare ids);
  (!dirty, !redriven, !rewired, !registers)

let retime t =
  let g = t.graph in
  let nl = g.nl in
  Obs.span "sta.retime" @@ fun () ->
  Obs.Counter.incr c_retimes;
  t.n_moved <- 0;
  if Netlist.edit_count nl > g.log_pos then begin
    let insts = ref [] and nets = ref [] and new_pos = ref [] in
    Netlist.iter_edits nl ~from:g.log_pos ~f:(function
      | Netlist.Instance id -> insts := id :: !insts
      | Net nid -> nets := nid :: !nets
      | Output nid -> new_pos := nid :: !new_pos);
    g.log_pos <- Netlist.edit_count nl;
    if Netlist.net_count nl > g.n_nets then cover_nets t (Netlist.net_count nl);
    List.iter (fun nid -> g.is_po.(nid) <- true) !new_pos;
    let dirty, redriven, rewired, registers = restructure g !insts in
    let endpoints_moved = registers || !new_pos <> [] in
    if rewired then begin
      t.arc_delay <- grow t.arc_delay g.n_slots 0.0;
      derive_schedule g
    end;
    if !new_pos <> [] then g.po_nets <- Array.of_list (Netlist.primary_outputs nl);
    let fwd_dirty = Array.make g.n_evals false in
    let eps_stale = ref false in
    let breq = Array.make g.n_nets false in
    (* edited evals: new arcs or inputs change their outputs and their
       required contributions upstream *)
    List.iter
      (fun k ->
        fwd_dirty.(k) <- true;
        mark_inputs g breq k)
      dirty;
    (* a net with a new driver, or none, has new values for its readers *)
    List.iter
      (fun nid ->
        if g.eval_of_net.(nid) < 0 then begin
          reset_undriven t nid;
          eps_stale := true
        end;
        breq.(nid) <- true;
        for c = g.cons0.(nid) to g.cons0.(nid + 1) - 1 do
          fwd_dirty.(g.cons_eval.(c)) <- true
        done)
      redriven;
    (* a logged net may have new sinks, sink cells or a port mark: its
       readers (hence its required time) and its load may differ *)
    List.iter
      (fun nid ->
        breq.(nid) <- true;
        let old = t.loads.(nid) in
        let fresh = compute_net_load t.cfg nl ~is_po:g.is_po (Netlist.net nl nid) in
        if bits fresh <> bits old then begin
          t.loads.(nid) <- fresh;
          match g.eval_of_net.(nid) with
          | -1 -> ()
          | k ->
            fwd_dirty.(k) <- true;
            (* a load change shifts the driver's arc delays, and with
               them its required contributions upstream *)
            if not g.e_seq.(k) then mark_inputs g breq k
        end)
      (List.sort_uniq Int.compare (List.rev_append !new_pos !nets));
    (* forward cone: sweep the level schedule, re-evaluating dirty
       nodes and marking their fanout only when an output actually
       changed (bitwise), so the cone stays as narrow as the values
       allow *)
    for i = 0 to g.n_order - 1 do
      let k = g.order.(i) in
      if fwd_dirty.(k) then begin
        let out = g.e_out_net.(k) in
        let oa = t.arrivals.(out) and os = t.slews.(out) and om = t.min_arrivals.(out) in
        eval_forward t k;
        let slew_changed = bits os <> bits t.slews.(out) in
        if slew_changed then begin
          breq.(out) <- true;
          slew_moved t out
        end;
        if
          slew_changed
          || bits oa <> bits t.arrivals.(out)
          || bits om <> bits t.min_arrivals.(out)
        then begin
          (* only endpoint nets carry a finite seed *)
          if t.ep_seed.(out) < infinity then eps_stale := true;
          for c = g.cons0.(out) to g.cons0.(out + 1) - 1 do
            fwd_dirty.(g.cons_eval.(c)) <- true
          done
        end
      end
    done;
    (* required-time fan-in: endpoint seeds that moved (a register swap
       changes its setup time, a new endpoint adds one) start the
       backward cone *)
    if endpoints_moved then begin
      let old_seed = Array.sub t.ep_seed 0 g.n_nets in
      rebuild_ep_seed t;
      for nid = 0 to g.n_nets - 1 do
        if bits old_seed.(nid) <> bits t.ep_seed.(nid) then breq.(nid) <- true
      done
    end;
    for i = g.n_order - 1 downto 0 do
      let k = g.order.(i) in
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
    (* the lists hold arrivals and requireds of endpoint nets only *)
    if endpoints_moved || !eps_stale then t.ep_lists <- None
  end

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let total_negative_slack t =
  List.fold_left
    (fun acc ep -> if ep.slack < 0.0 then acc +. ep.slack else acc)
    0.0 (endpoints t)

let endpoint_name nl = function
  | Reg_data { inst; pin } ->
    Printf.sprintf "%s/%s" (Netlist.instance nl inst).inst_name pin
  | Primary_output nid -> (Netlist.net nl nid).net_name
