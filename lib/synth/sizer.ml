module Netlist = Vartune_netlist.Netlist
module Timing = Vartune_sta.Timing
module Path = Vartune_sta.Path
module Library = Vartune_liberty.Library
module Cell = Vartune_liberty.Cell
module Pin = Vartune_liberty.Pin
module Arc = Vartune_liberty.Arc

type report = {
  iterations : int;
  resized : int;
  buffered : int;
  decomposed : int;
  downsized : int;
  window_violations : int;
}

(* The candidates of one repair scan.  A scan visits instances in
   ascending id and acts on those whose trigger holds; the trigger reads
   the timing analysis at the instance's own nets and the live netlist
   (its cell, its pins' nets, its outputs' sinks).  An instance whose
   trigger failed at its last visit cannot trigger until one of those
   changed, and each such change is either logged in the netlist's edit
   log (naming the instance or one of the nets it drives) or, for a
   slew, reported by [Timing.iter_slew_changes] for its readers.  So a
   scan visits only [marks]: what the log names from [from] on, the
   readers of moved slews, and the instances whose trigger held at
   their last visit.  The first scan visits every instance. *)
type scan = {
  mutable marks : bool array;  (* instance id -> visit at the next scan *)
  mutable from : int;
      (* the log position of the analysis the last scan read: entries
         after it may not have reached that analysis yet *)
}

type state = {
  cons : Constraints.t;
  lib : Library.t;
  nl : Netlist.t;
  incremental : bool;
  fix : scan;  (* [fix_electrical] *)
  windows : scan;  (* [repair_windows] *)
  mutable synced : int;  (* the log position the current analysis reflects *)
  mutable resized : int;
  mutable buffered : int;
  mutable decomposed : int;
  mutable downsized : int;
}

let cover sc n =
  let len = Array.length sc.marks in
  if n > len then begin
    let marks = Array.make (max n (2 * len)) false in
    Array.blit sc.marks 0 marks 0 len;
    sc.marks <- marks
  end

let mark sc id =
  cover sc (id + 1);
  sc.marks.(id) <- true

(* mark the instances the log names from [from] on and the current
   drivers of the nets it names *)
let absorb st sc ~from =
  Netlist.iter_edits st.nl ~from ~f:(function
    | Netlist.Instance id -> mark sc id
    | Netlist.Net nid | Netlist.Output nid -> (
      match (Netlist.net st.nl nid).Netlist.driver with
      | Some r -> mark sc r.Netlist.inst
      | None -> ()))

(* Visit the candidates of [sc] among the instances that exist when the
   scan starts, in ascending id — the order and range of a full scan,
   which [~incremental:false] runs.  [visit] returns whether the
   trigger held; such an instance stays a candidate.  Edits made during
   the scan are marked as they happen, so a later instance they touch
   is visited in this scan, as a full scan would. *)
let scan st sc visit =
  let nl = st.nl in
  let bound = Netlist.instance_bound nl in
  cover sc bound;
  if st.incremental then absorb st sc ~from:sc.from else Array.fill sc.marks 0 bound true;
  sc.from <- st.synced;
  let pos = ref (Netlist.edit_count nl) in
  for id = 0 to bound - 1 do
    if sc.marks.(id) then begin
      sc.marks.(id) <- false;
      match Netlist.instance_opt nl id with
      | None -> ()
      | Some inst ->
        if visit inst then sc.marks.(id) <- true;
        let now = Netlist.edit_count nl in
        if now > !pos then begin
          absorb st sc ~from:!pos;
          pos := now
        end
    end
  done

(* Refresh the timing analysis after a round of edits.  [Timing.retime]
   follows every edit — swaps, buffering, decomposition — through the
   netlist's edit log in O(affected cone); [~incremental:false] runs a
   full analysis instead.  Both yield bit-identical analyses, so
   [incremental] only changes cost, never the optimisation trajectory. *)
let refresh st timing =
  let timing =
    if st.incremental then begin
      Timing.retime timing;
      if st.cons.Constraints.restrictions <> None then
        Timing.iter_slew_changes timing ~f:(fun nid ->
            List.iter
              (fun (r : Netlist.pin_ref) -> mark st.windows r.inst)
              (Netlist.net st.nl nid).Netlist.sinks);
      timing
    end
    else Timing.run (Timing.config timing) st.nl
  in
  st.synced <- Netlist.edit_count st.nl;
  timing

(* worst slew over the instance's data inputs (clock pin excluded); the
   analysis input slew for source-only cells *)
let worst_input_slew timing nl (inst : Netlist.instance) =
  ignore nl;
  let clock_pin = inst.cell.Cell.clock_pin in
  List.fold_left
    (fun acc (pin, nid) ->
      match clock_pin with
      | Some ck when String.equal ck pin -> acc
      | _ -> Float.max acc (Timing.net_slew timing nid))
    (Timing.config timing).Timing.input_slew
    inst.inputs

(* worst-case delay of a cell at an operating point, for local estimates *)
let cell_delay (cell : Cell.t) ~slew ~load =
  List.fold_left
    (fun acc arc -> Float.max acc (Arc.delay arc ~slew ~load))
    0.0 (Cell.arcs cell)

let count_window_violations cons timing nl =
  match cons.Constraints.restrictions with
  | None -> 0
  | Some _ ->
    Netlist.fold_instances nl ~init:0 ~f:(fun acc inst ->
        let slew = worst_input_slew timing nl inst in
        let violated =
          List.exists
            (fun (_, nid) ->
              not
                (Constraints.allows cons ~cell:inst.cell ~slew
                   ~load:(Timing.net_load timing nid)))
            inst.outputs
        in
        if violated then acc + 1 else acc)

(* ------------------------------------------------------------------ *)
(* Buffering                                                           *)
(* ------------------------------------------------------------------ *)

let chunk n xs =
  let rec go acc cur count = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if count = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (count + 1) rest
  in
  go [] [] 0 xs

(* Split a heavy net: sinks move onto new nets behind buffers. *)
let buffer_net st ~net_id ~groups =
  let nl = st.nl in
  let net = Netlist.net nl net_id in
  let sinks = net.Netlist.sinks in
  let n_sinks = List.length sinks in
  if n_sinks < 2 || groups < 1 then false
  else begin
    let per_group = max 1 ((n_sinks + groups - 1) / groups) in
    let batches = chunk per_group sinks in
    match batches with
    | [] | [ _ ] -> false
    | _ ->
      List.iter
        (fun batch ->
          let new_net = Netlist.add_net nl () in
          (* rewire before creating the buffer so the new net's sink list
             is exact when we size the buffer *)
          List.iter
            (fun (r : Netlist.pin_ref) ->
              Netlist.rewire_input nl ~inst:r.inst ~pin:r.pin new_net)
            batch;
          let load_est = float_of_int (List.length batch) *. 0.002 in
          let cell = Choice.pick st.cons st.lib ~family:"BUF" ~load:load_est ~slew:0.1 in
          ignore
            (Netlist.add_instance nl
               ~inst_name:(Netlist.fresh_name nl ~prefix:"buf")
               ~cell
               ~inputs:[ ("A", net_id) ]
               ~outputs:[ ("Z", new_net) ]);
          st.buffered <- st.buffered + 1)
        batches;
      true
  end

let fix_electrical st timing =
  let nl = st.nl in
  let edits = ref 0 in
  let max_fanout = st.cons.Constraints.max_fanout in
  scan st st.fix (fun inst ->
      List.fold_left
        (fun held (_, nid) ->
          let net = Netlist.net nl nid in
          let load = Timing.net_load timing nid in
          let fanout = List.length net.Netlist.sinks in
          let cap_limit =
            Float.min (Cell.max_load inst.cell) (Constraints.window_load_max st.cons inst.cell)
          in
          if load > cap_limit || fanout > max_fanout then begin
            (* Prefer a bigger driver; buffer when the ladder is exhausted
               or the fanout rule is violated outright. *)
            (match
               if fanout > max_fanout then None
               else
                 Choice.upsize st.cons st.lib inst.cell ~load
                   ~slew:(worst_input_slew timing nl inst)
             with
            | Some bigger ->
              Netlist.set_cell nl inst.inst_id bigger;
              st.resized <- st.resized + 1;
              incr edits
            | None ->
              let groups =
                max
                  ((fanout + max_fanout - 1) / max_fanout)
                  (1 + int_of_float (load /. Float.max cap_limit 0.001))
              in
              if buffer_net st ~net_id:nid ~groups then incr edits);
            true
          end
          else held)
        false inst.outputs);
  !edits

(* ------------------------------------------------------------------ *)
(* Decomposition of complex cells into simple-cell networks            *)
(* ------------------------------------------------------------------ *)

let replace_gate_with_chain st inst ~gate_family ~pins_map =
  (* [pins_map]: (family input pin, source net) list for the first gate;
     an inverter restores polarity onto the original output net. *)
  let nl = st.nl in
  let out_net = match inst.Netlist.outputs with [ (_, n) ] -> n | _ -> raise Exit in
  Netlist.remove_instance nl inst.inst_id;
  let mid = Netlist.add_net nl () in
  let gate_cell = Choice.pick st.cons st.lib ~family:gate_family ~load:0.002 ~slew:0.1 in
  ignore
    (Netlist.add_instance nl
       ~inst_name:(Netlist.fresh_name nl ~prefix:(String.lowercase_ascii gate_family))
       ~cell:gate_cell ~inputs:pins_map ~outputs:[ ("Z", mid) ]);
  let inv_cell = Choice.pick st.cons st.lib ~family:"INV" ~load:0.003 ~slew:0.1 in
  ignore
    (Netlist.add_instance nl
       ~inst_name:(Netlist.fresh_name nl ~prefix:"inv")
       ~cell:inv_cell ~inputs:[ ("A", mid) ] ~outputs:[ ("Z", out_net) ]);
  st.decomposed <- st.decomposed + 1;
  true

let decompose st (inst : Netlist.instance) =
  let nl = st.nl in
  let family = inst.cell.Cell.family in
  let input net_pin = List.assoc net_pin inst.inputs in
  try
    match family with
    | "FA1" -> begin
      let a = input "A" and b = input "B" and ci = input "CI" in
      match (List.assoc_opt "S" inst.outputs, List.assoc_opt "CO" inst.outputs) with
      | Some s_net, Some co_net ->
        Netlist.remove_instance nl inst.inst_id;
        let xo3 = Choice.pick st.cons st.lib ~family:"XO3" ~load:0.002 ~slew:0.1 in
        ignore
          (Netlist.add_instance nl
             ~inst_name:(Netlist.fresh_name nl ~prefix:"xo3")
             ~cell:xo3
             ~inputs:[ ("A", a); ("B", b); ("C", ci) ]
             ~outputs:[ ("Z", s_net) ]);
        let maj = Choice.pick st.cons st.lib ~family:"MAJ3" ~load:0.002 ~slew:0.1 in
        ignore
          (Netlist.add_instance nl
             ~inst_name:(Netlist.fresh_name nl ~prefix:"maj")
             ~cell:maj
             ~inputs:[ ("A", a); ("B", b); ("CI", ci) ]
             ~outputs:[ ("CO", co_net) ]);
        st.decomposed <- st.decomposed + 1;
        true
      | _ -> false
    end
    | "XO3" -> begin
      let a = input "A" and b = input "B" and c = input "C" in
      match inst.outputs with
      | [ (_, out_net) ] ->
        Netlist.remove_instance nl inst.inst_id;
        let mid = Netlist.add_net nl () in
        let xo2 = Choice.pick st.cons st.lib ~family:"XO2" ~load:0.002 ~slew:0.1 in
        ignore
          (Netlist.add_instance nl
             ~inst_name:(Netlist.fresh_name nl ~prefix:"xo2")
             ~cell:xo2
             ~inputs:[ ("A", a); ("B", b) ]
             ~outputs:[ ("Z", mid) ]);
        let xo2' = Choice.pick st.cons st.lib ~family:"XO2" ~load:0.003 ~slew:0.1 in
        ignore
          (Netlist.add_instance nl
             ~inst_name:(Netlist.fresh_name nl ~prefix:"xo2")
             ~cell:xo2'
             ~inputs:[ ("A", mid); ("B", c) ]
             ~outputs:[ ("Z", out_net) ]);
        st.decomposed <- st.decomposed + 1;
        true
      | _ -> false
    end
    | "AN2" | "AN3" | "AN4" ->
      let nand = "ND" ^ String.sub family 2 1 in
      replace_gate_with_chain st inst ~gate_family:nand ~pins_map:inst.inputs
    | "OR2" | "OR3" | "OR4" ->
      let nor = "NR" ^ String.sub family 2 1 in
      replace_gate_with_chain st inst ~gate_family:nor ~pins_map:inst.inputs
    | "MU2" -> replace_gate_with_chain st inst ~gate_family:"MU2I" ~pins_map:inst.inputs
    | _ -> false
  with Not_found | Exit -> false

(* ------------------------------------------------------------------ *)
(* Timing recovery                                                     *)
(* ------------------------------------------------------------------ *)

let improve_path st timing (path : Path.t) ~budget =
  let nl = st.nl in
  let moves = ref 0 in
  (* biggest contributors first *)
  let steps =
    List.sort (fun (a : Path.step) b -> Float.compare b.delay a.delay) path.Path.steps
  in
  List.iter
    (fun (step : Path.step) ->
      if !moves < budget then begin
        match Netlist.instance_opt nl step.inst with
        | None -> () (* already restructured this round *)
        | Some inst ->
          if inst.cell.Cell.name = step.cell.Cell.name then begin
            let slew = worst_input_slew timing nl inst in
            let load =
              List.fold_left
                (fun acc (_, nid) -> Float.max acc (Timing.net_load timing nid))
                0.0 inst.outputs
            in
            (* Upsizing only pays while the cell is underpowered for its
               load: past an effective fanout of ~4 per drive unit the
               bigger input capacitance just pushes the delay upstream. *)
            let cap_per_drive =
              match Cell.input_pins inst.cell with
              | p :: _ ->
                p.Pin.capacitance /. float_of_int inst.cell.Cell.drive_strength
              | [] -> 0.001
            in
            let target_drive = int_of_float (ceil (load /. (3.0 *. cap_per_drive))) in
            let underpowered = inst.cell.Cell.drive_strength < target_drive in
            let upsized =
              underpowered
              &&
              match Choice.upsize st.cons st.lib inst.cell ~load ~slew with
              | Some bigger ->
                Netlist.set_cell nl inst.inst_id bigger;
                st.resized <- st.resized + 1;
                true
              | None -> false
            in
            if upsized then incr moves else if decompose st inst then incr moves
          end
      end)
    steps;
  !moves

let take n xs =
  let rec go n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n xs

let recover_timing st timing =
  let violating =
    Timing.endpoints timing
    |> List.filter (fun (ep : Timing.endpoint_timing) -> ep.slack < 0.0)
    |> List.sort (fun (a : Timing.endpoint_timing) b -> Float.compare a.slack b.slack)
    |> take 96
  in
  let moves = ref 0 in
  List.iter
    (fun ep ->
      let path = Path.extract timing st.nl ep in
      moves := !moves + improve_path st timing path ~budget:6)
    violating;
  !moves

(* ------------------------------------------------------------------ *)
(* Window (slew) repair                                                *)
(* ------------------------------------------------------------------ *)

let repair_windows st timing =
  match st.cons.Constraints.restrictions with
  | None -> 0
  | Some _ ->
    let nl = st.nl in
    let edits = ref 0 in
    scan st st.windows (fun inst ->
        let slew_limit = Constraints.window_slew_max st.cons inst.cell in
        slew_limit < infinity
        && List.fold_left
             (fun held (pin, nid) ->
               if Some pin <> inst.cell.Cell.clock_pin then begin
                 let slew = Timing.net_slew timing nid in
                 if slew > slew_limit then begin
                   (* sharpen the edge: upsize the driving cell *)
                   (match (Netlist.net nl nid).Netlist.driver with
                   | None -> ()
                   | Some { inst = drv_id; pin = _ } -> begin
                     let drv = Netlist.instance nl drv_id in
                     let drv_slew = worst_input_slew timing nl drv in
                     let drv_load = Timing.net_load timing nid in
                     match
                       Choice.upsize st.cons st.lib drv.cell ~load:drv_load ~slew:drv_slew
                     with
                     | Some bigger ->
                       Netlist.set_cell nl drv_id bigger;
                       st.resized <- st.resized + 1;
                       incr edits
                     | None -> ()
                   end);
                   true
                 end
                 else held
               end
               else held)
             false inst.inputs);
    !edits

(* ------------------------------------------------------------------ *)
(* Area recovery                                                       *)
(* ------------------------------------------------------------------ *)

let recover_area st timing =
  let nl = st.nl in
  let moves = ref 0 in
  Netlist.iter_instances nl ~f:(fun inst ->
      if not (Cell.is_sequential inst.cell) then begin
        match inst.outputs with
        | [ (_, out_net) ] ->
          let slack = Timing.net_slack timing out_net in
          if slack > 0.05 then begin
            let slew = worst_input_slew timing nl inst in
            let load = Timing.net_load timing out_net in
            (* walk down the ladder as far as the local slack allows,
               keeping a 1.6x margin since slack is shared along the path *)
            let rec shrink spent =
              match Choice.downsize st.cons st.lib inst.cell ~load ~slew with
              | Some smaller ->
                let increase =
                  spent +. cell_delay smaller ~slew ~load -. cell_delay inst.cell ~slew ~load
                in
                if increase > 0.0 && increase *. 1.6 < slack then begin
                  Netlist.set_cell nl inst.inst_id smaller;
                  st.downsized <- st.downsized + 1;
                  incr moves;
                  shrink increase
                end
              | None -> ()
            in
            shrink 0.0
          end
        | _ -> ()
      end);
  !moves

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let optimize ?(incremental = true) cons lib nl =
  let tconfig = Constraints.timing_config cons in
  let timing = ref (Timing.run tconfig nl) in
  let synced = Netlist.edit_count nl in
  let new_scan () = { marks = Array.make (Netlist.instance_bound nl) true; from = synced } in
  let st =
    { cons; lib; nl; incremental; fix = new_scan (); windows = new_scan (); synced;
      resized = 0; buffered = 0; decomposed = 0; downsized = 0 }
  in
  let iterations = ref 0 in
  let continue_loop = ref true in
  while !continue_loop && !iterations < cons.Constraints.max_iterations do
    incr iterations;
    let e1 = fix_electrical st !timing in
    let e2 = repair_windows st !timing in
    if e1 + e2 > 0 then timing := refresh st !timing;
    let slack = Timing.worst_slack !timing in
    if slack >= 0.0 then continue_loop := false
    else begin
      let moves = recover_timing st !timing in
      if moves = 0 then continue_loop := false
      else timing := refresh st !timing
    end
  done;
  (* settle remaining electrical/window issues introduced by the last moves *)
  let rec settle n =
    if n > 0 then begin
      let e = fix_electrical st !timing + repair_windows st !timing in
      if e > 0 then begin
        timing := refresh st !timing;
        settle (n - 1)
      end
    end
  in
  settle 4;
  (* Area recovery is gated per net by local slack, so it also applies at
     tight clocks where only the critical region lacks margin — matching
     how commercial synthesis shrinks off-critical logic. *)
  if cons.Constraints.area_recovery then begin
    let rec recover n =
      if n > 0 then begin
        let moves = recover_area st !timing in
        if moves > 0 then begin
          timing := refresh st !timing;
          if Timing.worst_slack !timing >= 0.0 then recover (n - 1)
        end
      end
    in
    recover 3;
    (* area recovery must never cost feasibility: restore timing fully *)
    let rec restore n =
      if n > 0 && Timing.worst_slack !timing < 0.0 then begin
        let moves = recover_timing st !timing in
        timing := refresh st !timing;
        if moves > 0 then restore (n - 1)
      end
    in
    restore 8;
    settle 2
  end;
  let report =
    {
      iterations = !iterations;
      resized = st.resized;
      buffered = st.buffered;
      decomposed = st.decomposed;
      downsized = st.downsized;
      window_violations = count_window_violations cons !timing nl;
    }
  in
  (!timing, report)
