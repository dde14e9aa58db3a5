(* Shared test helpers: reference evaluators for the generic IR and for
   mapped netlists, plus small builders used across suites. *)

module Ir = Vartune_rtl.Ir
module Netlist = Vartune_netlist.Netlist
module Check = Vartune_netlist.Check
module Cell = Vartune_liberty.Cell
module Library = Vartune_liberty.Library
module Characterize = Vartune_charlib.Characterize
module Statistical = Vartune_statlib.Statistical
module Catalog = Vartune_stdcell.Catalog
module Mismatch = Vartune_process.Mismatch

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs a +. Float.abs b)

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Reference evaluation of the generic IR (combinational only).        *)
(* ------------------------------------------------------------------ *)

(* Evaluates every node given input values; flip-flops evaluate to their
   provided state (default false). *)
let eval_ir graph ~inputs ?(ff_state = fun _ -> false) () =
  let n = Ir.node_count graph in
  let values = Array.make n false in
  for id = 0 to n - 1 do
    let v node_id = values.(node_id) in
    let fanins = Ir.fanins graph id in
    values.(id) <-
      (match Ir.op_of graph id with
      | Ir.Input name -> (
        match List.assoc_opt name inputs with
        | Some b -> b
        | None -> false)
      | Ir.Const0 -> false
      | Ir.Const1 -> true
      | Ir.Not -> not (v fanins.(0))
      | Ir.Buf -> v fanins.(0)
      | Ir.And2 -> v fanins.(0) && v fanins.(1)
      | Ir.Or2 -> v fanins.(0) || v fanins.(1)
      | Ir.Xor2 -> v fanins.(0) <> v fanins.(1)
      | Ir.Xnor2 -> v fanins.(0) = v fanins.(1)
      | Ir.Mux2 -> if v fanins.(2) then v fanins.(1) else v fanins.(0)
      | Ir.Xor3 -> v fanins.(0) <> v fanins.(1) <> v fanins.(2)
      | Ir.Maj3 ->
        let a = v fanins.(0) and b = v fanins.(1) and c = v fanins.(2) in
        (a && b) || (a && c) || (b && c)
      | Ir.Ff name -> ff_state name)
  done;
  values

let eval_ir_outputs graph ~inputs =
  let values = eval_ir graph ~inputs () in
  List.map (fun (name, id) -> (name, values.(id))) (Ir.outputs graph)

(* word <-> int conversions for Word-level tests; bit 0 is the LSB *)
let int_of_bits bits =
  let acc = ref 0 in
  Array.iteri (fun i b -> if b then acc := !acc lor (1 lsl i)) bits;
  !acc

let bits_of_int ~width v = Array.init width (fun i -> (v lsr i) land 1 = 1)

let word_inputs prefix bits =
  Array.to_list (Array.mapi (fun i b -> (Printf.sprintf "%s[%d]" prefix i, b)) bits)

let eval_word values word = int_of_bits (Array.map (fun id -> values.(id)) word)

(* ------------------------------------------------------------------ *)
(* Reference evaluation of a mapped netlist (combinational only).       *)
(* ------------------------------------------------------------------ *)

(* Boolean function of each catalog family over its input pins. *)
let family_function family (pin : string -> bool) =
  let a () = pin "A" and b () = pin "B" and c () = pin "C" and d () = pin "D" in
  match family with
  | "INV" -> not (a ())
  | "BUF" | "DLY1" -> a ()
  | "ND2" -> not (a () && b ())
  | "ND3" -> not (a () && b () && c ())
  | "ND4" -> not (a () && b () && c () && d ())
  | "NR2" -> not (a () || b ())
  | "NR3" -> not (a () || b () || c ())
  | "NR4" -> not (a () || b () || c () || d ())
  | "AN2" -> a () && b ()
  | "AN3" -> a () && b () && c ()
  | "AN4" -> a () && b () && c () && d ()
  | "OR2" -> a () || b ()
  | "OR3" -> a () || b () || c ()
  | "OR4" -> a () || b () || c () || d ()
  | "ND2B" -> a () || not (b ())  (* !(!A.B) *)
  | "NR2B" -> a () && not (b ())  (* !(!A+B) *)
  | "ND3B" -> not (not (a ()) && b () && c ())
  | "NR3B" -> not (not (a ()) || b () || c ())
  | "ND4B" -> not (not (a ()) && b () && c () && d ())
  | "NR4B" -> not (not (a ()) || b () || c () || d ())
  | "XO2" -> a () <> b ()
  | "XN2" -> a () = b ()
  | "XO3" -> a () <> b () <> c ()
  | "XN3" -> not (a () <> b () <> c ())
  | "MU2" -> if pin "S" then b () else a ()
  | "MU2I" -> not (if pin "S" then b () else a ())
  | "MAJ3" ->
    let x = a () and y = b () and z = pin "CI" in
    (x && y) || (x && z) || (y && z)
  | "TIE0" -> false
  | "TIE1" -> true
  | other -> failwith ("family_function: unsupported family " ^ other)

(* FA1 has two outputs, handled specially. *)
let eval_netlist nl ~input_values =
  let order = Check.topological_order nl in
  let net_values = Hashtbl.create 256 in
  List.iteri
    (fun i nid -> Hashtbl.replace net_values nid (List.nth input_values i))
    (Netlist.primary_inputs nl);
  let net nid = Option.value (Hashtbl.find_opt net_values nid) ~default:false in
  Array.iter
    (fun inst_id ->
      let inst = Netlist.instance nl inst_id in
      let family = inst.Netlist.cell.Cell.family in
      if Cell.is_sequential inst.Netlist.cell then
        List.iter (fun (_, nid) -> Hashtbl.replace net_values nid false) inst.outputs
      else if family = "FA1" then begin
        let pin p = net (List.assoc p inst.Netlist.inputs) in
        let x = pin "A" and y = pin "B" and z = pin "CI" in
        List.iter
          (fun (pin_name, nid) ->
            let v =
              match pin_name with
              | "S" -> x <> y <> z
              | "CO" -> (x && y) || (x && z) || (y && z)
              | other -> failwith ("eval_netlist: FA1 pin " ^ other)
            in
            Hashtbl.replace net_values nid v)
          inst.outputs
      end
      else begin
        let pin p = net (List.assoc p inst.Netlist.inputs) in
        match inst.outputs with
        | [ (_, nid) ] -> Hashtbl.replace net_values nid (family_function family pin)
        | [] -> ()
        | _ -> failwith ("eval_netlist: unexpected multi-output " ^ family)
      end)
    order;
  List.map net (Netlist.primary_outputs nl)

(* ------------------------------------------------------------------ *)
(* Small shared fixtures                                                *)
(* ------------------------------------------------------------------ *)

(* every family the mapper can emit, so mapped tests never miss a cell *)
let small_specs =
  List.filter_map Catalog.find
    [ "INV"; "BUF"; "ND2"; "ND3"; "ND4"; "NR2"; "NR3"; "NR4"; "ND2B"; "NR2B"; "AN2";
      "AN3"; "AN4"; "OR2"; "OR3"; "OR4"; "XO2"; "XN2"; "XO3"; "MU2"; "MU2I"; "FA1";
      "MAJ3"; "DFF"; "TIE0"; "TIE1" ]

(* lazily-built small statistical library shared by suites *)
let small_statlib =
  lazy
    (Statistical.build Characterize.default_config ~mismatch:Mismatch.default ~seed:5
       ~n:12 ~specs:small_specs ())

let nominal_small = lazy (Characterize.library Characterize.default_config small_specs)

(* Liberty text the grammar accepts but no library can hold, as
   [(label, source, group the parse error must name)]: a
   non-increasing index_1, a ragged values row, two cells with one
   name, a table number that does not parse.  Only the cell_rise
   table carries a table defect; [well_formed_library] has none. *)
let liberty_source ?index_1 ?values cells =
  let table ?(index_1 = "0.1, 0.2") ?(values = {|"1, 2", "3, 4"|}) name =
    Printf.sprintf {|%s() { index_1("%s"); index_2("0.1, 0.2"); values(%s); }|} name index_1
      values
  in
  let cell name =
    Printf.sprintf
      {|cell(%s) { family : "INV"; drive_strength : 1; area : 1;
          pin(A) { direction : input; capacitance : 0.001; }
          pin(Z) { direction : output; timing() { related_pin : "A"; %s %s %s %s } } }|}
      name
      (table ?index_1 ?values "cell_rise")
      (table "cell_fall") (table "rise_transition") (table "fall_transition")
  in
  Printf.sprintf "library(l) { corner : \"tc\"; %s }" (String.concat " " (List.map cell cells))

let well_formed_library = liberty_source [ "INV_1"; "INV_2" ]

let corrupt_libraries =
  [
    ("non-increasing index_1", liberty_source ~index_1:"0.2, 0.1" [ "INV_1" ], "table cell_rise");
    ("ragged values row", liberty_source ~values:{|"1, 2", "3"|} [ "INV_1" ], "table cell_rise");
    ("duplicate cell name", liberty_source [ "INV_1"; "INV_1" ], "library l");
    ("malformed number", liberty_source ~index_1:"0.1, 0.2x" [ "INV_1" ], "table cell_rise");
  ]

(* MD5 of every mean and sigma entry's IEEE bits in library order:
   cells, then arcs in [Cell.arcs] order, then rise/fall delay,
   rise/fall transition, rise/fall delay sigma, each table row-major,
   each entry as its 64 bits little-endian. *)
let library_digest lib =
  let module Lut = Vartune_liberty.Lut in
  let module Arc = Vartune_liberty.Arc in
  let b = Buffer.create 65536 in
  let add t =
    let rows, cols = Lut.dims t in
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        Buffer.add_int64_le b (Int64.bits_of_float (Lut.get t i j))
      done
    done
  in
  List.iter
    (fun c ->
      List.iter
        (fun (a : Arc.t) ->
          List.iter add
            [
              a.Arc.rise_delay;
              a.Arc.fall_delay;
              a.Arc.rise_transition;
              a.Arc.fall_transition;
              Option.get a.Arc.rise_delay_sigma;
              Option.get a.Arc.fall_delay_sigma;
            ])
        (Cell.arcs c))
    (Library.cells lib);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* One-entry Welford partials through the live kernel                  *)
(* ------------------------------------------------------------------ *)

(* [xs] streamed through [Kernel.Welford.update] as a one-entry
   surface: [(count, mean, m2)]. *)
let welford_of xs =
  let mean = [| 0.0 |] and m2 = [| 0.0 |] in
  Array.iteri (fun i x -> Vartune_util.Kernel.Welford.update ~n:(i + 1) ~mean ~m2 [| x |]) xs;
  (Array.length xs, mean, m2)

let welford_sigma (n, _, m2) =
  let dst = [| 0.0 |] in
  Vartune_util.Kernel.Welford.sigma_into ~n ~m2 ~dst;
  dst.(0)

(* [a] (lower-index block) absorbs [b] the way the statistical library
   combines its blocks: an empty side is a copy, never arithmetic. *)
let welford_merge ((na, mean_a, m2_a) as a) ((nb, mean_b, m2_b) as b) =
  if nb = 0 then a
  else if na = 0 then b
  else begin
    let mean = Array.copy mean_a and m2 = Array.copy m2_a in
    Vartune_util.Kernel.Welford.merge ~na ~nb ~mean_a:mean ~m2_a:m2 ~mean_b ~m2_b;
    (na + nb, mean, m2)
  end

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

(* Writes a journal holding [steps] whose header claims layout
   [version] — what a journal written by another build looks like.  The
   version is the header's first integer, right after the 8-byte magic. *)
let journal_with_version path ~version steps =
  let module Journal = Vartune_journal.Journal in
  let j = Journal.create path in
  List.iter (Journal.append j) steps;
  Journal.close j;
  let contents = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let v = Buffer.create 8 in
  Vartune_store.Codec.w_int v version;
  Bytes.blit_string (Buffer.contents v) 0 contents 8 (Buffer.length v);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc contents)
