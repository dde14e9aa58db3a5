module Grid = Vartune_util.Grid
module Pool = Vartune_util.Pool
module Kernel = Vartune_util.Kernel
module Lut = Vartune_liberty.Lut
module Arc = Vartune_liberty.Arc
module Pin = Vartune_liberty.Pin
module Cell = Vartune_liberty.Cell
module Library = Vartune_liberty.Library
module Obs = Vartune_obs.Obs

let c_samples = Obs.Counter.make "statlib.samples"
let c_entries = Obs.Counter.make "statlib.lut_entries_merged"

(* ------------------------------------------------------------------ *)
(* Flat SoA layout                                                     *)
(* ------------------------------------------------------------------ *)

(* A sample library's statistics live in ONE flat float array per
   accumulator role (mean, m2, sample scratch), not in per-entry or
   per-table records.  The [layout] is the structural skeleton derived
   from a chunk's first sample: for flattened arc [a] (cells in library
   order, arcs in [Cell.arcs] order), the four tables occupy the block

     [offset.(a) ... offset.(a) + 4 * size.(a))

   in sub-block order rise_delay, fall_delay, rise_transition,
   fall_transition, each sub-block the row-major table surface.  The
   entry-wise Welford update and Chan merge (paper Section IV) then run
   once over the whole array through Vartune_util.Kernel — contiguous,
   unboxed, no per-entry structure. *)
type layout = {
  proto_cells : Cell.t array;  (* structure: names, pins, leakage, ... *)
  arc_protos : Arc.t array;  (* flattened arc order; axes + power protos *)
  cell_first_arc : int array;  (* cell -> first index into arc_protos *)
  cell_arc_count : int array;
  offset : int array;  (* arc -> start of its 4-table block *)
  size : int array;  (* arc -> entries in ONE table (rows * cols) *)
  total : int;  (* length of the flat arrays *)
}

let layout_of_library lib =
  let proto_cells = Array.of_list (Library.cells lib) in
  let ncells = Array.length proto_cells in
  let cell_first_arc = Array.make ncells 0 in
  let cell_arc_count = Array.make ncells 0 in
  let arcs = ref [] in
  let narcs = ref 0 in
  Array.iteri
    (fun ci c ->
      let cell_arcs = Cell.arcs c in
      cell_first_arc.(ci) <- !narcs;
      cell_arc_count.(ci) <- List.length cell_arcs;
      narcs := !narcs + List.length cell_arcs;
      List.iter (fun a -> arcs := a :: !arcs) cell_arcs)
    proto_cells;
  let arc_protos = Array.of_list (List.rev !arcs) in
  let offset = Array.make (Array.length arc_protos) 0 in
  let size = Array.make (Array.length arc_protos) 0 in
  let total = ref 0 in
  Array.iteri
    (fun ai (a : Arc.t) ->
      let rows, cols = Lut.dims a.rise_delay in
      offset.(ai) <- !total;
      size.(ai) <- rows * cols;
      total := !total + (4 * rows * cols))
    arc_protos;
  { proto_cells; arc_protos; cell_first_arc; cell_arc_count; offset; size; total = !total }

(* Copy one sample library's surfaces into [buf] (length [total]),
   validating its structure against the layout: cell count, cell order,
   arc count, arc order, table axes, each with its own message.  Every
   entry of [buf] is overwritten (the arc blocks tile [0, total)), so
   one scratch buffer serves a whole sample stream. *)
let flatten_into layout lib buf =
  let cells = Array.of_list (Library.cells lib) in
  if Array.length cells <> Array.length layout.proto_cells then
    invalid_arg "Statistical: sample library has mismatched cell count";
  let blit_table (proto : Lut.t) (table : Lut.t) pos =
    if not (Lut.same_axes proto table) then
      invalid_arg "Statistical: sample library has mismatched table axes";
    let data = Grid.unsafe_data (Lut.values table) in
    Array.blit data 0 buf pos (Array.length data)
  in
  Array.iteri
    (fun ci (c : Cell.t) ->
      if c.name <> layout.proto_cells.(ci).Cell.name then
        invalid_arg "Statistical: sample library has mismatched cell order";
      let arcs = Array.of_list (Cell.arcs c) in
      if Array.length arcs <> layout.cell_arc_count.(ci) then
        invalid_arg "Statistical: sample library has mismatched arc count";
      let first = layout.cell_first_arc.(ci) in
      Array.iteri
        (fun k (a : Arc.t) ->
          let ai = first + k in
          let proto = layout.arc_protos.(ai) in
          if a.related_pin <> proto.Arc.related_pin then
            invalid_arg "Statistical: sample library has mismatched arc order";
          let off = layout.offset.(ai) and sz = layout.size.(ai) in
          blit_table proto.Arc.rise_delay a.rise_delay off;
          blit_table proto.Arc.fall_delay a.fall_delay (off + sz);
          blit_table proto.Arc.rise_transition a.rise_transition (off + (2 * sz));
          blit_table proto.Arc.fall_transition a.fall_transition (off + (3 * sz)))
        arcs)
    cells

(* Structural agreement of two chunk layouts, checked in the same order
   as [flatten_into] (count, cell order, arc count, arc order, axes) so
   a malformed stream raises the same message whichever check sees it. *)
let check_layouts_agree a b =
  if Array.length b.proto_cells <> Array.length a.proto_cells then
    invalid_arg "Statistical: sample library has mismatched cell count";
  Array.iteri
    (fun ci (ca : Cell.t) ->
      let cb = b.proto_cells.(ci) in
      if cb.Cell.name <> ca.Cell.name then
        invalid_arg "Statistical: sample library has mismatched cell order";
      if b.cell_arc_count.(ci) <> a.cell_arc_count.(ci) then
        invalid_arg "Statistical: sample library has mismatched arc count";
      let first = a.cell_first_arc.(ci) in
      for k = 0 to a.cell_arc_count.(ci) - 1 do
        let pa = a.arc_protos.(first + k) and pb = b.arc_protos.(b.cell_first_arc.(ci) + k) in
        if pb.Arc.related_pin <> pa.Arc.related_pin then
          invalid_arg "Statistical: sample library has mismatched arc order";
        if
          not
            (Lut.same_axes pa.Arc.rise_delay pb.Arc.rise_delay
            && Lut.same_axes pa.Arc.fall_delay pb.Arc.fall_delay
            && Lut.same_axes pa.Arc.rise_transition pb.Arc.rise_transition
            && Lut.same_axes pa.Arc.fall_transition pb.Arc.fall_transition)
        then invalid_arg "Statistical: sample library has mismatched table axes"
      done)
    a.proto_cells

(* ------------------------------------------------------------------ *)
(* Chunked Welford accumulation                                        *)
(* ------------------------------------------------------------------ *)

(* Samples per worker task.  The block partition of [0, n) is fixed by
   this constant — never by the job count — so the chunked merge below
   produces bit-identical libraries at any parallelism, including the
   jobs = 1 serial fallback. *)
let merge_chunk = 4

type chunk_acc = {
  first_name : string;
  first_corner : string;
  layout : layout;
  mutable count : int;
  mean : float array;
  m2 : float array;
}

let accumulate_chunk gen ~lo ~hi =
  Obs.span "statlib.chunk"
    ~attrs:(fun () -> [ ("lo", string_of_int lo); ("hi", string_of_int hi) ])
    (fun () ->
      let first = gen lo in
      let layout = layout_of_library first in
      let mean = Array.make layout.total 0.0 in
      let m2 = Array.make layout.total 0.0 in
      (* One reusable scratch buffer: each sample library streams
         through it and is dead before the next is generated — the
         chunk never holds more than one sample's surfaces beyond the
         running statistics. *)
      let scratch = Array.make layout.total 0.0 in
      let acc = { first_name = Library.name first; first_corner = Library.corner first;
                  layout; count = 0; mean; m2 } in
      let feed lib =
        flatten_into layout lib scratch;
        acc.count <- acc.count + 1;
        Kernel.Welford.update ~n:acc.count ~mean ~m2 scratch
      in
      feed first;
      for index = lo + 1 to hi - 1 do
        feed (gen index)
      done;
      Obs.Counter.add c_samples (hi - lo);
      Obs.Counter.add c_entries ((hi - lo) * layout.total);
      acc)

(* Chan et al. pairwise combination: [a] is the left (lower-index)
   sample block and absorbs [b], one kernel pass over the whole flat
   surface.  The zero-count copy stays a plain blit, so it never goes
   through arithmetic. *)
let chunk_merge a b =
  check_layouts_agree a.layout b.layout;
  if b.count > 0 then begin
    if a.count = 0 then begin
      Array.blit b.mean 0 a.mean 0 a.layout.total;
      Array.blit b.m2 0 a.m2 0 a.layout.total;
      a.count <- b.count
    end
    else begin
      Kernel.Welford.merge ~na:a.count ~nb:b.count ~mean_a:a.mean ~m2_a:a.m2 ~mean_b:b.mean
        ~m2_b:b.m2;
      a.count <- a.count + b.count
    end
  end;
  a

(* ------------------------------------------------------------------ *)
(* Rebuilding the library from the flat statistics                     *)
(* ------------------------------------------------------------------ *)

let finish_arc chunk ai =
  let layout = chunk.layout in
  let proto = layout.arc_protos.(ai) in
  let off = layout.offset.(ai) and sz = layout.size.(ai) in
  let rows, cols = Lut.dims proto.Arc.rise_delay in
  let slews = Lut.slews proto.Arc.rise_delay and loads = Lut.loads proto.Arc.rise_delay in
  let mean_lut k =
    Lut.make ~slews ~loads
      ~values:(Grid.of_flat ~rows ~cols (Array.sub chunk.mean (off + (k * sz)) sz))
  in
  let sigma_lut k =
    let dst = Array.make sz 0.0 in
    Kernel.Welford.sigma_into ~n:chunk.count
      ~m2:(Array.sub chunk.m2 (off + (k * sz)) sz)
      ~dst;
    Lut.make ~slews ~loads ~values:(Grid.of_flat ~rows ~cols dst)
  in
  Arc.make ~related_pin:proto.Arc.related_pin ~sense:proto.Arc.sense
    ~rise_delay:(mean_lut 0) ~fall_delay:(mean_lut 1) ~rise_transition:(mean_lut 2)
    ~fall_transition:(mean_lut 3) ~rise_delay_sigma:(sigma_lut 0)
    ~fall_delay_sigma:(sigma_lut 1) ?internal_power:proto.Arc.internal_power ()

let finish_cell chunk ci =
  (* Rebuild the cell, swapping each output pin's arcs for the merged
     ones.  Arc order is the concatenation order of Cell.arcs. *)
  let layout = chunk.layout in
  let first = layout.cell_first_arc.(ci) in
  let merged = Array.init layout.cell_arc_count.(ci) (fun k -> finish_arc chunk (first + k)) in
  let cursor = ref 0 in
  let take n =
    let slice = Array.sub merged !cursor n in
    cursor := !cursor + n;
    Array.to_list slice
  in
  let c = layout.proto_cells.(ci) in
  let pins =
    List.map
      (fun (p : Pin.t) ->
        if Pin.is_output p then
          Pin.output ~name:p.name ?max_capacitance:p.max_capacitance
            ~arcs:(take (List.length p.arcs)) ()
        else p)
      c.Cell.pins
  in
  Cell.make ~name:c.Cell.name ~family:c.Cell.family ~drive_strength:c.Cell.drive_strength
    ~kind:c.Cell.kind ~area:c.Cell.area ~pins ~setup_time:c.Cell.setup_time
    ~hold_time:c.Cell.hold_time ?clock_pin:c.Cell.clock_pin ~leakage:c.Cell.leakage ()

let finish_library chunk =
  let cells =
    List.init (Array.length chunk.layout.proto_cells) (fun ci -> finish_cell chunk ci)
  in
  Library.make ~name:(chunk.first_name ^ "_stat") ~corner:chunk.first_corner ~cells

module Store = Vartune_store.Store
module Codec = Vartune_store.Codec
module Characterize = Vartune_charlib.Characterize
module Journal = Vartune_journal.Journal

let store_key config ~mismatch ~seed ~n ?specs () =
  let key =
    Characterize.add_config_to_key (Store.Key.v "statlib") config
    |> fun k ->
    Store.Key.float k "sigma_r" mismatch.Vartune_process.Mismatch.sigma_resistance
    |> fun k ->
    Store.Key.float k "sigma_i" mismatch.Vartune_process.Mismatch.sigma_intrinsic
    |> fun k ->
    Store.Key.int k "seed" seed |> fun k -> Store.Key.int k "samples" n
  in
  Characterize.add_specs_to_key key
    (Option.value specs ~default:Vartune_stdcell.Catalog.specs)

(* ------------------------------------------------------------------ *)
(* Checkpointed (resumable) builds                                     *)
(* ------------------------------------------------------------------ *)

(* Partial-state codec: the Welford statistics covering the first
   [blocks] sample blocks, saved to the run's state store at every
   checkpoint.  Floats travel as bit patterns, so a resumed merge
   continues from exactly the state an uninterrupted run would hold at
   the same block boundary — the final library is bit-identical.

   Per table the byte stream is the count, then the mean grid, then the
   m2 grid, each grid as rows, cols and row-major floats, read and
   written directly from slices of the flat arrays.  The layout is
   fixed: checkpoints landed by older builds still decode, and warm
   store artifacts stay valid with no version bump.

   Only the mutable statistics are stored.  The structural skeleton
   (cells, pins, arcs, LUT axes, internal power) is rebuilt on decode
   from the proto library — sample 0, regenerated from the recorded
   seed — which is the same proto an uninterrupted left-to-right merge
   carries in its head chunk.  Any mismatch between stored statistics
   and the rebuilt skeleton raises [Codec.Corrupt], the store evicts
   the entry, and the resuming build falls back to an older checkpoint
   or a cold start: a corrupt checkpoint can cost time, never
   correctness. *)

let checkpoint_key ~id ~blocks =
  Store.Key.int (Store.Key.str (Store.Key.v "statlib_partial") "statlib" id) "blocks" blocks

(* One table surface of one accumulator role: dimensions then the
   row-major floats, a direct slice walk of the flat array. *)
let w_surface b ~rows ~cols data pos =
  Codec.w_int b rows;
  Codec.w_int b cols;
  for k = pos to pos + (rows * cols) - 1 do
    Codec.w_float b (Array.unsafe_get data k)
  done

let r_surface_into r ~rows ~cols data pos =
  let stored_rows = Codec.r_int r in
  let stored_cols = Codec.r_int r in
  if stored_rows <> rows || stored_cols <> cols then
    raise (Codec.Corrupt "statlib partial: grid dimensions mismatch");
  for k = pos to pos + (rows * cols) - 1 do
    Array.unsafe_set data k (Codec.r_float r)
  done

let w_table_acc b chunk ~rows ~cols pos =
  Codec.w_int b chunk.count;
  w_surface b ~rows ~cols chunk.mean pos;
  w_surface b ~rows ~cols chunk.m2 pos

let r_table_acc_into ~expected_count r chunk ~rows ~cols pos =
  let count = Codec.r_int r in
  if count <> expected_count then
    raise
      (Codec.Corrupt
         (Printf.sprintf "statlib partial: accumulator count %d, expected %d" count
            expected_count));
  r_surface_into r ~rows ~cols chunk.mean pos;
  r_surface_into r ~rows ~cols chunk.m2 pos

let w_partial ~samples_done chunk b =
  let layout = chunk.layout in
  Codec.w_int b samples_done;
  Codec.w_string b chunk.first_name;
  Codec.w_string b chunk.first_corner;
  Codec.w_int b (Array.length layout.proto_cells);
  Array.iteri
    (fun ci (c : Cell.t) ->
      Codec.w_string b c.Cell.name;
      Codec.w_int b layout.cell_arc_count.(ci);
      let first = layout.cell_first_arc.(ci) in
      for k = 0 to layout.cell_arc_count.(ci) - 1 do
        let ai = first + k in
        let rows, cols = Lut.dims layout.arc_protos.(ai).Arc.rise_delay in
        let off = layout.offset.(ai) and sz = layout.size.(ai) in
        w_table_acc b chunk ~rows ~cols off;
        w_table_acc b chunk ~rows ~cols (off + sz);
        w_table_acc b chunk ~rows ~cols (off + (2 * sz));
        w_table_acc b chunk ~rows ~cols (off + (3 * sz))
      done)
    layout.proto_cells

let r_partial ~proto ~samples_done r =
  let stored = Codec.r_int r in
  if stored <> samples_done then
    raise
      (Codec.Corrupt
         (Printf.sprintf "statlib partial: covers %d samples, checkpoint says %d" stored
            samples_done));
  let first_name = Codec.r_string r in
  let first_corner = Codec.r_string r in
  if first_name <> Library.name proto || first_corner <> Library.corner proto then
    raise (Codec.Corrupt "statlib partial: proto library mismatch");
  let layout = layout_of_library proto in
  let chunk =
    {
      first_name;
      first_corner;
      layout;
      count = samples_done;
      mean = Array.make layout.total 0.0;
      m2 = Array.make layout.total 0.0;
    }
  in
  let ncells = Codec.r_int r in
  if ncells <> Array.length layout.proto_cells then
    raise (Codec.Corrupt "statlib partial: cell count mismatch");
  Array.iteri
    (fun ci (c : Cell.t) ->
      let name = Codec.r_string r in
      if name <> c.Cell.name then
        raise (Codec.Corrupt "statlib partial: cell order mismatch");
      let narcs = Codec.r_int r in
      if narcs <> layout.cell_arc_count.(ci) then
        raise (Codec.Corrupt "statlib partial: arc count mismatch");
      let first = layout.cell_first_arc.(ci) in
      for k = 0 to layout.cell_arc_count.(ci) - 1 do
        let ai = first + k in
        let rows, cols = Lut.dims layout.arc_protos.(ai).Arc.rise_delay in
        let off = layout.offset.(ai) and sz = layout.size.(ai) in
        r_table_acc_into ~expected_count:samples_done r chunk ~rows ~cols off;
        r_table_acc_into ~expected_count:samples_done r chunk ~rows ~cols (off + sz);
        r_table_acc_into ~expected_count:samples_done r chunk ~rows ~cols (off + (2 * sz));
        r_table_acc_into ~expected_count:samples_done r chunk ~rows ~cols (off + (3 * sz))
      done)
    layout.proto_cells;
  chunk

let c_resumed_samples = Obs.Counter.make "journal.resumed_samples"

(* The newest journaled checkpoint of statlib [id] whose stored
   partial still decodes, with the number of blocks it covers; a
   corrupt or missing partial falls back to an older checkpoint, and
   none to a cold start. *)
let restore ~ckpt ~id ~n ~nchunks gen =
  let proto = lazy (gen 0) in
  let rec try_checkpoint = function
    | [] -> (None, 0)
    | (blocks, samples_done) :: older ->
      if blocks < 1 || blocks > nchunks || samples_done <> min n (blocks * merge_chunk) then
        try_checkpoint older
      else (
        match
          Store.load ckpt.Journal.state (checkpoint_key ~id ~blocks)
            (r_partial ~proto:(Lazy.force proto) ~samples_done)
        with
        | Some chunk ->
          Obs.Counter.add c_resumed_samples samples_done;
          (Some chunk, blocks)
        | None -> try_checkpoint older)
  in
  try_checkpoint (Journal.checkpoints_for ckpt ~statlib:id)

(* The streaming merge: [gen 0 .. gen (n-1)] in fixed [merge_chunk]
   sample blocks, each accumulated on a pool worker, the partials
   merged strictly left to right.  Without [ckpt] every block is one
   round.  With [ckpt = (ctx, id)] the merge starts from {!restore},
   runs in rounds of [max every_blocks jobs] blocks, journals each
   block, and between rounds saves the running partial to the run's
   state store and journals a [Checkpoint]; a pending stop request is
   honoured right after a checkpoint lands, by raising
   [Journal.Interrupted].  Rounds only cut the same fold into pieces,
   so the result is bit-identical at any pool size and any checkpoint
   cadence. *)
let merge_blocks ?ckpt ~pool ~n gen =
  if n <= 0 then invalid_arg "Statistical.of_stream: n must be positive";
  Obs.span "statlib.build"
    ~attrs:(fun () -> [ ("samples", string_of_int n) ])
    (fun () ->
      let nchunks = (n + merge_chunk - 1) / merge_chunk in
      let acc, start, round =
        match ckpt with
        | None -> (None, 0, nchunks)
        | Some (ctx, id) ->
          let acc, start = restore ~ckpt:ctx ~id ~n ~nchunks gen in
          (acc, start, max ctx.Journal.every_blocks (Pool.jobs pool))
      in
      let acc = ref acc and done_blocks = ref start in
      while !done_blocks < nchunks do
        let upto = min nchunks (!done_blocks + round) in
        let idxs = List.init (upto - !done_blocks) (fun k -> !done_blocks + k) in
        (* map_chunked batches block dispatch only: the [merge_chunk]
           partition and the fold below are what fix the result *)
        let parts =
          Pool.map_chunked pool
            (fun c ->
              let lo = c * merge_chunk in
              accumulate_chunk gen ~lo ~hi:(min n (lo + merge_chunk)))
            idxs
        in
        Obs.span "statlib.merge"
          ~attrs:(fun () -> [ ("chunks", string_of_int (List.length parts)) ])
          (fun () ->
            match (!acc, parts) with
            | Some a, _ -> acc := Some (List.fold_left chunk_merge a parts)
            | None, head :: rest -> acc := Some (List.fold_left chunk_merge head rest)
            | None, [] -> assert false);
        done_blocks := upto;
        Option.iter
          (fun (ctx, id) ->
            List.iter
              (fun c ->
                let lo = c * merge_chunk in
                Journal.record ctx
                  (Journal.Block_done { statlib = id; lo; hi = min n (lo + merge_chunk) }))
              idxs;
            if upto < nchunks then begin
              let samples_done = min n (upto * merge_chunk) in
              let key = checkpoint_key ~id ~blocks:upto in
              Store.save ctx.Journal.state key (w_partial ~samples_done (Option.get !acc));
              Journal.record ctx
                (Journal.Checkpoint
                   { statlib = id; blocks = upto; samples_done; key = Store.Key.id key });
              if Journal.stop_requested ctx then
                raise
                  (Journal.Interrupted
                     (Printf.sprintf "statistical library checkpointed at %d/%d samples"
                        samples_done n))
            end)
          ckpt
      done;
      finish_library (Option.get !acc))

let of_stream ?pool ~n gen =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  merge_blocks ~pool ~n gen

let of_libraries = function
  | [] -> invalid_arg "Statistical.of_libraries: empty list"
  | libs ->
    let arr = Array.of_list libs in
    of_stream ~n:(Array.length arr) (fun i -> arr.(i))

let build ?pool ?store ?ckpt config ~mismatch ~seed ~n ?specs () =
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let gen index =
    Vartune_charlib.Sampler.sample_library config ~mismatch ~seed ~index ?specs ()
  in
  let key = store_key config ~mismatch ~seed ~n ?specs () in
  let id = Store.Key.id key in
  let specs_used = Option.value specs ~default:Vartune_stdcell.Catalog.specs in
  fst
    (Journal.fetch ~kind:Characterize.library_kind ?store ckpt key
       (Characterize.decode_library ~what:"statistical" ~specs:specs_used)
       (fun lib b -> Codec.w_library b lib)
       ~step:(fun _ -> Journal.Statlib_built { key = id })
       (fun () -> merge_blocks ?ckpt:(Option.map (fun c -> (c, id)) ckpt) ~pool ~n gen))

let is_statistical lib =
  List.for_all
    (fun c -> List.for_all Arc.has_sigma (Cell.arcs c))
    (List.filter (fun c -> Cell.arcs c <> []) (Library.cells lib))
