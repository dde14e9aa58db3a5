module Rng = Vartune_util.Rng
module Mismatch = Vartune_process.Mismatch
module Spec = Vartune_stdcell.Spec

(* Stream derivation: sample [index] owns the [index]-th split of the
   root generator for [seed]; within a sample, each (family, drive) cell
   owns a hash-indexed split of the sample stream.  Both hops use
   Rng.stream, so any (seed, index, cell) triple yields the same draws
   no matter which domain characterises it or in what order — samples
   are reproducible and order-independent, which is what makes
   the statistical library's parallel build bit-deterministic. *)
let sample_stream ~seed ~index = Rng.stream (Rng.create seed) index

let cell_rng ~seed ~index (spec : Spec.t) ~drive =
  Rng.stream (sample_stream ~seed ~index) (Hashtbl.hash (spec.Spec.family, drive))

let sample_name config index =
  Printf.sprintf "%s_mc%03d" (Vartune_process.Corner.name config.Characterize.corner) index

let sample_for ~mismatch ~seed ~index spec ~drive =
  let rng = cell_rng ~seed ~index spec ~drive in
  Mismatch.draw mismatch rng ~stages:(Delay_model.stage_count spec) ~drive ()

let sample_library config ~mismatch ~seed ~index ?(specs = Vartune_stdcell.Catalog.specs) () =
  Characterize.library config ~name:(sample_name config index)
    ~sample_for:(sample_for ~mismatch ~seed ~index) specs

let sample_surfaces config ~mismatch ~seed ~index ?(specs = Vartune_stdcell.Catalog.specs) dst =
  Characterize.surfaces config ~name:(sample_name config index)
    ~sample_for:(sample_for ~mismatch ~seed ~index) specs dst

let proto config ?(specs = Vartune_stdcell.Catalog.specs) () =
  Characterize.skeleton config ~name:(sample_name config 0) specs
