(** Statistical library construction (Section IV, Fig. 2 of the paper).

    N Monte-Carlo sample libraries are merged entry-by-entry: each LUT
    entry of the result holds the mean of that entry across the samples,
    and a parallel sigma table holds the standard deviation.  The result
    is a normal library file "with identical tables as a nominal library
    but which contains local variation statistics instead". *)

val of_libraries : Vartune_liberty.Library.t list -> Vartune_liberty.Library.t
(** Merges a non-empty list of structurally identical libraries.  Delay
    tables become (mean, sigma) pairs; transition tables are averaged.
    Raises [Invalid_argument] on an empty list or structural mismatch. *)

val of_stream :
  ?pool:Vartune_util.Pool.t ->
  n:int ->
  (int -> Vartune_liberty.Library.t) ->
  Vartune_liberty.Library.t
(** Chunked merge: [of_stream ~n gen] partitions [gen 0 .. gen (n-1)]
    into fixed contiguous sample blocks, streams each block through a
    Welford accumulator on a [pool] worker (default {!Vartune_util.Pool.default}),
    and combines the per-block partials left-to-right with the pairwise
    mean/M2 merge of Chan et al.  The block partition depends only on
    [n], so the result is bit-for-bit identical at any pool size —
    including the serial jobs = 1 fallback.  Equivalent (within the
    accumulation scheme) to [of_libraries (List.init n gen)]; [gen] must
    be safe to call from worker domains.  [gen 0] is called once, on the
    calling domain: sample 0 is the proto whose structure every other
    sample must match (cell count, cell order, arc count, arc order and
    table axes, each refused with its own [Invalid_argument] message).
    Besides sample 0, no more than one sample library per worker is
    live at a time. *)

val build :
  ?pool:Vartune_util.Pool.t ->
  ?store:Vartune_store.Store.t ->
  ?ckpt:Vartune_journal.Journal.ctx ->
  Vartune_charlib.Characterize.config ->
  mismatch:Vartune_process.Mismatch.t ->
  seed:int ->
  n:int ->
  ?specs:Vartune_stdcell.Spec.t list ->
  unit ->
  Vartune_liberty.Library.t
(** Characterise-and-merge: N mismatch samples of the catalog
    characterised across the pool's domains and merged into one
    statistical library.  Each sample is characterised straight into
    its block's flat Welford scratch ({!Vartune_charlib.Sampler.sample_surfaces});
    no sample library is built.  The result is bit-identical to
    [of_stream ~n (fun index -> Sampler.sample_library ... ~index ())].
    Deterministic in [(seed, n)] regardless of the
    pool size, because each sample index draws from its own
    {!Vartune_util.Rng.stream}-derived generator.  With [store], the
    merged library is fetched from / saved to the persistent artifact
    store under {!store_key} — a hit skips characterisation entirely and
    is bit-identical to the cold computation.

    With [ckpt], the merge runs in rounds of
    [max ckpt.every_blocks (Pool.jobs pool)] sample blocks: after each
    non-final round the running Welford partials are saved to the run's
    state store under {!checkpoint_key} and a [Checkpoint] step is
    journaled, and a pending stop request ({!Vartune_journal.Journal.request_stop})
    is honoured by raising [Journal.Interrupted] — only ever {e after} a
    checkpoint has landed.  On resume, the newest journaled checkpoint
    whose stored partial still decodes cleanly seeds the merge; a
    corrupt or missing partial silently falls back to an older
    checkpoint or a cold start.  The block partition and the
    left-to-right merge order are unchanged, so interrupted-and-resumed
    output is bit-identical to an uninterrupted run at any job count
    and any checkpoint cadence. *)

val checkpoint_key : id:string -> blocks:int -> Vartune_store.Store.Key.t
(** State-store key of the Welford partial covering the first [blocks]
    sample blocks of the statistical library whose {!store_key} recipe
    id is [id].  Exposed for tests that corrupt checkpoints on disk. *)

val store_key :
  Vartune_charlib.Characterize.config ->
  mismatch:Vartune_process.Mismatch.t ->
  seed:int ->
  n:int ->
  ?specs:Vartune_stdcell.Spec.t list ->
  unit ->
  Vartune_store.Store.Key.t
(** The statistical-library fingerprint: characterisation config,
    mismatch sigmas, seed, sample count and catalog shape.  Changing any
    one forces a store miss.  Exposed so downstream stages (synthesis
    runs, sweeps) can chain it into their own keys. *)

val is_statistical : Vartune_liberty.Library.t -> bool
(** Whether every non-trivial arc carries sigma tables. *)
