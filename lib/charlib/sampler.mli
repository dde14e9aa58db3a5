(** Monte-Carlo library sampling (Section III/IV of the paper).

    Each sample library is the catalog re-characterised with one fresh
    local-variation draw per cell; the set of N sample libraries is the
    input to the statistical merge.  The paper uses N = 50.  A sample
    is characterised either as a library ({!sample_library}) or straight
    into the merge's flat layout ({!sample_surfaces}); both give the
    same bits. *)

val sample_library :
  Characterize.config ->
  mismatch:Vartune_process.Mismatch.t ->
  seed:int ->
  index:int ->
  ?specs:Vartune_stdcell.Spec.t list ->
  unit ->
  Vartune_liberty.Library.t
(** The [index]-th sample library of the stream identified by [seed].
    Every cell draws from an {!Vartune_util.Rng.stream} generator derived
    from [(seed, index, cell)], so sample k is identical whether
    generated alone, as part of a batch, or on a worker domain. *)

val sample_surfaces :
  Characterize.config ->
  mismatch:Vartune_process.Mismatch.t ->
  seed:int ->
  index:int ->
  ?specs:Vartune_stdcell.Spec.t list ->
  float array ->
  int
(** The timing surfaces of {!sample_library} with the same arguments,
    written straight into a flat array by {!Characterize.surfaces}
    (same order, same bits, same span and counters) without building
    the library; returns the number of entries written.  This is how
    {!Vartune_statlib.Statistical.build} characterises its samples. *)

val proto :
  Characterize.config -> ?specs:Vartune_stdcell.Spec.t list -> unit -> Vartune_liberty.Library.t
(** The structure every sample library of [specs] shares, named as
    sample 0 ({!Characterize.skeleton}): the skeleton that the
    statistical merge rebuilds its result from. *)
