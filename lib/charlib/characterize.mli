(** Library characterisation (Section II of the paper).

    Expands the cell catalog into a liberty library: every (family, drive)
    pair becomes a cell whose timing arcs carry 2-D LUTs tabulated over a
    shared slew axis and a per-drive load axis. *)

type config = {
  params : Delay_model.params;
  corner : Vartune_process.Corner.t;
  slew_axis : float array;  (** shared input-slew axis, ns *)
  load_fractions : float array;
  (** load axis as fractions of each cell's max capacitance *)
}

val default_config : config
(** Typical corner, 8×8 grids: slews 0.01–1.0 ns, loads 1/64–1 of the
    cell's drive limit. *)

val load_axis : config -> Vartune_stdcell.Spec.t -> drive:int -> float array
(** Absolute load axis of one cell, pF. *)

val cell :
  config ->
  ?sample_for:(Vartune_stdcell.Spec.t -> drive:int -> Vartune_process.Mismatch.sample) ->
  Vartune_stdcell.Spec.t ->
  drive:int ->
  Vartune_liberty.Cell.t
(** Characterises one cell.  [sample_for] supplies the local-variation
    sample applied to all of the cell's arcs (defaults to no variation). *)

val library :
  config ->
  ?name:string ->
  ?sample_for:(Vartune_stdcell.Spec.t -> drive:int -> Vartune_process.Mismatch.sample) ->
  Vartune_stdcell.Spec.t list ->
  Vartune_liberty.Library.t
(** Characterises a whole catalog.  The default name is the corner tag. *)

val nominal :
  ?specs:Vartune_stdcell.Spec.t list ->
  ?store:Vartune_store.Store.t ->
  config ->
  Vartune_liberty.Library.t
(** The nominal (no-variation) library of the full catalog.  With
    [store], the library is fetched from / saved to the persistent
    artifact store under a key derived from the full characterisation
    config and catalog shape.  A stored entry whose cell count does not
    match the specs (see {!decode_library}) is evicted and recomputed. *)

val expected_cells : Vartune_stdcell.Spec.t list -> int
(** Number of cells a library characterised from [specs] must contain
    (one per family × drive). *)

val decode_library :
  what:string ->
  specs:Vartune_stdcell.Spec.t list ->
  Vartune_store.Codec.reader ->
  Vartune_liberty.Library.t
(** Store decoder for libraries characterised from [specs]:
    {!Vartune_store.Codec.r_library} plus a structural sanity check.
    When the cell count contradicts [specs] the entry passed its
    checksum but is logically corrupt, so it logs a warning naming
    [what] and raises {!Vartune_store.Codec.Corrupt}; the store then
    evicts the entry and the caller recomputes.  Part of the store's
    never-serve-a-corrupt-artifact contract. *)

(** {1 Store fingerprints} *)

val add_config_to_key : Vartune_store.Store.Key.t -> config -> Vartune_store.Store.Key.t
(** Appends every characterisation input — delay-model parameters,
    corner, slew axis, load fractions — to a store key, so any config
    change invalidates dependent artifacts. *)

val add_specs_to_key :
  Vartune_store.Store.Key.t -> Vartune_stdcell.Spec.t list -> Vartune_store.Store.Key.t
(** Appends the catalog shape (families and drive lists). *)
