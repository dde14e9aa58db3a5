(** Versioned binary codec for pipeline artifacts.

    Fast, allocation-light binary (de)serialisation of everything the
    persistent artifact store holds: statistical libraries, synthesis
    results and design-sigma aggregates.  All
    numbers are fixed-width little-endian — floats travel as their
    IEEE-754 bit patterns — so a decoded artifact is {e bit-identical}
    to the encoded one, which is what lets warm pipeline runs reproduce
    cold-run reports byte for byte.

    Decoding is defensive: every read is bounds-checked and every
    reconstruction validated, so malformed input raises {!Corrupt}
    rather than producing a plausible-but-wrong artifact.  The store
    treats {!Corrupt} (and constructor validation failures) as an
    evict-and-recompute signal — a bad entry is never trusted.

    {2 Version-bump policy}

    {!version} names the layout {e and} the pipeline semantics baked
    into stored artifacts.  Bump it when either changes:

    - the binary layout of any codec below;
    - anything that alters what a stage computes for the same key
      (delay model, catalog, characterisation grid, statistical merge,
      mapper/sizer/STA algorithms).

    The version participates in every store key, so a bump simply
    orphans old entries (they are never read again); [vartune store
    wipe] or deleting the store directory reclaims the space.

    {2 Synthesis-run entries}

    Version 2 holds a synthesis run as its label, its period,
    {!w_result} and {!w_design_sigma}, about 1.7 MB for the mcu.
    Version 1 also held the worst path to every endpoint (2.75 MB of a
    4.8 MB entry), and embedded every cell the netlist used (0.4–0.6 MB)
    where version 2 names it; a run's paths are now derived on demand
    from the timing that {!r_result} rebuilds.  A run fetched through a
    [Store.scope] is held by that scope and stays out of the store's
    in-process tier. *)

val version : int
(** Current codec/pipeline schema version. *)

exception Corrupt of string
(** Raised by every [r_*] function on malformed or truncated input. *)

type reader
(** A read cursor over an immutable payload string. *)

val reader : string -> reader

val at_end : reader -> bool
(** Whether the cursor consumed the whole payload. *)

(** {1 Primitives}

    Writers append to a [Buffer.t]; exposed for the store's entry
    framing and for tests. *)

val w_int : Buffer.t -> int -> unit
val r_int : reader -> int

val w_bool : Buffer.t -> bool -> unit
val r_bool : reader -> bool

val w_float : Buffer.t -> float -> unit
(** Exact: the IEEE-754 bit pattern is preserved. *)

val r_float : reader -> float

val w_string : Buffer.t -> string -> unit
val r_string : reader -> string

(** {1 Artifact codecs} *)

val w_library : Buffer.t -> Vartune_liberty.Library.t -> unit

val r_library : reader -> Vartune_liberty.Library.t
(** Cells, pins, arcs and LUTs are rebuilt through their validating
    constructors; a structural inconsistency raises {!Corrupt} (or the
    constructor's [Invalid_argument], which the store treats the same
    way). *)

val w_design_sigma : Buffer.t -> Vartune_stats.Design_sigma.t -> unit
val r_design_sigma : reader -> Vartune_stats.Design_sigma.t

val w_result : Buffer.t -> Vartune_synth.Synthesis.result -> unit
(** Embeds a faithful netlist image ({!Vartune_netlist.Netlist.export})
    — tombstones, sink order and name counter included — plus the
    scalar verdicts and the sizer report.  Cells travel by name, each
    distinct cell once.  The timing analysis itself is not stored: it
    is a deterministic function of the netlist and is recomputed on
    decode. *)

val r_result :
  library:Vartune_liberty.Library.t ->
  timing_config:Vartune_sta.Timing.config ->
  reader ->
  Vartune_synth.Synthesis.result
(** Rebuilds the netlist with the cells of [library] (the library the
    result was synthesised with; a name it lacks raises {!Corrupt}), so
    the decoded netlist shares the library's cell values, and re-runs
    {!Vartune_sta.Timing.run} under
    [timing_config].  The recomputed worst slack must match the stored
    one bit-for-bit; a mismatch means the pipeline changed without a
    {!version} bump and raises {!Corrupt} so the entry is evicted.  The
    feasibility, area and instance count must likewise agree with the
    slack and the netlist.  The
    timing's endpoint lists are built before it returns, so readers of
    a shared result never write its cache. *)
