(** Persistent content-addressed artifact store.

    Caches expensive pipeline artifacts (statistical libraries,
    synthesis runs, measured minimum periods, ...) on disk so warm
    [vartune] invocations skip straight to report rendering.  Entries
    are addressed by a {!Key}: a self-describing recipe of every input
    that determines the artifact — codec/pipeline version, seeds,
    sample counts, grids, fingerprints — hashed into the file name.
    The full recipe string is stored inside each entry and compared on
    read, so even a hash collision degrades to a miss, never to reusing
    the wrong artifact.

    {2 Layout}

    {v
    <dir>/objects/<hh>/<32-hex-digest>.vt
    v}

    where [<hh>] is the first two digest characters.  Each entry is a
    single file: magic, codec version, recipe string, payload length,
    payload checksum, payload.  The default [<dir>] resolves, highest
    priority first, from the [--store] flag (callers pass the directory
    explicitly), the [VARTUNE_STORE] environment variable, then
    [$XDG_CACHE_HOME/vartune] or [~/.cache/vartune].

    {2 Safety}

    - {e Concurrency}: writers serialise through a per-entry lock file
      (stale locks from crashed writers are broken after a grace
      period) and land entries with write-to-temp + atomic rename, so
      readers — including pool worker domains — only ever see complete
      entries.  Two concurrent writers of the same key produce
      identical bytes; either rename winning is correct.
    - {e Corruption}: every read verifies the magic, version, recipe
      and payload checksum, and decoding validates structurally.  A bad
      entry is evicted (unlinked) and reported as a miss so the caller
      recomputes; it is never trusted.
    - {e Faults}: transient I/O failures (real, or injected through
      {!Vartune_fault.Fault} at the [read]/[write]/[rename]/[lock]/
      [fsync]/[enospc]/[partial_write] points) are retried
      {!retry_attempts} times with exponential, deterministically
      jittered backoff.  ENOSPC — or exhausting retries repeatedly —
      degrades the handle to no-store mode: loads report misses, saves
      become no-ops, a [store.degraded] counter ticks and one warning
      is logged.  The store is an accelerator; it never fails the
      pipeline and never serves a corrupt artifact.

    {2 In-process tier}

    Each handle also keeps the values {!fetch} decoded or computed
    through it, so a long-lived process (the serve daemon, a sweep)
    decodes each artifact at most once per handle.  It is a
    least-recently-used table keyed by {!Key.id}, guarded by one mutex,
    and limited to {!memory_budget} bytes of encoded payload: each
    entry is charged the length of the payload its disk entry holds,
    and an artifact larger than half the budget is never kept, so no
    single artifact can flush the table.  The budget counts encoded
    bytes, not memory: a decoded value can be several times its entry
    (a decoded mcu synthesis run holds 7.8 MB of its own, ~4.6 times
    its 1.7 MB entry, besides the 0.7 MB of library cells it shares).  Only
    {!fetch} uses it; {!load}, {!save} and their [_result] forms stay
    disk-only.  A new {!open_dir} handle starts empty, and there is no
    table shared between handles.  A degraded handle neither consults
    nor fills it.

    {2 Scopes}

    A {!scope} is the same kind of table with no budget: it holds every
    value {!fetch} returned through it until the scope is dropped, so
    its owner decides how long values live (an experiment set-up holds
    its synthesis runs).  A value fetched with a scope stays out of the
    handles' in-process tiers: the scope already holds it, and a set-up's
    ~1.7 MB runs would otherwise evict the values every request shares
    (the 3.8 MB statistical library).

    A fetched value may be shared with every later fetch of the same
    key through the same handle, across requests and domains.  Callers
    must treat it as read-only: mutable parts (a synthesised netlist,
    its timing) are never to be changed in place.

    {2 Telemetry}

    When {!Vartune_obs.Obs} is enabled, operations record [store.load]
    / [store.save] spans ({!fetch} encodes a computed artifact once,
    outside them, in a [store.encode] span) and the counters
    [store.hit], [store.miss],
    [store.write], [store.evict], [store.read_bytes],
    [store.write_bytes].  A hit in the in-process tier adds to
    [store.hit] (and the handle's [hits]) but never to [read_bytes],
    and opens no [store.load] span.  Per-handle {!stats} are always
    maintained (atomically — handles may be shared across domains). *)

module Key : sig
  type t
  (** An accumulating recipe of labelled ingredients.  Builders return
      a new key, so recipes can be extended functionally; the codec
      version is included implicitly. *)

  val v : string -> t
  (** [v stage] starts a recipe for the named pipeline stage. *)

  val int : t -> string -> int -> t
  val bool : t -> string -> bool -> t

  val float : t -> string -> float -> t
  (** Exact: the IEEE-754 bit pattern is the ingredient. *)

  val str : t -> string -> string -> t
  (** Length-prefixed, so delimiter injection cannot alias recipes. *)

  val floats : t -> string -> float array -> t

  val id : t -> string
  (** The full recipe string (stored in entries, compared on read). *)

  val hex : t -> string
  (** 128-bit digest of {!id} — the entry file name. *)

  val fnv1a64 : int64 -> string -> int64
  (** [fnv1a64 basis s] is the 64-bit FNV-1a hash of [s] from the
      offset basis [basis] (the standard one is [0xcbf29ce484222325L]).
      It allocates nothing.  Entry checksums, the journal's record
      checksums and {!hex} all use it. *)
end

type t

type stats = {
  hits : int;
  misses : int;
  writes : int;
  evictions : int;
  read_bytes : int;
  written_bytes : int;
  retries : int;  (** transient-failure attempts that were retried *)
  errors : int;  (** operations that failed after exhausting retries *)
  degraded : bool;  (** whether the handle has dropped to no-store mode *)
}

type error =
  | Io of { site : string; reason : string }
      (** A transient failure survived every retry.  [site] names the
          operation ([store.load], [store.save], [store.save.lock]). *)
  | No_space of { site : string }  (** ENOSPC — persistent, never retried. *)
  | Locked
      (** A live writer holds the entry lock.  Benign: content
          addressing guarantees it is landing identical bytes. *)
  | Disabled  (** The handle is degraded; the operation was not attempted. *)

val error_to_string : error -> string

val retry_attempts : int
(** Bounded attempts per operation before a transient failure becomes
    {!Io}. *)

val default_dir : unit -> string
(** [VARTUNE_STORE], else [$XDG_CACHE_HOME/vartune], else
    [~/.cache/vartune]; falls back to [_vartune_store] in the working
    directory when no home is known. *)

val open_dir : string -> t
(** Opens (creating if needed) a store rooted at the given directory
    and sweeps temp/lock litter left by crashed writers. *)

val dir : t -> string

val load : t -> Key.t -> (Codec.reader -> 'a) -> 'a option
(** [load t key decode] returns the decoded artifact, or [None] on a
    miss.  Corrupt entries ({!Codec.Corrupt}, checksum or framing
    failures, any decoder exception) are evicted and reported as a
    miss.  I/O failures (after retries) also report [None]; use
    {!load_result} to observe them.  Never raises. *)

val load_result : t -> Key.t -> (Codec.reader -> 'a) -> ('a option, error) result
(** Like {!load} but surfaces typed failures.  [Ok None] is an honest
    miss (including evicted corruption); [Error _] means the entry's
    state is unknown because I/O failed. *)

val save : t -> Key.t -> (Buffer.t -> unit) -> unit
(** [save t key encode] lands the encoded artifact atomically (write to
    temp, fsync, rename).  If a live writer already holds the entry's
    lock the write is skipped — content addressing guarantees the
    competing writer lands identical bytes.  I/O failures are logged
    and counted, never raised: the store is an accelerator, not a
    dependency.  Only an exception from [encode] itself (a caller bug)
    propagates, and the entry lock is released on that path too. *)

val save_result : t -> Key.t -> (Buffer.t -> unit) -> (unit, error) result
(** Like {!save} but surfaces typed failures instead of swallowing
    them. *)

type 'a kind
(** A type witness for the in-process tier, which holds values of every
    artifact type in one table.  Make one per artifact type, once, at
    module initialisation, and pass it to every {!fetch} of that type;
    a value remembered under one kind is never returned under
    another. *)

val kind : unit -> 'a kind
(** A fresh witness, distinct from every other. *)

val memory_budget : int
(** The in-process tier's limit per handle, in bytes of encoded
    payload: 8 MiB. *)

type scope
(** A budget-free table of fetched values, keyed by {!Key.id}; safe to
    share across domains. *)

val scope : unit -> scope
(** A new, empty scope. *)

val fetch :
  kind:'a kind ->
  ?scope:scope ->
  t list ->
  Key.t ->
  (Codec.reader -> 'a) ->
  ('a -> Buffer.t -> unit) ->
  (unit -> 'a) ->
  'a * bool
(** [fetch ~kind ?scope stores key decode encode compute] is the one
    probe-and-save policy of every cached pipeline artifact.  The
    [scope] is probed first; a hit there touches no store and no
    [store.*] counter.  Then the stores are probed in list order, each
    first in its in-process tier and then on disk with {!load}, and
    the first hit wins.  A disk hit
    is remembered by the store that served it (unless a [scope] holds
    it); it is not written back
    to earlier stores.  On a miss in every store, [compute] runs once,
    its result is encoded once, remembered by every store (unless a
    [scope] holds it), and then
    the same entry bytes are {!save}d to all of them; with no live
    store nothing is encoded.  Every value returned, hit or computed,
    is held by the [scope].  The flag is [true] on a hit in the scope
    or in any store.  An exception from [compute] (e.g. a journaled
    run's [Interrupted]) propagates and nothing is remembered or
    saved.  Like {!load}, a corrupt entry — including one whose
    decoder raises {!Codec.Corrupt} on a semantic check — is evicted
    and treated as a miss, so the next store (or [compute]) serves the
    artifact.  The result is shared: see the read-only contract
    above. *)

val degraded : t -> bool
(** [true] once the handle has dropped to no-store mode (ENOSPC or
    repeated exhausted-retry failures).  Degradation is one-way for the
    lifetime of the handle. *)

val entry_path : t -> Key.t -> string
(** Where the entry for [key] lives (whether or not it exists). *)

val entry_count : t -> int

val wipe : t -> unit
(** Removes every entry (the directory itself survives). *)

val stats : t -> stats
(** Operation counts recorded through this handle. *)
