(** Dense two-dimensional float grids.

    The project indexes grids as [(row, col)] where, for look-up tables,
    rows follow the input-slew axis and columns the output-load axis. *)

type t
(** A rectangular grid of floats. *)

val create : rows:int -> cols:int -> float -> t
(** [create ~rows ~cols v] is a grid filled with [v].  Dimensions must be
    positive. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t
(** [init ~rows ~cols f] fills cell [(i, j)] with [f i j]. *)

val of_arrays : float array array -> t
(** Copies a non-ragged, non-empty array of rows.  Raises
    [Invalid_argument] otherwise. *)

val of_flat : rows:int -> cols:int -> float array -> t
(** [of_flat ~rows ~cols data] wraps the row-major [data] without
    copying — the grid takes ownership, so the caller must not mutate
    [data] afterwards.  Raises [Invalid_argument] unless
    [Array.length data = rows * cols] with positive dimensions.  This
    is the zero-copy constructor the flat kernels and the codec build
    surfaces through. *)

val to_arrays : t -> float array array
(** Fresh row-major copy. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
(** [get g i j]; bounds-checked. *)

val set : t -> int -> int -> float -> unit

val unsafe_get : t -> int -> int -> float
(** [unsafe_get g i j] is {!get} without the bounds check, for inner
    loops whose indices were validated once up front (the bilinear LUT
    interpolation is the motivating caller).  The caller must guarantee
    [0 <= i < rows g] and [0 <= j < cols g]; anything else is undefined
    behaviour, not an exception. *)

val unsafe_set : t -> int -> int -> float -> unit
(** Unchecked counterpart of {!set}; same caller obligations as
    {!unsafe_get}. *)

val unsafe_data : t -> float array
(** The live row-major backing array — not a copy.  Entry [(i, j)]
    lives at index [i * cols + j].  Mutating it mutates the grid; the
    flat kernels and the store codec use this to stream surfaces
    without per-entry accessor calls. *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
(** Pointwise combination; dimensions must agree. *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
val iteri : (int -> int -> float -> unit) -> t -> unit

val max_value : t -> float
val min_value : t -> float

val equal : ?eps:float -> t -> t -> bool
(** Pointwise equality within [eps] (default [1e-12]). *)

val pp : Format.formatter -> t -> unit
(** Fixed-width tabular rendering, one row per line. *)
