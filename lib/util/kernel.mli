(** Flat float kernels for the numeric core.

    The two inner-loop shapes of the pipeline — entry-wise Welford
    accumulation / Chan pairwise merge over LUT surfaces (paper Section
    IV) and bilinear table interpolation (paper eqs. 2-4) — over plain
    unboxed [float array]s.  Callers lay surfaces out flat (SoA,
    row-major) and the kernels touch contiguous unboxed memory with
    hoisted axis loads and no per-entry records.

    Bit-exactness contract: the float-op sequence of each kernel is
    fixed, so callers are bit-identical at any pool size.  Golden
    digests of the statistical library in [test_kernel.ml] pin the
    Welford bits, a two-pass oracle in [test_statlib.ml] checks the
    formula, and a naive evaluator checks the bilinear kernels bit for
    bit; do not reorder arithmetic.

    Obs counters ([kernel.welford_update_entries],
    [kernel.welford_merge_entries], [kernel.bilinear_lookups]) are
    batched per kernel call for benchmark attribution. *)

module Welford : sig
  val update : n:int -> mean:float array -> m2:float array -> float array -> unit
  (** [update ~n ~mean ~m2 x] absorbs [x] entry-wise as the [n]-th
      observation ([n >= 1], i.e. the caller's already-bumped count)
      into the running [mean]/[m2] surfaces, in place.  All three
      arrays must share a length. *)

  val merge :
    na:int ->
    nb:int ->
    mean_a:float array ->
    m2_a:float array ->
    mean_b:float array ->
    m2_b:float array ->
    unit
  (** Chan et al. pairwise combination of two Welford partials: the
      left partial (count [na]) absorbs the right (count [nb]) in
      place.  Both counts must be positive — the [na = 0] case is a
      plain blit the caller owns, so a zero-count copy never passes
      through arithmetic. *)

  val sigma_into : n:int -> m2:float array -> dst:float array -> unit
  (** [sigma_into ~n ~m2 ~dst] writes each entry's standard deviation
      [sqrt (max 0 (m2 / (n-1)))] into [dst]; all zeros when [n < 2].
      Negative rounding residue is clamped, genuine NaN propagates. *)
end

module Bilinear : sig
  val segment : float array -> float -> int
  (** Index of the lower end of the axis segment bracketing the query;
      out-of-range queries map to the outermost segment, which the
      weight formula turns into linear extrapolation. *)

  val lookup : xs:float array -> ys:float array -> float array -> x:float -> y:float -> float
  (** [lookup ~xs ~ys data ~x ~y] bilinearly interpolates the row-major
      [xs]-by-[ys] surface [data] at [(x, y)], interpolating along [ys]
      first.  Degenerate 1x1 / 1xN / Nx1 axes take explicit branches
      (a zero-weight pass through the general formula could flip the
      sign bit of a [-0.0] entry).  The caller guarantees
      [Array.length data = Array.length xs * Array.length ys]. *)

  val lookup2 :
    xs:float array ->
    ys:float array ->
    float array ->
    float array ->
    x:float ->
    y:float ->
    float * float
  (** Two surfaces sharing axes, one segment search; each component is
      bit-identical to the corresponding single {!lookup}. *)

  val lookup_max2 :
    xs:float array ->
    ys:float array ->
    float array ->
    float array ->
    x:float ->
    y:float ->
    float
  (** [Float.max] of {!lookup2} — the worst-edge shape of arc delay and
      transition queries. *)

  val lookup_min2 :
    xs:float array ->
    ys:float array ->
    float array ->
    float array ->
    x:float ->
    y:float ->
    float
  (** [Float.min] of {!lookup2} — the best-edge shape of min-delay
      (hold) queries. *)

  val lookup4_into :
    xs:float array ->
    ys:float array ->
    float array ->
    float array ->
    float array ->
    float array ->
    x:float ->
    y:float ->
    out:float array ->
    unit
  (** Four surfaces over shared axes — rise/fall x delay/transition of
      a timing arc — with a single segment search; result [k] lands in
      [out.(k)].  [out] (length >= 4) is caller scratch so the STA
      forward pass allocates nothing per node. *)
end
