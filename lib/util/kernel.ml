(* Flat float kernels for the numeric core.

   Every hot loop of the pipeline bottoms out in one of two shapes: the
   entry-wise Welford accumulation / Chan pairwise merge over LUT
   surfaces (paper Section IV), and the bilinear table interpolation
   (paper eqs. 2-4).  This module implements both over plain unboxed
   [float array]s — no per-entry records, no Grid indirection, axis
   loads hoisted — so callers lay their surfaces out flat (SoA) and the
   inner loops touch contiguous unboxed memory only.

   Bit-exactness contract: the float-op sequence of each kernel is
   fixed.  Golden digests of the statistical library in test_kernel.ml
   pin its bits at any pool size, a two-pass mean/stddev oracle in
   test_statlib.ml checks its formula, and the bilinear kernels are
   checked bit for bit against a naive evaluator.  Reordering the
   arithmetic here changes the digests and every stored artifact.

   Counters are batched — one [add] per kernel call, never per entry —
   so benchmark attribution costs one atomic read on the disabled path. *)

module Obs = Vartune_obs.Obs

let c_welford_entries = Obs.Counter.make "kernel.welford_update_entries"
let c_merge_entries = Obs.Counter.make "kernel.welford_merge_entries"
let c_lookups = Obs.Counter.make "kernel.bilinear_lookups"

module Welford = struct
  let check3 name a b c =
    let len = Array.length a in
    if Array.length b <> len || Array.length c <> len then
      invalid_arg (Printf.sprintf "Kernel.Welford.%s: length mismatch" name);
    len

  (* Absorb [x] entry-wise as the [n]-th observation (so the caller has
     already bumped its count to [n]): delta = x - mean, mean += delta/n,
     m2 += delta * (x - mean'), over the whole surface. *)
  let update ~n ~mean ~m2 x =
    let len = check3 "update" mean m2 x in
    let fn = float_of_int n in
    for k = 0 to len - 1 do
      let xv = Array.unsafe_get x k in
      let m = Array.unsafe_get mean k in
      let delta = xv -. m in
      let m' = m +. (delta /. fn) in
      Array.unsafe_set mean k m';
      Array.unsafe_set m2 k (Array.unsafe_get m2 k +. (delta *. (xv -. m')))
    done;
    Obs.Counter.add c_welford_entries len

  (* Chan et al. pairwise combination: the left partial (count [na])
     absorbs the right (count [nb]) in place.  Both counts must be
     positive — the caller owns the [na = 0] blit case, so the
     zero-count copy stays a copy and never goes through arithmetic
     that could perturb bits. *)
  let merge ~na ~nb ~mean_a ~m2_a ~mean_b ~m2_b =
    if na <= 0 || nb <= 0 then invalid_arg "Kernel.Welford.merge: counts must be positive";
    let len = check3 "merge" mean_a m2_a mean_b in
    if Array.length m2_b <> len then invalid_arg "Kernel.Welford.merge: length mismatch";
    let na = float_of_int na and nb = float_of_int nb in
    let n = na +. nb in
    for k = 0 to len - 1 do
      let ma = Array.unsafe_get mean_a k and mb = Array.unsafe_get mean_b k in
      let delta = mb -. ma in
      Array.unsafe_set mean_a k (ma +. (delta *. (nb /. n)));
      Array.unsafe_set m2_a k
        (Array.unsafe_get m2_a k +. Array.unsafe_get m2_b k
        +. (delta *. delta *. (na *. nb /. n)))
    done;
    Obs.Counter.add c_merge_entries len

  (* Standard deviation of each entry given its m2 and the shared
     count: m2 / (n-1), clamped at zero before the square root because
     streaming cancellation can leave a tiny negative on near-constant
     entries (think -1e-18); genuine NaN still propagates.  Fewer than
     two observations have no spread — all zeros. *)
  let sigma_into ~n ~m2 ~dst =
    let len = Array.length m2 in
    if Array.length dst <> len then invalid_arg "Kernel.Welford.sigma_into: length mismatch";
    if n < 2 then Array.fill dst 0 len 0.0
    else begin
      let denom = float_of_int (n - 1) in
      for k = 0 to len - 1 do
        let v = Array.unsafe_get m2 k /. denom in
        Array.unsafe_set dst k (sqrt (if v < 0.0 then 0.0 else v))
      done
    end
end

module Bilinear = struct
  (* Index of the lower end of the axis segment bracketing [x];
     out-of-range queries use the outermost segment, which the weight
     formula turns into linear extrapolation.  Same answers as the
     recursive binary search it replaced, without the call frames. *)
  let segment axis x =
    let n = Array.length axis in
    if n = 1 then 0
    else if x <= Array.unsafe_get axis 0 then 0
    else if x >= Array.unsafe_get axis (n - 1) then n - 2
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if Array.unsafe_get axis mid <= x then lo := mid else hi := mid
      done;
      !lo
    end

  (* Paper eqs. (2)-(4): interpolate along the load (ys) axis first
     (P1, P2), then along the slew (xs) axis.  The degenerate 1x1, 1xN
     and Nx1 branches are explicit, not the general formula with a zero
     weight: (1-0)*p1 + 0*p2 could flip the sign of a -0.0 entry, and
     the bit-exactness contract forbids that.

     [data] is the row-major backing of an [xs]-by-[ys] surface; the
     caller guarantees [Array.length data = length xs * length ys]
     (the Lut constructor already has). *)
  let lookup ~xs ~ys data ~x ~y =
    Obs.Counter.incr c_lookups;
    let n_x = Array.length xs and n_y = Array.length ys in
    let i = segment xs x and j = segment ys y in
    if n_x = 1 && n_y = 1 then Array.unsafe_get data 0
    else if n_x = 1 then begin
      let y0 = Array.unsafe_get ys j and y1 = Array.unsafe_get ys (j + 1) in
      let wy = (y -. y0) /. (y1 -. y0) in
      ((1.0 -. wy) *. Array.unsafe_get data j) +. (wy *. Array.unsafe_get data (j + 1))
    end
    else if n_y = 1 then begin
      let x0 = Array.unsafe_get xs i and x1 = Array.unsafe_get xs (i + 1) in
      let wx = (x -. x0) /. (x1 -. x0) in
      ((1.0 -. wx) *. Array.unsafe_get data i) +. (wx *. Array.unsafe_get data (i + 1))
    end
    else begin
      let y0 = Array.unsafe_get ys j and y1 = Array.unsafe_get ys (j + 1) in
      let x0 = Array.unsafe_get xs i and x1 = Array.unsafe_get xs (i + 1) in
      let wy = (y -. y0) /. (y1 -. y0) in
      let row = (i * n_y) + j in
      let p1 =
        ((1.0 -. wy) *. Array.unsafe_get data row) +. (wy *. Array.unsafe_get data (row + 1))
      in
      let row' = row + n_y in
      let p2 =
        ((1.0 -. wy) *. Array.unsafe_get data row')
        +. (wy *. Array.unsafe_get data (row' + 1))
      in
      let wx = (x -. x0) /. (x1 -. x0) in
      ((1.0 -. wx) *. p1) +. (wx *. p2)
    end

  (* Fused rise/fall pair: one segment search and one weight
     computation serve two surfaces that share axes (the Arc
     constructor enforces the sharing).  Each per-surface interpolation
     is the exact op sequence of [lookup], so combining the two results
     with max/min matches two independent lookups bit-for-bit. *)
  let lookup2 ~xs ~ys a b ~x ~y =
    Obs.Counter.add c_lookups 2;
    let n_x = Array.length xs and n_y = Array.length ys in
    let i = segment xs x and j = segment ys y in
    if n_x = 1 && n_y = 1 then (Array.unsafe_get a 0, Array.unsafe_get b 0)
    else if n_x = 1 then begin
      let y0 = Array.unsafe_get ys j and y1 = Array.unsafe_get ys (j + 1) in
      let wy = (y -. y0) /. (y1 -. y0) in
      let one = 1.0 -. wy in
      ( (one *. Array.unsafe_get a j) +. (wy *. Array.unsafe_get a (j + 1)),
        (one *. Array.unsafe_get b j) +. (wy *. Array.unsafe_get b (j + 1)) )
    end
    else if n_y = 1 then begin
      let x0 = Array.unsafe_get xs i and x1 = Array.unsafe_get xs (i + 1) in
      let wx = (x -. x0) /. (x1 -. x0) in
      let one = 1.0 -. wx in
      ( (one *. Array.unsafe_get a i) +. (wx *. Array.unsafe_get a (i + 1)),
        (one *. Array.unsafe_get b i) +. (wx *. Array.unsafe_get b (i + 1)) )
    end
    else begin
      let y0 = Array.unsafe_get ys j and y1 = Array.unsafe_get ys (j + 1) in
      let x0 = Array.unsafe_get xs i and x1 = Array.unsafe_get xs (i + 1) in
      let wy = (y -. y0) /. (y1 -. y0) in
      let wx = (x -. x0) /. (x1 -. x0) in
      let one_y = 1.0 -. wy and one_x = 1.0 -. wx in
      let row = (i * n_y) + j in
      let row' = row + n_y in
      let pa1 = (one_y *. Array.unsafe_get a row) +. (wy *. Array.unsafe_get a (row + 1)) in
      let pa2 = (one_y *. Array.unsafe_get a row') +. (wy *. Array.unsafe_get a (row' + 1)) in
      let pb1 = (one_y *. Array.unsafe_get b row) +. (wy *. Array.unsafe_get b (row + 1)) in
      let pb2 = (one_y *. Array.unsafe_get b row') +. (wy *. Array.unsafe_get b (row' + 1)) in
      ((one_x *. pa1) +. (wx *. pa2), (one_x *. pb1) +. (wx *. pb2))
    end

  let lookup_max2 ~xs ~ys a b ~x ~y =
    let va, vb = lookup2 ~xs ~ys a b ~x ~y in
    Float.max va vb

  let lookup_min2 ~xs ~ys a b ~x ~y =
    let va, vb = lookup2 ~xs ~ys a b ~x ~y in
    Float.min va vb

  (* Four surfaces over shared axes — the rise/fall x delay/transition
     shape of a timing arc — interpolated with a single segment search
     per axis; result k lands in [out.(k)].  [out] is caller-provided
     scratch so a full STA forward pass allocates nothing per node.
     Entry arithmetic is again exactly [lookup]'s, surface by
     surface. *)
  let lookup4_into ~xs ~ys a b c d ~x ~y ~out =
    Obs.Counter.add c_lookups 4;
    if Array.length out < 4 then invalid_arg "Kernel.Bilinear.lookup4_into: out too short";
    let n_x = Array.length xs and n_y = Array.length ys in
    let i = segment xs x and j = segment ys y in
    if n_x = 1 && n_y = 1 then begin
      Array.unsafe_set out 0 (Array.unsafe_get a 0);
      Array.unsafe_set out 1 (Array.unsafe_get b 0);
      Array.unsafe_set out 2 (Array.unsafe_get c 0);
      Array.unsafe_set out 3 (Array.unsafe_get d 0)
    end
    else if n_x = 1 then begin
      let y0 = Array.unsafe_get ys j and y1 = Array.unsafe_get ys (j + 1) in
      let wy = (y -. y0) /. (y1 -. y0) in
      let one = 1.0 -. wy in
      Array.unsafe_set out 0
        ((one *. Array.unsafe_get a j) +. (wy *. Array.unsafe_get a (j + 1)));
      Array.unsafe_set out 1
        ((one *. Array.unsafe_get b j) +. (wy *. Array.unsafe_get b (j + 1)));
      Array.unsafe_set out 2
        ((one *. Array.unsafe_get c j) +. (wy *. Array.unsafe_get c (j + 1)));
      Array.unsafe_set out 3
        ((one *. Array.unsafe_get d j) +. (wy *. Array.unsafe_get d (j + 1)))
    end
    else if n_y = 1 then begin
      let x0 = Array.unsafe_get xs i and x1 = Array.unsafe_get xs (i + 1) in
      let wx = (x -. x0) /. (x1 -. x0) in
      let one = 1.0 -. wx in
      Array.unsafe_set out 0
        ((one *. Array.unsafe_get a i) +. (wx *. Array.unsafe_get a (i + 1)));
      Array.unsafe_set out 1
        ((one *. Array.unsafe_get b i) +. (wx *. Array.unsafe_get b (i + 1)));
      Array.unsafe_set out 2
        ((one *. Array.unsafe_get c i) +. (wx *. Array.unsafe_get c (i + 1)));
      Array.unsafe_set out 3
        ((one *. Array.unsafe_get d i) +. (wx *. Array.unsafe_get d (i + 1)))
    end
    else begin
      let y0 = Array.unsafe_get ys j and y1 = Array.unsafe_get ys (j + 1) in
      let x0 = Array.unsafe_get xs i and x1 = Array.unsafe_get xs (i + 1) in
      let wy = (y -. y0) /. (y1 -. y0) in
      let wx = (x -. x0) /. (x1 -. x0) in
      let one_y = 1.0 -. wy and one_x = 1.0 -. wx in
      let row = (i * n_y) + j in
      let row' = row + n_y in
      let pa1 = (one_y *. Array.unsafe_get a row) +. (wy *. Array.unsafe_get a (row + 1)) in
      let pa2 = (one_y *. Array.unsafe_get a row') +. (wy *. Array.unsafe_get a (row' + 1)) in
      Array.unsafe_set out 0 ((one_x *. pa1) +. (wx *. pa2));
      let pb1 = (one_y *. Array.unsafe_get b row) +. (wy *. Array.unsafe_get b (row + 1)) in
      let pb2 = (one_y *. Array.unsafe_get b row') +. (wy *. Array.unsafe_get b (row' + 1)) in
      Array.unsafe_set out 1 ((one_x *. pb1) +. (wx *. pb2));
      let pc1 = (one_y *. Array.unsafe_get c row) +. (wy *. Array.unsafe_get c (row + 1)) in
      let pc2 = (one_y *. Array.unsafe_get c row') +. (wy *. Array.unsafe_get c (row' + 1)) in
      Array.unsafe_set out 2 ((one_x *. pc1) +. (wx *. pc2));
      let pd1 = (one_y *. Array.unsafe_get d row) +. (wy *. Array.unsafe_get d (row + 1)) in
      let pd2 = (one_y *. Array.unsafe_get d row') +. (wy *. Array.unsafe_get d (row' + 1)) in
      Array.unsafe_set out 3 ((one_x *. pd1) +. (wx *. pd2))
    end
end
