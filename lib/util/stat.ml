let mean a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.mean: empty array";
  Array.fold_left ( +. ) 0.0 a /. float_of_int n

let sum_sq_dev a =
  let m = mean a in
  Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0 else sum_sq_dev a /. float_of_int (n - 1)

let population_variance a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.population_variance: empty array";
  sum_sq_dev a /. float_of_int n

let stddev a = sqrt (variance a)

let coefficient_of_variation a =
  let m = mean a in
  if m = 0.0 then invalid_arg "Stat.coefficient_of_variation: zero mean";
  stddev a /. m

let min_max a =
  if Array.length a = 0 then invalid_arg "Stat.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> ((if x < lo then x else lo), if x > hi then x else hi))
    (a.(0), a.(0)) a

let percentile a p =
  if Array.length a = 0 then invalid_arg "Stat.percentile: empty array";
  if p < 0.0 || p > 1.0 then invalid_arg "Stat.percentile: p out of range";
  let sorted = Array.copy a in
  (* Float.compare, not polymorphic compare: same order on reals, but
     monomorphic (no boxed generic-compare call per element) and a
     total order on NaN instead of the polymorphic NaN muddle. *)
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let histogram ~bins a =
  if bins <= 0 then invalid_arg "Stat.histogram: bins must be positive";
  let lo, hi = min_max a in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
  let counts = Array.make bins 0 in
  let clamp i = if i >= bins then bins - 1 else if i < 0 then 0 else i in
  Array.iter
    (fun x ->
      let i = clamp (int_of_float ((x -. lo) /. width)) in
      counts.(i) <- counts.(i) + 1)
    a;
  Array.mapi
    (fun i c ->
      let l = lo +. (float_of_int i *. width) in
      (l, l +. width, c))
    counts

let covariance a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Stat.covariance: length mismatch";
  if n < 2 then 0.0
  else begin
    let ma = mean a and mb = mean b in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. ((a.(i) -. ma) *. (b.(i) -. mb))
    done;
    !acc /. float_of_int (n - 1)
  end

let correlation a b =
  let sa = stddev a and sb = stddev b in
  if sa = 0.0 || sb = 0.0 then 0.0 else covariance a b /. (sa *. sb)
