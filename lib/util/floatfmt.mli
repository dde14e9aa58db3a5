(** Round-trip-exact float rendering.

    The repository convention for writing floats as text: the shortest
    of [%.12g] / [%.17g] that parses back to the identical bit pattern.
    Used by the liberty printer, [Lut.pp] and debug dumps, so a number
    copied out of any artifact reproduces the float exactly.

    {b Algorithm.} The output is byte-identical to
    [let s = sprintf "%.12g" f in if float_of_string s = f then s else
    sprintf "%.17g" f], but for a finite normal [f] whose decimal
    exponent [E] (with [10^E <= |f| < 10^(E+1)]) gives [p = 16 - E] in
    [\[0, 22\]] the digits come from exact arithmetic, with no libc call:
    - [N = round-half-even(|f| * 10^p)], the 17 significant digits.
      [10^p] is an exact double for [p <= 22], and [hi = |f| *. 10^p]
      plus [lo = fma |f| 10^p (-. hi)] is the exact product.
    - The tail [t = N mod 10^5] decides the 12-digit case. A 12-digit
      decimal lies at least [min(t, 10^5 - t) - 0.5] units of the 17th
      digit from [|f|], while half an ulp of [|f|] is at most
      [10^17 * 2^-53 < 11.1] such units. So for [t] in [\[100, 99_900\]]
      the [%.12g] form cannot round-trip and [N] is written in [%.17g]
      layout.
    - Otherwise the 12-digit rounding [M12] of [N] is unambiguous, and
      it is the rounding of [|f|] itself. The round trip is checked
      exactly with one correctly rounded IEEE operation,
      [float M12 /. 10^(p-5) = |f|] (or [*. 10^(5-p)]), as in Clinger's
      fast path: both operands are exact, so this is what [strtod]
      returns. [M12] is written in [%.12g] layout if it holds, [N] in
      [%.17g] layout if not.
    - No rounding carries into the next decade in this domain: for
      [10^j], [j] in [\[-5, 17\]], the nearest double below is more than
      half a 17th-digit unit away, and the double nearest [10^j] is not
      below it. [test/test_util.ml] checks the neighbours of every such
      power.

    {b Fallback.} Every other value takes the [sprintf] rule above:
    [±0], subnormals, [±inf], [nan], and magnitudes out of range:
    [|f| < 10^-6], and [|f| >= 2^54] (about [1.8e16]), where the
    binary-exponent estimate of [E] would need [p < 0]. *)

val add_buffer : Buffer.t -> float -> unit
(** [add_buffer buf f] appends {!repr}[ f] to [buf] without building an
    intermediate string on the exact path. *)

val repr : float -> string
(** [repr f] is [%.12g f] if that round-trips bit-exactly, else
    [%.17g f] (which always does for finite and non-finite values). *)

val pp : Format.formatter -> float -> unit
(** [pp ppf f] prints {!repr}[ f]. *)
