(* Shortest decimal representation that round-trips the float exactly:
   %.12g when that already reparses to the same bits, %.17g otherwise.
   One convention shared by the liberty printer and every debug dump so
   a value read back from any rendering is the value that was printed.

   The common case is computed here with exact arithmetic (see the .mli
   for the argument); everything else goes through [sprintf_repr]. *)
let sprintf_repr f =
  let short = Printf.sprintf "%.12g" f in
  if float_of_string short = f then short else Printf.sprintf "%.17g" f

(* 10^k as exact doubles: every power up to 10^22 is representable. *)
let pow10 = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* Round-half-even of [a * 10^p] when that is at least 10^16, or -1
   when it lies below.  [hi + lo] is the exact product; [hi] is an
   even integer (it is at least 10^16 > 2^53), so the parity of the
   rounded value is the parity of [floor lo]. *)
let scaled a p =
  let m = pow10.(p) in
  let hi = a *. m in
  let lo = Float.fma a m (-.hi) in
  if hi < 1e16 || (hi = 1e16 && lo < 0.0) then -1
  else
    let fl = Float.floor lo in
    let d = lo -. fl and k = Float.to_int fl in
    Float.to_int hi + k + if d > 0.5 || (d = 0.5 && k land 1 = 1) then 1 else 0

(* [digits] holds a [prec]-digit mantissa (leading digit non-zero) of a
   value with decimal exponent [x]; writes it in [%.<prec>g] layout:
   trailing zeros dropped, fixed notation iff -4 <= x < prec, exponent
   with a sign and at least two digits. *)
let add_g buf ~neg ~prec digits x =
  let s = Bytes.create prec in
  let d = ref digits in
  for i = prec - 1 downto 0 do
    Bytes.unsafe_set s i (Char.unsafe_chr (48 + (!d mod 10)));
    d := !d / 10
  done;
  let k = ref prec in
  while !k > 1 && Bytes.get s (!k - 1) = '0' do decr k done;
  let k = !k in
  if neg then Buffer.add_char buf '-';
  if x < -4 || x >= prec then begin
    Buffer.add_char buf (Bytes.get s 0);
    if k > 1 then begin
      Buffer.add_char buf '.';
      Buffer.add_subbytes buf s 1 (k - 1)
    end;
    Buffer.add_string buf (if x < 0 then "e-" else "e+");
    let e = abs x in
    if e < 10 then Buffer.add_char buf '0';
    Buffer.add_string buf (string_of_int e)
  end
  else if x >= 0 then begin
    if k <= x + 1 then begin
      Buffer.add_subbytes buf s 0 k;
      for _ = k to x do Buffer.add_char buf '0' done
    end
    else begin
      Buffer.add_subbytes buf s 0 (x + 1);
      Buffer.add_char buf '.';
      Buffer.add_subbytes buf s (x + 1) (k - x - 1)
    end
  end
  else begin
    Buffer.add_string buf "0.";
    for _ = 2 to -x do Buffer.add_char buf '0' done;
    Buffer.add_subbytes buf s 0 k
  end

let add_buffer buf f =
  let a = Float.abs f in
  let bits = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 52) in
  (* a in [2^e2, 2^(e2+1)): floor(e2 * log10 2) is E or E - 1, where E
     is the decimal exponent of a *)
  let e2 = bits - 1023 in
  let e0 = (e2 * 78913) asr 18 in
  let p = 16 - e0 in
  if bits = 0 || bits = 0x7ff || p < 1 || p > 23 then Buffer.add_string buf (sprintf_repr f)
  else
    (* try E = e0 + 1 first: its scaling 10^(p-1) is always in the table *)
    let p, n =
      let n = scaled a (p - 1) in
      if n >= 0 || p > 22 then (p - 1, n) else (p, scaled a p)
    in
    if n < 0 then Buffer.add_string buf (sprintf_repr f)
    else
      (* n < 10^17, and n rounds to fewer than 10^12 whenever that
         round-trips: no 17- or 12-digit carry exists in this domain
         (see the .mli), so the decimal exponent of both renderings is e *)
      let neg = f < 0.0 and e = 16 - p in
      let t = n mod 100_000 in
      (* a %.12g rendering lies >= 99.5 units of the 17th digit from a,
         half an ulp of a is <= 11.1 such units: it cannot round-trip *)
      if t >= 100 && t <= 99_900 then add_g buf ~neg ~prec:17 n e
      else
        let m12 = (n / 100_000) + if t > 99_900 then 1 else 0 in
        let q = p - 5 in
        (* one correctly rounded operation on exact operands = strtod *)
        let back = if q >= 0 then float m12 /. pow10.(q) else float m12 *. pow10.(-q) in
        if back = a then add_g buf ~neg ~prec:12 m12 e else add_g buf ~neg ~prec:17 n e

let repr f =
  let buf = Buffer.create 24 in
  add_buffer buf f;
  Buffer.contents buf

let pp ppf f = Format.pp_print_string ppf (repr f)
