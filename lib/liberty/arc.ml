type sense = Positive_unate | Negative_unate | Non_unate

type t = {
  related_pin : string;
  sense : sense;
  rise_delay : Lut.t;
  fall_delay : Lut.t;
  rise_transition : Lut.t;
  fall_transition : Lut.t;
  rise_delay_sigma : Lut.t option;
  fall_delay_sigma : Lut.t option;
  internal_power : Lut.t option;
}

let make ~related_pin ~sense ~rise_delay ~fall_delay ~rise_transition ~fall_transition
    ?rise_delay_sigma ?fall_delay_sigma ?internal_power () =
  let check t =
    if not (Lut.same_axes rise_delay t) then invalid_arg "Arc.make: table axis mismatch"
  in
  check fall_delay;
  check rise_transition;
  check fall_transition;
  Option.iter check rise_delay_sigma;
  Option.iter check fall_delay_sigma;
  Option.iter check internal_power;
  { related_pin; sense; rise_delay; fall_delay; rise_transition; fall_transition;
    rise_delay_sigma; fall_delay_sigma; internal_power }

let worst_delay t = Lut.max_equivalent [ t.rise_delay; t.fall_delay ]

let worst_sigma t =
  match (t.rise_delay_sigma, t.fall_delay_sigma) with
  | Some r, Some f -> Some (Lut.max_equivalent [ r; f ])
  | Some r, None -> Some r
  | None, Some f -> Some f
  | None, None -> None

(* [make] pinned every table to [rise_delay]'s axes, so the fused
   two-table lookups below run one segment search per query instead of
   two; each component is bit-identical to a plain Lut.lookup. *)
let delay t ~slew ~load = Lut.lookup_max2 t.rise_delay t.fall_delay ~slew ~load
let min_delay t ~slew ~load = Lut.lookup_min2 t.rise_delay t.fall_delay ~slew ~load
let transition t ~slew ~load = Lut.lookup_max2 t.rise_transition t.fall_transition ~slew ~load

(* One-shot evaluation for the STA inner loop: a single segment search
   serves all four surfaces, and the three derived quantities land in
   caller scratch — nothing allocates.  [min_delay] falls out of the
   same two interpolations as [delay], so computing it unconditionally
   is free. *)
let eval_into t ~slew ~load ~out =
  if Array.length out < 4 then invalid_arg "Arc.eval_into: out too short";
  Lut.lookup4_into t.rise_delay t.fall_delay t.rise_transition t.fall_transition ~slew ~load
    ~out;
  let rd = Array.unsafe_get out 0 and fd = Array.unsafe_get out 1 in
  let rt = Array.unsafe_get out 2 and ft = Array.unsafe_get out 3 in
  Array.unsafe_set out 0 (Float.max rd fd);
  Array.unsafe_set out 1 (Float.min rd fd);
  Array.unsafe_set out 2 (Float.max rt ft)

let sigma t ~slew ~load =
  let look = function None -> 0.0 | Some lut -> Lut.lookup lut ~slew ~load in
  Float.max (look t.rise_delay_sigma) (look t.fall_delay_sigma)

let has_sigma t = Option.is_some t.rise_delay_sigma || Option.is_some t.fall_delay_sigma

let energy t ~slew ~load =
  match t.internal_power with
  | None -> 0.0
  | Some lut -> Lut.lookup lut ~slew ~load

let sense_to_string = function
  | Positive_unate -> "positive_unate"
  | Negative_unate -> "negative_unate"
  | Non_unate -> "non_unate"

let sense_of_string = function
  | "positive_unate" -> Some Positive_unate
  | "negative_unate" -> Some Negative_unate
  | "non_unate" -> Some Non_unate
  | _ -> None
