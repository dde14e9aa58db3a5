module Lut = Vartune_liberty.Lut

type criterion = Load_slope of float | Slew_slope of float | Sigma_ceiling of float

type defaults = { load_bound : float; slew_bound : float }

let paper_defaults = { load_bound = 1.0; slew_bound = 0.06 }

let slope_masks lut ~load_bound ~slew_bound =
  let load_mask = Binary_lut.of_threshold (Slope.load_slope lut) ~threshold:load_bound in
  let slew_mask = Binary_lut.of_threshold (Slope.slew_slope lut) ~threshold:slew_bound in
  Binary_lut.logical_and load_mask slew_mask

let extract_slope_threshold lut ~load_bound ~slew_bound =
  let mask = slope_masks lut ~load_bound ~slew_bound in
  match Rectangle.naive_largest mask with
  | None -> None
  | Some rect ->
    let row, col = Rectangle.far_corner rect in
    Some (Lut.get lut row col)

let of_criterion ?(defaults = paper_defaults) criterion ~cluster_lut =
  match criterion with
  | Sigma_ceiling ceiling -> Some ceiling
  | Load_slope bound ->
    extract_slope_threshold cluster_lut ~load_bound:bound ~slew_bound:defaults.slew_bound
  | Slew_slope bound ->
    extract_slope_threshold cluster_lut ~load_bound:defaults.load_bound ~slew_bound:bound
