module Timing = Vartune_sta.Timing
module Restrict = Vartune_tuning.Restrict
module Cell = Vartune_liberty.Cell

type t = {
  clock_period : float;
  guard_band : float;
  input_slew : float;
  clock_slew : float;
  output_load : float;
  max_fanout : int;
  max_transition : float;
  restrictions : Restrict.table option;
  max_iterations : int;
  area_recovery : bool;
}

let make ~clock_period ?(guard_band = 0.3) ?(input_slew = 0.05) ?(clock_slew = 0.04)
    ?(output_load = 0.004) ?(max_fanout = 16) ?(max_transition = 1.0) ?restrictions
    ?(max_iterations = 48) ?(area_recovery = true) () =
  { clock_period; guard_band; input_slew; clock_slew; output_load; max_fanout;
    max_transition; restrictions; max_iterations; area_recovery }

let timing_config t =
  {
    Timing.clock_period = t.clock_period;
    guard_band = t.guard_band;
    input_slew = t.input_slew;
    clock_slew = t.clock_slew;
    output_load = t.output_load;
    wire_cap_base = 0.0002;
    wire_cap_per_sink = 0.00015;
    wire_caps = None;
  }

let summary t (cell : Cell.t) =
  match t.restrictions with
  | None -> Restrict.unrestricted
  | Some table -> Restrict.summary table ~cell:cell.name

let allows t ~cell ~slew ~load = Restrict.summary_allows (summary t cell) ~slew ~load
let usable t cell = (summary t cell).Restrict.usable
let window_load_max t cell = (summary t cell).Restrict.load_max
let window_slew_max t cell = (summary t cell).Restrict.slew_max
