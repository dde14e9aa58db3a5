(** Structural validator for the Chrome-trace files {!Obs} exports.

    Used by the test suite and by the [test/trace_check.exe] CI checker.
    A trace is valid when:

    - the root is an object with a [traceEvents] array;
    - every event has a string [name], numeric [pid]/[tid], and a phase
      of ["X"] (complete span, with finite non-negative [ts] and
      [dur]), ["M"] (metadata) or ["C"] (counter, with a finite
      non-negative [ts]);
    - any [args.wall_start_ns] parses as an integer string;
    - within each [tid] track, ["X"] events — and, separately, ["C"]
      samples — appear with monotone non-decreasing [ts]; and
    - within each track the spans nest properly: sorted by start (ties
      longest-first), every span lies entirely inside the enclosing
      span still open at its start. *)

type stats = {
  total : int;  (** all events, including metadata *)
  spans : int;  (** complete ["X"] events *)
  domains : int;  (** distinct [tid]s carrying spans *)
  names : string list;  (** distinct span names, sorted *)
}

val validate_string : string -> (stats, string) result
(** Parse the trace JSON, then check it. *)

val validate_file : string -> (stats, string) result
