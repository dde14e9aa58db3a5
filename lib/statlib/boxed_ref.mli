(** Frozen seed implementation of the statistical merge.

    The boxed per-entry Welford accumulator exactly as it shipped before
    the numeric core was flattened onto [Vartune_util.Kernel] float
    arrays.  It exists so tests can assert bit-identical agreement
    between the flat path and this executable specification, and so
    bench/main.exe can report the flat/boxed speedup on the same machine
    in the same run.  Not used by the pipeline. *)

val of_stream :
  ?pool:Vartune_util.Pool.t ->
  n:int ->
  (int -> Vartune_liberty.Library.t) ->
  Vartune_liberty.Library.t
(** Same contract as {!Statistical.of_stream}: fixed [merge_chunk = 4]
    block partition, ordered left-to-right Chan merge, bit-identical
    output at any pool size. *)

val of_libraries : Vartune_liberty.Library.t list -> Vartune_liberty.Library.t
(** Same contract as {!Statistical.of_libraries}. *)
