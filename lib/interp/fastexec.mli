(** A compiled executor: the program is translated once into nested
    closures with variables resolved to slots and array strides
    precomputed, then run. Several times faster than the tree-walking
    {!Exec} and bit-identical to it (verified by the test suite), which
    makes larger simulated workloads practical. *)

type result = {
  arrays : (string * float array) list;
  ops : int;
  accesses : int;
  iterations : int;
}

val run :
  ?observer:Exec.observer ->
  ?init:(string -> int -> float) ->
  ?params:(string * int) list ->
  Program.t ->
  result
(** Drop-in equivalent of {!Exec.run}. *)

val run_traced_runs :
  ?init:(string -> int -> float) ->
  ?params:(string * int) list ->
  Trace.runbuf ->
  Program.t ->
  result
(** Like {!run}, but every array access is appended to the given
    run-compressed trace buffer instead of dispatched through an
    observer closure: statement labels are interned once at compile
    time, and innermost loops whose body has no inner control flow and
    whose array references all advance by a loop-invariant byte stride
    emit one strided-run group descriptor per loop instance (the body
    then executes with silent accesses); everything else falls back to
    per-access records in the same stream. The expanded stream is
    access-for-access identical to what an observer passed to {!run}
    sees. The buffer is flushed before returning. *)
