(** A compiled executor: the program is translated once into nested
    closures with variables resolved to slots and array strides
    precomputed ({!Intcode}), then run. Several times faster than the
    tree-walking {!Exec} and bit-identical to it (verified by the test
    suite). It computes values: the semantic oracles (transformations,
    generated C) use it, and its observer is the reference that the
    address-only {!Walk} is tested against. Measuring a cache needs no
    values, so {!Measure} walks instead. *)

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
(** Drop-in equivalent of {!Exec.run}.
    @raise Invalid_argument ["index out of bounds"] for a subscript
    outside its array, and ["Fastexec: division by zero"] when an
    integer expression divides by zero. *)
