(** A reference interpreter for IR programs.

    Executes loops over real float arrays laid out column-major, invoking
    an observer on every array-element access — the address trace that
    feeds the cache simulator — and counting arithmetic operations for
    the timing model. Also the oracle for semantic-preservation tests:
    transformed programs must compute the same arrays. *)

type observer = {
  on_access : label:string -> addr:int -> write:bool -> unit;
  on_stmt : label:string -> unit;
}

type result = {
  arrays : (string * float array) list;  (** final contents, decl order *)
  ops : int;  (** arithmetic operations executed *)
  accesses : int;  (** array element accesses *)
  iterations : int;  (** statement instances executed *)
}

val default_init : string -> int -> float
(** Test oracle: the initial array contents of {!run}, for reference
    results computed outside the interpreter.

    Deterministic pseudo-random initial value for element [i] of a named
    array, in [1, 2) so that divisions and square roots stay tame. *)

val run :
  ?observer:observer ->
  ?init:(string -> int -> float) ->
  ?params:(string * int) list ->
  Program.t ->
  result
(** Execute the program. [params] overrides the program's default
    parameter values (e.g. to shrink a workload).
    @raise Invalid_argument on invalid programs (unknown arrays,
    out-of-bounds subscripts). *)

val equivalent :
  ?tol:float -> ?params:(string * int) list -> Program.t -> Program.t -> bool
(** Run both programs from identical initial arrays and compare final
    contents within relative tolerance [tol] (default 1e-9; loop reversal
    reorders reductions, so callers may loosen it). *)
