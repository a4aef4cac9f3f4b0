(** The address-only measurement walker.

    No value in the IR feeds an address: subscripts and loop bounds are
    integer expressions over indices and parameters, and there are no
    conditionals. So a program's address trace and its operation counts
    follow from the integer side alone ({!Intcode}). The walker compiles
    only bounds, subscripts and strides, allocates no data arrays, and
    evaluates no right-hand side.

    - An innermost loop whose body is straight-line statements and whose
      references all advance by a loop-invariant byte stride emits one
      strided-run group per instance ({!Trace.run_group}) and never
      enters its body: the offsets of every reference are checked at the
      first and last iteration (an offset is affine in the index there,
      so these bound all the others), and the counters grow by the trip
      times the body's static counts.
    - Every other loop emits one record per access, each offset checked.

    The reference is {!Exec}, which shares no code with the walker. On
    every program [Exec.run] completes, the expanded stream is the
    access sequence an observer passed to [Exec.run] sees, label for
    label, and the counters equal [Exec.run]'s. Labels are interned in
    program order at compile time, for every statement that touches an
    array. The run-time errors [Exec.run] raises fail the walk too,
    with the walker's own messages: a subscript that leaves its array
    raises [Invalid_argument "index out of bounds"], and a right-hand
    side integer expression that divides is still evaluated at every
    iteration, so ["Fastexec: division by zero"] fires where [Exec]
    fails (the prefix is frozen wire text, see {!Intcode}). One
    exception: offsets are checked against the whole array, not each
    subscript against its extent, so a subscript that leaves its
    dimension but not its array passes here and fails [Exec]. *)

type result = {
  ops : int;  (** arithmetic operations *)
  accesses : int;  (** array element accesses *)
  iterations : int;  (** statement instances *)
}

val run : ?params:(string * int) list -> Trace.runbuf -> Program.t -> result
(** Append the program's trace to the buffer and flush it. *)
