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

    The stream is word for word what the value interpreter's loop
    structure would give: the same groups, the same records, and labels
    interned in program order at compile time. Expanded, it is the
    access sequence an observer passed to {!Fastexec.run} sees, and the
    counters equal {!Fastexec.run}'s. Errors match too: a subscript
    outside its array raises [Invalid_argument "index out of bounds"],
    as [Array.get] does there, and a right-hand side integer expression
    that divides is still evaluated at every iteration, so
    ["Fastexec: division by zero"] fires where it would. *)

type result = {
  ops : int;  (** arithmetic operations *)
  accesses : int;  (** array element accesses *)
  iterations : int;  (** statement instances *)
}

val run : ?params:(string * int) list -> Trace.runbuf -> Program.t -> result
(** Append the program's trace to the buffer and flush it. *)
