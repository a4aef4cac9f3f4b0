(** Greedy failure-preserving program minimisation.

    Candidate edits — dropping statements and whole nests, inlining
    constant-bound loops, shrinking bounds and the PARAMETER value,
    simplifying subscripts and right-hand sides, dropping unreferenced
    arrays — each make the program strictly smaller under {!size}, so
    the greedy loop terminates. A candidate is kept only when it still
    validates and [fails] still holds; [fails] is expected to swallow
    its own exceptions. *)

val size : Program.t -> int
(** Test oracle: the measure every {!shrink} edit decreases.

    Structural size: every expression node, statement, loop header and
    declaration weighted so that each shrink edit strictly decreases
    it (in particular [Int] literals weigh less than [Var]s). *)

val shrink : fails:(Program.t -> bool) -> Program.t -> Program.t * int
(** [shrink ~fails p] is the minimal still-failing program reachable
    from [p] by greedy edits, with the number of accepted shrink
    steps. [p] itself is assumed failing. *)
