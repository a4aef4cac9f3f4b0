(** Legality tests for loop permutation and reversal.

    A transformed dependence is legal when its permuted (and possibly
    negated) hybrid vector remains lexicographically non-negative. *)

val permutation_legal :
  deps:Locality_dep.Depend.t list -> target:string list -> bool
(** Every dependence stays lexicographically non-negative when its vector
    entries are reordered to [target] (outermost first). Dependences over
    loops outside [target] keep those entries in place relative order. *)

val permutation_violation :
  deps:Locality_dep.Depend.t list ->
  target:string list ->
  Locality_dep.Depend.t option
(** The first dependence that [target] would reverse, for decision
    logging — [None] exactly when {!permutation_legal}. *)

val reversal_legal :
  deps:Locality_dep.Depend.t list -> loop:string -> bool
(** Test oracle: a legality test for reversing one loop, independent of
    the one {!Permute} applies; the semantics tests reverse a loop only
    when it holds.

    Negating every dependence entry for [loop] leaves all vectors
    lexicographically non-negative (the dependences remain carried on
    outer loops). *)

val reorder_vec :
  Locality_dep.Depend.t -> target:string list -> Locality_dep.Direction.t
(** The dependence's vector with entries reordered to [target]; entries
    for loops absent from [target] are dropped (their loops no longer
    enclose both endpoints only in hypothetical uses — callers pass
    complete targets). *)
