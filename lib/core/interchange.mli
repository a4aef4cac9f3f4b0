(** AST-level loop permutation, including triangular nests.

    Rectangular headers permute freely. When an inner bound mentions the
    outer index with coefficient [+-1] (triangular nests such as
    Cholesky's [DO I = K+1, N / DO J = K+1, I]), an adjacent interchange
    rewrites both headers; [max]/[min] bound candidates are resolved with
    the interval prover, and unresolvable bounds make the permutation
    fail — the paper's "loop bounds too complex" category. *)

val permute_spine : Loop.t -> string list -> Loop.t option
(** Rebuild a perfect nest with its spine loops in the given order via
    adjacent interchanges. [None] when the nest is imperfect, the order
    is not a permutation of the spine, or bounds are too complex. *)
