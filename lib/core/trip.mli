(** Closed-form symbolic trip counts.

    A triangular loop such as [DO J = K+1, I] has a trip count [I - K]
    that mentions outer loop indices. Following Section 4.1 ("if the
    bounds are symbolic, we compare the dominating terms"), indices are
    eliminated by substituting the bound that maximises the trip, so the
    dominating term survives: [I - K] becomes [n - 1] when [I <= N] and
    [K >= 1]. *)

type env = string -> Loop.header option
(** Lookup of the header binding an index variable, for indices in scope. *)

val env_of_nest : Loop.t -> env

val closed_trip : env -> Loop.header -> Poly.t
(** Maximised symbolic trip count [(ub - lb + step) / step] with index
    variables eliminated. *)
