(** Multivariate polynomials with rational coefficients.

    Loop trip counts and cache-line counts ([LoopCost]) are symbolic in the
    program's size parameters (e.g. [n]); this module gives them an exact
    representation so the cost tables of the paper's Figures 2, 3 and 7
    (e.g. [2n^3 + n^2] versus [n^3/4 + n^2]) can be computed and printed
    symbolically, and compared by dominating term as Section 4.1 requires. *)

type t

val zero : t
val one : t
val int : int -> t
val var : string -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t

val mul_rat : Rat.t -> t -> t
(** Scale every coefficient. *)

val div_rat : t -> Rat.t -> t
(** @raise Division_by_zero on a zero divisor. *)

val equal : t -> t -> bool
(** Test oracle: equality of canonical polynomials, for comparing costs in
    tests. *)

val is_const : t -> Rat.t option
(** [Some c] when the polynomial has no variables. *)

val degree : t -> int
(** Total degree; [0] for constants (including zero). *)

val vars : t -> string list
(** Variables occurring with non-zero coefficient, sorted. *)

val subst : t -> string -> t -> t
(** [subst p x q] replaces every occurrence of variable [x] by [q]. *)

val eval : t -> (string -> float) -> float

val eval_rat : t -> (string -> Rat.t) -> Rat.t
(** Exact evaluation under a rational assignment — no float rounding,
    so integer-valued polynomials evaluate to exact integers. *)

val coeffs_in : t -> string -> t list
(** [coeffs_in p x] is [[c0; c1; ...; cd]] with [p = sum ci * x^i] and
    no [ci] mentioning [x]; [d] is the degree of [p] in [x] (a
    polynomial free of [x] yields the singleton [[p]]). *)

val compare_dominant : t -> t -> int
(** Order by dominating term: compare monomials from highest total degree
    down (graded lexicographic), first differing coefficient decides. This
    is the paper's "compare the dominating terms" rule for symbolic
    bounds; for polynomials in a single size parameter it coincides with
    comparison of values at large [n]. *)

val pp : Format.formatter -> t -> unit
(** Prints in the paper's style, highest-degree terms first, e.g.
    ["2n^3 + 1/4n^2 + 5"]. *)

val to_string : t -> string
