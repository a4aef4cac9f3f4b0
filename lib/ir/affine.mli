(** Affine normal form for subscript and bound expressions.

    An affine form is [c0 + sum_i c_i * x_i] with integer coefficients.
    Subscripts that normalise to this shape are amenable to exact
    dependence testing and to the cost model's [coeff(f, i_l)] queries;
    everything else is treated conservatively by clients. *)

type t

val of_expr : Expr.t -> t option
(** [None] when the expression is not affine (e.g. a product of two
    variables). *)

val to_expr : t -> Expr.t
val const : t -> int

val coeff : t -> string -> int
(** Coefficient of a variable; [0] when absent. *)

val vars : t -> string list
(** Variables with non-zero coefficient, sorted. *)

val equal : t -> t -> bool

val sub : t -> t -> t
(** Pointwise difference, used to form dependence equations. *)

val is_const : t -> int option
val of_const : int -> t
val subst : t -> string -> t -> t

val normalize : Expr.t -> Expr.t
(** Rewrite every maximal affine subexpression into canonical form
    (collecting constants and coefficients); non-affine operators keep
    their normalized children. E.g. [1 + 2*((N-1+1)/2) - 1] becomes
    [2*(N/2)]. *)
