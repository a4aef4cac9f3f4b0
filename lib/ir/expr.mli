(** Integer expressions used in loop bounds and array subscripts.

    Variables stand either for loop index variables or symbolic size
    parameters (e.g. [N]); which is which is determined by context. *)

type t =
  | Int of int
  | Var of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Min of t * t  (** used by tiled loop bounds; non-affine *)
  | Max of t * t
  | Div of t * t  (** truncating integer division (unroll remainders) *)

val equal : t -> t -> bool
val vars : t -> string list
(** Variables occurring in the expression, sorted, without duplicates. *)

val subst : t -> string -> t -> t
(** [subst e x r] replaces variable [x] by [r]. *)

val eval : t -> (string -> int) -> int
(** @raise Not_found (from the environment) on unbound variables. *)

val simplify : t -> t
(** Constant folding and affine normalisation (via {!Affine} when the
    expression is affine; otherwise local folding only). *)

(** [to_poly] approximates [Min]/[Max] by their first operand — adequate
    for trip-count estimation of tiled loops, where the first operand is
    the common case. *)
val to_poly : t -> Poly.t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
