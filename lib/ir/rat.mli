(** Arbitrary-precision-free rational numbers over [int].

    Coefficients in loop-cost polynomials are small rationals such as
    [1/4] (a cache-line-size divisor), so machine integers suffice. All
    values are kept in normal form: positive denominator, gcd-reduced. *)

type t = private { num : int; den : int }

val zero : t
val one : t

val make : int -> int -> t
(** [make num den] is the normalised rational [num/den].
    @raise Invalid_argument if [den = 0]. *)

val of_int : int -> t

val add : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val neg : t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool
val to_float : t -> float

val to_int : t -> int
(** Truncating conversion; exact when [is_integer]. *)

val pp : Format.formatter -> t -> unit
