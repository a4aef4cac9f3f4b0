(** An array reference [A(f1, ..., fk)] appearing in a statement. *)

type t = { array : string; subs : Expr.t list }

val make : string -> Expr.t list -> t
val rank : t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
