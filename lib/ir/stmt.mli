(** Assignment statements.

    The right-hand side is a floating-point expression over array
    references, scalar variables, and intrinsic functions — enough to
    express the Fortran-77 kernels of the paper (matrix multiply, ADI
    integration, Cholesky factorisation, stencils, reductions). *)

type unop = Fneg | Sqrt | Abs | Exp | Sin | Cos

type binop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax

type rexpr =
  | Const of float
  | Scalar of string
  | Iexpr of Expr.t  (** An integer expression (e.g. a loop index) used as a value. *)
  | Load of Reference.t
  | Unop of unop * rexpr
  | Binop of binop * rexpr * rexpr

type lhs = Store of Reference.t | Scalar_set of string

type t = { label : string; lhs : lhs; rhs : rexpr }

val assign : ?label:string -> Reference.t -> rexpr -> t
(** Without [~label], unlabelled ([""]) until {!Program.make} names it. *)

val scalar_assign : ?label:string -> string -> rexpr -> t

val writes : t -> Reference.t list
(** Array references written (0 or 1). *)

val reads : t -> Reference.t list
(** Array references read, left-to-right. *)

val refs : t -> (Reference.t * [ `Read | `Write ]) list
(** All array references with their access kind, writes first. *)

val vars : t -> string list
(** Index variables mentioned in subscripts and integer operands. *)

val scalars_read : t -> string list
val scalars_written : t -> string list

val subst_index : t -> string -> Expr.t -> t
(** Substitute an index variable in every subscript of the statement. *)

val rename_index : t -> string -> string -> t
val pp : Format.formatter -> t -> unit
