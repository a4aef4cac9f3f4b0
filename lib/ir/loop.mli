(** Loops, loop bodies, and loop nests.

    A block is an ordered sequence of loops and statements; a loop nest is
    the chain of headers on a path from an outermost loop down to a
    statement. Nests need not be perfect: a loop body may mix statements
    and inner loops (Section 3.4 of the paper evaluates imperfect nests). *)

type header = {
  index : string;
  lb : Expr.t;
  ub : Expr.t;
  step : int;  (** Non-zero; negative for reversed loops. *)
}

type t = { header : header; body : block }
and node = Loop of t | Stmt of Stmt.t
and block = node list

val loop : ?step:int -> string -> Expr.t -> Expr.t -> block -> t
(** [loop i lb ub body] is [DO i = lb, ub, step]. *)

val depth : t -> int
(** Maximum loop-nesting depth, counting this loop. *)

val statements : t -> Stmt.t list
(** All statements in the body, in textual order. *)

val block_statements : block -> Stmt.t list

val labels : block -> string list
(** Labels of the block's statements, in textual order. *)

val loops_on_spine : t -> header list
(** Headers of the perfect-nest spine: this loop, then the chain of inner
    loops followed while each body is exactly one loop. The spine stops at
    the first body containing a statement or several nodes. *)

val is_perfect : t -> bool
(** True when every body on the spine has exactly one node and the
    innermost body contains only statements. *)

val enclosing_headers : t -> Stmt.t -> header list option
(** Headers (outermost first) of loops enclosing the given statement
    (matched by label) inside this nest, or [None] if absent. *)

val inner_loops : t -> t list
(** Immediate loop children of this loop's body. *)

val body_is_all_loops : t -> bool

val map_statements : (Stmt.t -> Stmt.t) -> t -> t

val fresh_name : (string, unit) Hashtbl.t -> (int -> string) -> string
(** The first of [candidate 1], [candidate 2], ... not in [used], added
    to it. Transforms fill [used] with the names of the nests in hand, so
    a new label or index is a function of those nests alone. *)

val label_statements : block -> block
(** Names each unlabelled statement [S<k>], [k] counting from 1 in
    textual order and skipping labels the block already uses. *)

val indices : t -> string list
(** Index variables of all loops in the nest, preorder. *)
