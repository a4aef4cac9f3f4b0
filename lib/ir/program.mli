(** Whole programs: array declarations, symbolic parameters, and a
    top-level block of loops and statements. *)

type t = {
  name : string;
  params : (string * int) list;
      (** Symbolic size parameters with their default (evaluation) values. *)
  decls : Decl.t list;
  body : Loop.block;
}

val make :
  name:string -> ?params:(string * int) list -> Decl.t list -> Loop.block -> t
(** Names the body's unlabelled statements ({!Loop.label_statements}), so
    a program's labels depend on it alone. *)

val decl : t -> string -> Decl.t option
val top_loops : t -> Loop.t list
(** Top-level loops in textual order (statements outside loops skipped). *)

val map_body : (Loop.block -> Loop.block) -> t -> t

val positional_label : t -> string -> string
(** Two builds of one program text can label it differently: lu's
    explicit [L1]/[L2] against its re-parsed text's [S1]/[S2], or a
    transformed program's permuted labels against its re-parsed text.
    [positional_label t] maps this program's labels to build-independent
    names: the label of the k-th statement in program order (0-based) is
    ["#k"]. Any other string passes through unchanged, so the function
    is idempotent. Apply it to [t] once and reuse the result: that
    builds the index once. *)

val validate : t -> (unit, string) result
(** Check that every referenced array is declared with matching rank, loop
    index names are unique along each nest path, steps are non-zero, and
    statement labels are unique across the whole program (dependence
    analysis keys statements by label). *)
