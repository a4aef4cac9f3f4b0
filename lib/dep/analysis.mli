(** Dependence analysis over loop nests and blocks.

    Scalars participate as rank-0 references (their name prefixed with
    ["$"]), so reductions into scalars and uses of scalar temporaries
    conservatively constrain reordering. *)

type access = {
  stmt : Stmt.t;
  ref_ : Reference.t;
  acc : [ `Read | `Write ];
  path : (int * Loop.header) list;
      (** enclosing loops, outermost first; the [int] identifies the loop
          occurrence so that same-named sibling loops are distinct *)
  pos : int * int;  (** (textual statement position, 0 for reads / 1 for writes) *)
}

val deps :
  ?include_input:bool -> ?outer:Loop.header list -> Loop.block -> Depend.t list
(** All dependences between accesses of the block. Input (read-read)
    dependences are included only on request — the cost model's RefGroup
    needs them; legality tests do not. Inside {!Depend.with_memo} (every
    [Compound.run_program] is) each distinct reference pair is tested
    once per scope; the list is the same either way. *)

val deps_in_nest : ?include_input:bool -> Loop.t -> Depend.t list
(** Dependences within a single nest, vectors over the nest's own loops
    (plus inner ones on the common path). *)
