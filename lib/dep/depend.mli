(** Data dependences between array (and scalar) references. *)

type kind = Flow | Anti | Output | Input

type t = {
  src_label : string;  (** label of the source statement *)
  snk_label : string;  (** label of the sink statement *)
  src_ref : Reference.t;
  snk_ref : Reference.t;
  kind : kind;
  vec : Direction.t;  (** over the common loops, outermost first *)
  loops : string list;  (** index names of the common loops *)
  li : bool;
      (** the dependence may be loop-independent: the all-zero vector is
          realisable (subscripts can be equal on the same iteration of
          every common loop) *)
  li_always : bool;
      (** the references touch the same location on {e every} common
          iteration (identical subscript functions over the common
          loops) — the loop-independent reuse of RefGroup condition
          1(a), as opposed to a boundary-only overlap *)
  zero_prefix : int;
      (** largest prefix of the common loops that can be held at equal
          iterations while the references still overlap; a dependence
          with [zero_prefix = k] is definitely carried at level [<= k],
          which distribution and fusion legality exploit *)
}

val is_true_dep : t -> bool
(** Flow, anti or output — the dependences that constrain reordering. *)

val analyze_pair :
  src_path:Loop.header list ->
  snk_path:Loop.header list ->
  ncommon:int ->
  Reference.t ->
  Reference.t ->
  (Direction.t * bool * bool * int) option
(** Test oracle: the pairwise test behind {!test_pair}, for reference
    pairs that no valid program produces.

    Constraint vector over the first [ncommon] loops of the paths (the
    common prefix), with sink iteration variables implicitly primed, plus
    the zero-compatibility flag (can the references touch the same
    location on the same iteration of every common loop?) and the
    always flag (identical subscript functions). [None] means provably no
    dependence. Bounds of the enclosing loops (including non-common ones)
    refine the result by interval reasoning. *)

val test_self :
  path:Loop.header list -> Stmt.t * Reference.t -> t option
(** The loop-carried output dependence of a write with itself, when its
    subscripts do not cover every enclosing loop. *)

val test_pair :
  src_path:Loop.header list ->
  snk_path:Loop.header list ->
  ncommon:int ->
  src:Stmt.t * Reference.t * [ `Read | `Write ] ->
  snk:Stmt.t * Reference.t * [ `Read | `Write ] ->
  t list
(** All dependences between an ordered pair of accesses, where the source
    access executes before the sink within one iteration of the common
    loops (textual order; within one statement, reads precede the write).
    Produces the forward dependence, and the reversed dependence when the
    solution set admits lexicographically negative vectors. *)

val pp : Format.formatter -> t -> unit
