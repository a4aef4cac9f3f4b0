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
(** Test oracle: the pairwise test behind {!test_pair} and
    {!test_self}, for reference pairs that no valid program produces.
    Memoized inside {!with_memo}.

    Constraint vector over the first [ncommon] loops of the paths (the
    common prefix), with sink iteration variables implicitly primed, plus
    the zero-compatibility flag (can the references touch the same
    location on the same iteration of every common loop?) and the
    always flag (identical subscript functions). [None] means provably no
    dependence. Bounds of the enclosing loops (including non-common ones)
    refine the result by interval reasoning. *)

val with_memo : (unit -> 'a) -> 'a
(** [with_memo f] runs [f] with {!analyze_pair} memoized, so each
    distinct reference pair is tested once however many times [f]'s
    analyses ask about it. [Compound.run_program] runs inside one scope,
    so permutation, memory order, fusion and distribution share their
    pair tests; code outside every scope analyses each pair afresh.

    Key: the whole input of {!analyze_pair},
    [(src_path, snk_path, ncommon, src_ref, snk_ref)], compared
    structurally. Statement labels and access kinds are not part of it:
    the pair test reads neither, and {!test_pair} attaches them to the
    memoized answer. The memo relies on the pair test being a pure
    function of that input; it reads no global state.

    Scope: the running domain only, from the outermost [with_memo] until
    it returns or raises; a nested call joins the open scope. The table
    is then dropped, so its memory is bounded by the pairs one scope
    asks about (a long-running daemon keeps none between requests).

    While recording ({!Locality_obs.Obs.enabled}), the outermost scope
    emits two counters when [f] returns: [dep.pair_tests], the distinct
    pairs tested, and [dep.pair_lookups], the pair tests asked for
    (every one would run without the memo). *)

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
