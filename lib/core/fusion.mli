(** Loop fusion (Section 4.3, Figure 4).

    Fusion merges adjacent compatible nests to create group-temporal reuse
    and, for imperfect nests, to build a perfect nest that permutation can
    then reorder. It is legal only when no dependence between the nests is
    reversed — i.e. no dependence runs from the second nest's statements
    to the first's in the fused body. *)

val compatible_level : Loop.t -> Loop.t -> int
(** Test oracle: the header check that fusion makes before any dependence
    test.

    Deepest level [d] such that the two nests' spine headers agree
    pairwise (same bounds and step) on levels [1..d]; 0 when even the
    outermost headers differ. *)

val fuse_to_depth : Loop.t -> Loop.t -> depth:int -> Loop.t
(** Merge the nests, renaming the second nest's spine indices on levels
    [1..depth] to the first's and concatenating the bodies below level
    [depth]. Headers must be compatible to [depth]. *)

val legal :
  outer:Loop.header list -> Loop.t -> Loop.t -> depth:int -> bool
(** Would fusing to [depth] reverse a dependence? *)

val weight :
  ?cls:int -> outer:Loop.header list -> Loop.t -> Loop.t -> depth:int -> Poly.t
(** Locality benefit of fusing: (sum of the two nests' best LoopCosts)
    minus the fused nest's best LoopCost. Positive means profitable. *)

val fuse_all_inner : ?cls:int -> Loop.t -> Loop.t option
(** Fuse {e all} inner nests of an imperfect loop whose body consists of
    adjacent loops, recursively, to produce a perfect nest that enables
    permutation (Section 4.3.2) — profitability is not required. [None]
    when headers are incompatible, fusion is illegal, or the body mixes
    statements and loops. A nest that is already perfect comes back as
    [Some] of a structurally equal copy ([=] to the input, though not
    [==]), so a caller asking whether fusion changed anything compares
    with [=]. *)

type block_result = {
  block : Loop.block;
  candidates : int;  (** adjacent nests considered (paper's column C) *)
  fused : int;  (** nests fused away (paper's column A) *)
}

val fuse_block :
  ?cls:int ->
  ?interference_limit:int ->
  outer:Loop.header list ->
  Loop.block ->
  block_result
(** Greedy profitable fusion over a block (Figure 4): nests are grouped by
    compatibility at the deepest level, and pairs are fused when the
    locality weight is positive, no dependence is reversed, and no
    dependence path through an intervening nest forbids reordering.

    [interference_limit], when given, refuses fusions whose fused body
    references more distinct arrays than the limit (a proxy for cache
    associativity) — the interference analysis the paper's Section 5.5
    names as the fix for fusion-induced conflict misses. Off by default,
    as in the paper. *)
