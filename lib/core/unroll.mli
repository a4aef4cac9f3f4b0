(** Unroll-and-jam (register tiling) — step 3 of the paper's framework.

    The paper defers register-level optimization to [CCK90]/[Car92] but
    points at unroll-and-jam in §5.7 as the way to recover low-level
    parallelism after reordering for locality. Provided here as an
    optional transformation in the same spirit as {!Tiling}: unroll an
    outer loop by a factor and jam the copies into the innermost body, so
    references differing only in the unrolled index become candidates for
    scalar replacement. *)

val unroll_and_jam :
  ?deps:Locality_dep.Depend.t list ->
  ?avoid:string list -> Loop.t -> loop:string -> factor:int ->
  Loop.block option
(** Unroll the named outer loop of a perfect nest by [factor] and jam.
    Produces a main nest stepping by [factor] (with the copies appended
    to the innermost body, subscripts shifted) followed by a remainder
    nest covering the leftover iterations — as sibling nests when the
    unrolled loop is outermost, inside the shared outer loops otherwise
    (either way the result is a block replacing the original nest).

    Requirements checked (returning [None] when violated): the nest is
    perfect (including that the innermost body carries no nested loop),
    [loop] is on the spine but not innermost, its step is 1,
    no inner loop's bounds depend on it, [factor >= 2], and jamming is
    legal — conservatively, moving [loop] to the innermost position must
    be legal, which guarantees iterations of [loop] can interleave at
    the innermost level.

    Statement labels of the copies ([label_u<k>]) and the remainder
    ([label_r]) are freshened against every label in the nest plus
    [avoid] (labels used elsewhere in the enclosing program), so running
    after other label-suffixing transforms can never collide.

    [deps], when given, must be the true (flow, anti, output)
    dependences of the nest itself, as
    [List.filter Depend.is_true_dep (Analysis.deps_in_nest nest)]
    returns them. The legality verdict reads only these and the nest,
    never [factor], so one list serves every factor and every unrolled
    loop of a nest. Absent, they are computed. *)

type balance = {
  factor : int;  (** unroll factor ([1] = the nest untouched) *)
  scalars : int;  (** registers scalar replacement would claim *)
  mem_per_orig_iter : float;
      (** array loads + stores in the innermost body per {e original}
          iteration, after scalar replacement *)
  flops_per_orig_iter : float;  (** floating-point operations, same unit *)
}

val balance_of : factor:int -> Loop.t -> balance
(** Test oracle: the balance {!choose_factor} ranks factors by, checked at
    factor 1 where no candidate reports it.

    Static balance of a (possibly already jammed) nest: scalar-replace
    it, then count the innermost body's memory references and flops,
    scaled by [factor] to per-original-iteration units. *)

val choose_factor :
  ?max_regs:int -> ?candidates:int list -> Loop.t -> loop:string ->
  balance * balance list
(** [CCK90]-style factor selection: evaluate [candidates] (default
    [2;4;8]; factor 1 is always considered) by jamming [loop], scalar-
    replacing the main nest and comparing memory accesses per original
    iteration; choose the best among those needing at most [max_regs]
    (default 16) scalars, breaking ties toward the smaller factor.
    Returns the winner and every evaluated option (for reporting).
    Candidates whose jamming is illegal are dropped; factor 1 is
    returned when nothing admissible beats it. The nest's dependences
    are analysed once and shared by every candidate factor. *)

val map_main :
  Loop.block -> loop:string -> factor:int -> f:(Loop.t -> Loop.t) ->
  Loop.block option
(** Rebuild the block with [f] applied to the jammed main nest; [None]
    when no such nest exists. *)
