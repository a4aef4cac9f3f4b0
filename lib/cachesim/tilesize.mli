(** Automatic tile-size selection in the style of [LRW91] (Lam,
    Rothberg & Wolf), which Section 6 of the paper defers to for the
    "how big" half of tiling.

    [LRW91]'s observation is that the limiting factor for a tiled
    column-major array is {e self-interference}: two columns of a
    T{^2} tile whose start addresses collide in the cache evict each
    other even though the tile "fits" by capacity. Their algorithm
    generates candidate tile heights from the Euclidean remainder
    sequence of the cache size and the array's column stride, then
    takes the largest interference-free one. We keep the Euclidean
    candidate generation and replace their closed-form interference
    estimate with an {e exact} check: the tile's element addresses are
    mapped through the actual set-associative geometry and a size is
    accepted only when no set is over-subscribed. The result is
    exactly the "largest conflict-free tile" [LRW91] aims for, on any
    associativity. *)

type verdict = {
  tile : int;  (** chosen tile edge (iterations = array elements) *)
  footprint_lines : int;  (** distinct cache lines a [tile]² tile touches *)
  conflict_free : bool;  (** no cache set over-subscribed by the tile *)
}

val candidates : cache_elems:int -> stride:int -> int list
(** Test oracle: the [LRW91] sequence {!choose} draws its sizes from.

    The Euclidean remainder sequence of [cache_elems] and
    [stride mod cache_elems], descending, values ≥ 2 only — [LRW91]'s
    candidate tile heights. Degenerates to few (or no) useful
    candidates when the stride shares large factors with the cache
    size — the pathological power-of-two leading dimensions. *)

val self_conflicts :
  ?ways:int ->
  Cache.config ->
  elem_size:int ->
  stride:int ->
  tile:int ->
  int
(** Test oracle: the exact interference count {!choose} accepts a tile by;
    tests check chosen tiles against it.

    Number of excess line→set mappings of a [tile] × [tile] tile of a
    column-major array with the given column [stride] (in elements):
    the sum over cache sets of [max 0 (distinct lines - ways)], with
    [ways] defaulting to the cache's associativity. Zero means the
    whole tile can reside in [ways] ways of each set simultaneously.
    @raise Invalid_argument on non-positive [tile], [stride] or
    [elem_size]. *)

val footprint :
  Cache.config ->
  elem_size:int ->
  stride:int ->
  tile:int ->
  int
(** Test oracle: the line count {!choose} reports as [footprint_lines].

    Distinct cache lines touched by the [tile] × [tile] tile. *)

val choose :
  ?max_fill:float ->
  ?reserve_ways:int ->
  Cache.config ->
  elem_size:int ->
  stride:int ->
  verdict
(** Largest tile edge that is conflict-free {e and} occupies at most
    [max_fill] (default 0.7, leaving room for the other arrays in the
    loop body) of the cache's lines. On a set-associative cache the
    tile may claim at most [assoc - reserve_ways] ways of any set
    (default [reserve_ways = 1], clamped so at least one way remains
    usable): the reserved way absorbs the cross-interference from the
    loop body's streaming references, which [LRW91]'s direct-mapped
    analysis has no analogue for. Candidates are the Euclidean
    sequence plus powers of two plus [stride] itself, capped at
    [stride]; the fallback when everything conflicts is a tile of 2.
    @raise Invalid_argument on non-positive [stride]/[elem_size],
    negative [reserve_ways], or [max_fill] outside (0, 1]. *)
