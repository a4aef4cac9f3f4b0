(** Loop tiling (Section 6) — strip-mining plus interchange.

    Memory order maximises short-term reuse across inner iterations;
    tiling captures the long-term reuse carried by outer loops once the
    cache is large enough to hold a tile. Following the paper's guidance,
    the primary criterion for choosing tile loops is creating
    loop-invariant references with respect to the target loop, with
    outer unit-stride loops a secondary candidate on long-line machines.

    Tiling is step 2 of the paper's framework and is not part of the
    Compound driver — apply it to nests already in memory order. *)

val strip_mine : ?suffix:string -> Loop.t -> loop:string -> tile:int -> Loop.t
(** Test oracle: the single-loop step {!tile} is built from; tests check
    it alone, also on the imperfect nests {!tile} refuses.

    Replace [DO i = lb, ub] by a tile-control loop [DO i_T = lb, ub, T]
    enclosing [DO i = i_T, MIN(i_T + T - 1, ub)]. Semantics-preserving
    for any positive tile size.
    @raise Invalid_argument if the loop is missing, has non-unit step, or
    [tile <= 0]. *)

val tile :
  ?deps:Locality_dep.Depend.t list ->
  ?check:bool ->
  ?suffix:string ->
  ?sizes:int ->
  Loop.t ->
  band:string list ->
  Loop.t option
(** Strip-mine every loop of [band] (innermost first) and move the tile-
    control loops outside the band, preserving their relative order.
    [sizes] is the tile size (default 16 iterations); [suffix] (default
    ["_T"]) names the control loops, allowing a second level of tiling
    with a different suffix for multi-level caches. [None] when the nest
    is imperfect, a band loop is missing or non-unit-step, or the band is
    not fully permutable. [check:false] skips the permutability test —
    for second-level tiling, where the already-tiled nest's band is not
    fully permutable in isolation but tiling remains legal because the
    {e original} band was (establish that first).

    [deps], when given, must be the true (flow, anti, output)
    dependences of [nest] itself — what
    [List.filter Depend.is_true_dep (Analysis.deps_in_nest nest)]
    returns — and spares recomputing them; absent, [tile] computes them
    when [check] needs them. *)

val recommend :
  ?deps:Locality_dep.Depend.t list -> ?cls:int -> Loop.t -> string list
(** Loops worth tiling, per the paper's criterion: non-innermost loops
    with respect to which some reference group is loop-invariant (plus
    outer loops carrying unit-stride references). Empty when the nest has
    no long-term reuse to capture. [deps], when given, must be the nest's
    own dependences {e including} input ones
    ([Analysis.deps_in_nest ~include_input:true nest]), which reference
    groups need; absent, they are computed. *)
