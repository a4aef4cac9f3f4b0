(** Ablation studies for the design choices the paper argues for.

    Not part of the paper's tables; these quantify, on our substrate,
    (a) what each transformation contributes, (b) what tiling adds on top
    of memory order (Section 6), (c) whether loop reversal ever makes the
    difference (the paper found it never did), and (d) how sensitive the
    chosen loop order is to the cache line size, the model's only machine
    parameter. The measuring studies run under the given settings'
    replay mode, sampling rate and store (default
    {!Locality_driver.Settings.default}). *)

val transforms :
  ?settings:Locality_driver.Settings.t -> ?n:int -> unit -> string
(** Speedup per kernel with permutation only, permutation + fusion, and
    the full compound algorithm. *)

val tiling :
  ?settings:Locality_driver.Settings.t -> ?n:int -> unit -> string
(** Tile-size sweep (no tiling, 4, 8, 16, 32) over kernels left in
    memory order, on the small cache. *)

val reversal : unit -> string
(** Suite-wide comparison of compound with and without reversal as an
    enabler: how many nests change outcome. *)

val cls_sensitivity : unit -> string
(** Memory order chosen for sample kernels under cls = 2, 4, 16. *)

val step3 : ?settings:Locality_driver.Settings.t -> unit -> string
(** Step-3 preview (the paper's register level): unroll-and-jam plus
    scalar replacement on memory-ordered matmul at [N] = 64, measured
    as memory accesses per FLOP and modelled time. *)

val interference : ?settings:Locality_driver.Settings.t -> unit -> string
(** Fusion with and without the Section-5.5 interference guard on the
    shallow-water kernel at [N] = 128, where unguarded fusion conflicts
    in cache1. *)

val parallelism : unit -> string
(** Locality vs parallelism: DOALL loops and outer-parallel nests before
    and after the compound transformation, across the kernels. *)

val multilevel :
  ?settings:Locality_driver.Settings.t -> ?n:int -> unit -> string
(** Two-level tiling against a two-level cache hierarchy: untiled vs
    L1-sized tiles vs L2-over-L1 tiles, reported as AMAT. *)

val reuse_profile :
  ?settings:Locality_driver.Settings.t -> ?n:int -> unit -> string
(** Reuse-distance profiles of the six matmul orders: mean distance, the
    fully-associative LRU prediction at the i860 capacity, and the
    simulated 2-way rate it upper-bounds. *)

val tilesize :
  ?settings:Locality_driver.Settings.t -> unit -> string
(** Automatic tile-size selection ({!Locality_cachesim.Tilesize},
    [LRW91]) versus a fixed sweep, across problem sizes including the
    pathological power-of-two strides. *)
