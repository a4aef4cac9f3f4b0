(** A two-level cache hierarchy (write-back, write-allocate).

    The paper's framework notes that higher degrees of tiling can exploit
    multi-level caches; this model lets those experiments run: accesses
    go to L1, L1 misses are filled from L2, and dirty L1 victims are
    written back into L2. *)

type t

val create : l1:Cache.config -> l2:Cache.config -> t
(** @raise Invalid_argument when a configuration is invalid or L2's line
    size is smaller than L1's. *)

val access : t -> ?write:bool -> int -> [ `L1_hit | `L2_hit | `Memory ]
(** Test oracle: one access at a time through both levels, the reference
    that {!simulate_runs} must match.

    Where the access was satisfied. *)

val simulate_runs : t -> Runchunk.t -> unit
(** Replay a v2 run chunk by expanding groups to their access sequence
    ({!Runchunk.iter}); statistics are identical to per-access replay. *)

val l1_stats : t -> Cache.stats
val l2_stats : t -> Cache.stats
val writebacks : t -> int
(** Dirty L1 lines pushed into L2 on eviction. *)

val amat : t -> float
(** Average memory access time in cycles, with L1, L2 and memory
    latencies of 1, 8 and 40 cycles. 0 when no accesses were made. *)
