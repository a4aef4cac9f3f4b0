(** A set-associative data cache with LRU replacement.

    Simulates hits and misses for an address trace; used to reproduce the
    paper's Table 4 (simulated cache hit rates on the RS/6000 and i860
    cache geometries). Cold (first-touch) misses are tracked separately
    because Table 4 excludes them. *)

type config = {
  name : string;
  size_bytes : int;
  assoc : int;  (** number of ways; 1 = direct-mapped *)
  line_bytes : int;
}

type t

type stats = {
  accesses : int;
  hits : int;
  misses : int;  (** including cold misses *)
  cold_misses : int;  (** first-ever touch of a line *)
  writes : int;
  write_hits : int;
  writebacks : int;  (** dirty lines evicted (write-back policy) *)
}

val config_valid : config -> bool
(** Size and line size are positive powers of two and the size is a
    multiple of [line_bytes * assoc]; hence associativity and the set
    count are powers of two as well. *)

val create : config -> t
(** @raise Invalid_argument on an invalid configuration. *)

val access : t -> int -> bool
(** [access t addr] touches the byte address and reports a hit. *)

val access_classified : t -> int -> [ `Hit | `Cold | `Miss ]
(** Test oracle: the per-access classification that the bulk replay paths
    only count; tests replay a trace through it and compare the totals.

    Like {!access}, distinguishing cold (first-touch) misses from
    capacity/conflict misses. *)

val access_full :
  t -> ?write:bool -> int -> [ `Hit | `Cold | `Miss ] * int option
(** Full result: the classification plus the line address written back
    when a dirty victim was evicted (write-back, write-allocate). It and
    {!simulate_runs} share one lookup, which holds the LRU, dirty, cold
    and write-back rules. *)

type region = {
  mutable r_accesses : int;
  mutable r_hits : int;
  mutable r_cold : int;
}
(** Running counts for a marked subset of statement labels (Table 4's
    "optimized" region), accumulated during {!simulate_runs}. *)

val fresh_region : unit -> region

type run_metrics = {
  mutable m_groups : int;  (** run groups replayed *)
  mutable m_boundaries : int;  (** iterations processed with set lookups *)
  mutable m_bulk_iters : int;  (** iterations bulk-advanced as all-hit *)
  mutable m_fallbacks : int;  (** windows degraded by same-set conflicts *)
}

val fresh_run_metrics : unit -> run_metrics

val simulate_runs :
  t -> ?marked:bool array -> ?region:region -> ?metrics:run_metrics ->
  Runchunk.t -> unit
(** Replay a v2 run chunk ({!Runchunk}). Statistics, write-backs,
    [region] tallies (of the labels [marked] flags, by label id) and
    [metrics] are bit-identical to per-access {!access_full} replay of
    the expanded stream. Groups with a reference that advances by less
    than a line per iteration replay event-driven: only references that
    cross a line, or lost theirs to an eviction, are looked up, and the
    all-hit interior of each window bulk-advances clock and LRU ages.
    Allocation-free: the per-group scratch belongs to [t] (empty at
    {!create}, grown to the largest reference count seen, never sized
    by the cache), and the counts reach [t], [region] and [metrics] once
    per call.
    @raise Invalid_argument when [len] exceeds the chunk's data or a
    group runs past it. *)

val stats : t -> stats

val rate_of_counts :
  ?exclude_cold:bool -> accesses:int -> hits:int -> cold:int -> unit -> float
(** Shared hit-rate definition (also used by [Measure.hit_rate]): 100.0
    when there are no accesses at all, but 0.0 when accesses > 0 and the
    denominator is empty because every access was a cold miss. *)

val hit_rate : ?exclude_cold:bool -> stats -> float
(** Hits over accesses, in percent; with [exclude_cold] (default true,
    as in Table 4) cold misses are removed from the denominator. See
    {!rate_of_counts} for the degenerate cases. *)
