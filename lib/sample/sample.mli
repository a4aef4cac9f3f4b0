(** SHARDS-style sampled reuse-distance profiling.

    Spatial hash sampling over cache lines (Waldspurger et al., FAST'15):
    a line is tracked iff [hash(line) < threshold] in a fixed 2^24 hash
    space, so the sampling rate is [threshold / 2^24] and every access to
    a sampled line is an unbiased 1/R-weighted observation of the full
    trace. Reuse distances are measured in the subsampled trace (distinct
    sampled lines between consecutive touches of a line) and scaled back
    by 1/R; first touches of a sampled line contribute 1/R to the cold
    estimate.

    Distances are tracked {e per cache set} ([line mod sets], the
    simulator's mapping): a [W]-way LRU set hits exactly when fewer than
    [W] distinct same-set lines intervened since the last touch, so a
    profile built with the target geometry's set count has no
    set-associativity model error — at rate 1.0 it reproduces the exact
    simulator, and at lower rates the only error is sampling noise.
    [sets = 1] (the default) gives the classic fully-associative SHARDS
    profile; at rate 1.0 with no bound on tracked lines it is the exact
    LRU stack-distance profile (Bennett–Kruskal).

    When the tracked-line set exceeds [max_tracked] the
    threshold halves and no-longer-qualifying lines are evicted
    (SHARDS-adj: previously recorded observations keep the weight they
    were recorded at), so memory stays O(max_tracked) at any trace
    length and the rate adapts to the footprint.

    The profiler consumes the v2 run-compressed trace stream natively:
    unsampled accesses are exact no-ops on the sampler state, so a group
    descriptor whose references all sit in unsampled lines is skipped in
    bulk to the earliest line-boundary crossing — the result is exactly
    what per-access feeding would have produced, at a fraction of the
    work. Everything is deterministic: the hash is a fixed integer mixer
    (keyed by [seed]), so equal inputs give bit-equal profiles. *)

type t

val default_rate : float
(** 0.01, the SHARDS rate used when none is given. *)

val create :
  ?rate:float ->
  ?seed:int ->
  ?max_tracked:int ->
  ?sets:int ->
  line_bytes:int ->
  unit ->
  t
(** [create ~line_bytes ()] makes an empty profiler for the given cache
    line size (a power of two). [rate] (default {!default_rate})
    clamps into (0, 1]; [seed] (default 0) keys the line hash so repeated
    runs can draw independent samples; [max_tracked] (default 65536)
    bounds the tracked-line set before rate adaptation kicks in; [sets]
    (default 1, fully associative) partitions distance tracking by the
    target geometry's set mapping.
    @raise Invalid_argument when [line_bytes] or [sets] is not a
    positive power of two or [rate] is not strictly positive. *)

val access : t -> label:int -> addr:int -> unit
(** Feed one access (byte address, interned statement-label id). *)

val consume_runchunk : t -> Locality_cachesim.Runchunk.t -> unit
(** Feed a v2 trace block, group descriptors consumed with the bulk-skip
    fast path. Equivalent to feeding every expanded access through
    {!access} in replay order. *)

(** An immutable, marshalable summary of a finished profiling run;
    [pf_labels.(id)] names the statement label with interned id [id],
    and the per-label arrays are indexed the same way. Distances in
    [pf_label_hist] are already rescaled to full-trace distinct-line
    counts; weights sum to the (scaled) observation counts. *)
type profile = {
  pf_line_bytes : int;
  pf_sets : int;  (** set count the distances were tracked under *)
  pf_rate : float;  (** configured initial rate *)
  pf_final_rate : float;  (** rate after adaptation *)
  pf_seed : int;
  pf_accesses : int;  (** exact *)
  pf_ops : int;  (** exact, supplied by the caller *)
  pf_sampled : int;
  pf_adaptations : int;
  pf_labels : string array;
  pf_label_accesses : int array;  (** exact *)
  pf_label_cold : float array;  (** 1/R-weighted first touches *)
  pf_label_hist : (int * float) array array;
      (** per label: (scaled distance, weight), sorted by distance *)
}

val profile : t -> labels:string array -> ops:int -> profile
(** Freeze the sampler state. [labels] maps interned ids to names (from
    the trace buffer's interner) and must cover every id fed in. *)

val cold : profile -> float
(** Estimated distinct lines touched (sum of cold weights). *)

val hits_under : profile -> int -> ways:int -> float
(** [hits_under pf id ~ways] — estimated hits of label [id] in an LRU
    cache with [ways]-way sets under the profile's set mapping: the
    weight of observations with scaled same-set distance < [ways]. For
    a [sets = 1] profile, pass the geometry's total line count to get
    the fully-associative estimate. *)

val merged_histogram : profile -> (int * float) list
(** Test oracle: the scaled reuse-distance histogram the other profile
    figures are read from.

    All labels merged: (scaled distance, total weight), sorted. *)

val mean_distance : profile -> float
(** Weighted mean of the {!merged_histogram} distances; 0 when no line
    was reused. *)

val predicted_hit_rate : profile -> lines:int -> float
(** Hit rate (percent) of a fully associative LRU cache of [lines]
    lines, from a [sets = 1] profile: the weight of distances below
    [lines] over the non-cold accesses, through
    {!Locality_cachesim.Cache.rate_of_counts} with weights rounded to
    counts. Exact at rate 1.0. *)
