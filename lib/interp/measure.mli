(** Measurement harness: walk a program's address trace ({!Walk}) into
    a simulated cache, with statistics split between the statements the
    optimizer touched and the whole program — the methodology behind
    Tables 1, 3 and 4.

    {!prepare} builds one {!backend} per replay mode; it answers a batch
    of queries (geometry, optimized-region labels) at once. Every run is
    costed with {!Machine.default_timing}. Every entry point takes an
    optional content-addressed {!Locality_store.Store.t} (default:
    none): results are then looked up by a digest of the canonical
    program text, parameter overrides, mode, cache geometry, timing
    model and optimized-region statements, and only computed (and
    stored) on a miss. Statements are named by their
    position in program order in keys, so an entry written by one build
    of a program reads correctly in any other. Cached values are
    bit-identical to recomputation; a corrupt entry is quarantined and
    transparently recomputed. *)

module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Store = Locality_store.Store

type region = {
  accesses : int;
  hits : int;
  cold : int;
}

type run = {
  whole : region;
  optimized : region;  (** accesses issued by the given statement labels *)
  ops : int;
  cycles : float;
  seconds : float;
}

val hit_rate : ?exclude_cold:bool -> region -> float
(** In percent; cold misses excluded from the denominator by default, as
    in Table 4. Delegates to {!Cache.rate_of_counts}: 100.0 when the
    region saw no accesses at all, 0.0 when every access was a cold miss
    (no reuse to score). *)

type hier_run = {
  l1_rate : float;  (** L1 hit rate, percent, cold excluded *)
  l2_rate : float;  (** L2 hit rate among L1 misses, percent, cold excluded *)
  amat : float;  (** average memory access time, cycles *)
  hier_writebacks : int;
}

type replay_mode = Runs | Sampled | Analytic
(** The measurement backend. Each mode's contract is stated against the
    reference simulator — the interpreter's observer feeding
    {!Cache.access_full} one access at a time, which shares no walk,
    compression or bulk-replay code with these backends.

    [Runs] walks the program's run-compressed trace once per batch of
    queries and fans each chunk out to one simulator per query, so no
    trace is materialised: memory is O(chunk × geometries) at any
    iteration count. Strided-run groups let replay bulk-advance whole
    cache-line windows. Statistics are bit-identical to the reference.

    [Sampled] replaces exact simulation with a SHARDS sampled
    reuse-distance profile ({!Locality_sample.Sample}) at the rate given
    to {!prepare}: cache lines are hash-sampled, distances are tracked
    per cache set, and hits are estimated via the exact set-associative
    LRU condition (scaled same-set distance < ways) — exact at rate 1.0,
    sampling noise only below it. Access and op counts stay exact. One
    profile per (line size, set count) partition serves every geometry
    sharing it.

    [Analytic] skips tracing: the closed-form locality model
    ({!Locality_analytic.Analytic}) answers in O(nest size), exactly on
    programs it certifies and as sound estimates elsewhere; queries out
    of its scope fall back to [Runs] as one batch (counted under
    [analytic.fallback]).

    Hierarchy measurements are exact in every mode. *)

val mode_of_string : string -> replay_mode option
(** Strict parse of ["runs"], ["sample"], ["analytic"] ([None] on
    anything else) — the wire-API and CLI surface. *)

val mode_to_string : replay_mode -> string
(** Inverse of {!mode_of_string}; these strings are the documented
    protocol values. *)

(** {1 Backends} *)

type query = {
  config : Cache.config;
  labels : string list;  (** the optimized region's statements *)
}
(** One geometry, with a label set. *)

val query :
  ?config:Cache.config -> ?optimized_labels:string list -> unit -> query
(** Defaults: cache1, no labels. *)

type backend = {
  runs : query list -> run list;
      (** One run per query, in order. *)
  hierarchy : l1:Cache.config -> l2:Cache.config -> hier_run;
      (** A two-level write-back hierarchy. *)
}
(** A program staged for measurement in one mode. Work is deferred and
    store-backed: each query is first looked up under its own key, and
    a [Runs] batch walks the program once for all its misses — never
    when the store answers them all. A backend is meant for one domain;
    each pool work item should {!prepare} its own. *)

val prepare :
  ?mode:replay_mode ->
  ?rate:float ->
  ?params:(string * int) list ->
  ?store:Store.t option ->
  Program.t ->
  backend
(** [mode] defaults to [Runs]; [rate] is the SHARDS sampling rate of
    the [Sampled] mode (default {!Locality_sample.Sample.default_rate});
    [params] are walk-time parameter overrides. *)

val replay_prepared :
  ?config:Cache.config ->
  ?optimized_labels:string list ->
  backend ->
  run
(** [runs] on the one {!query} these arguments make. *)

val measure :
  ?config:Cache.config ->
  ?optimized_labels:string list ->
  ?mode:replay_mode ->
  ?rate:float ->
  ?params:(string * int) list ->
  ?store:Store.t option ->
  Program.t ->
  run
(** {!prepare} then {!replay_prepared}. *)

val measure_hierarchy :
  ?l1:Cache.config ->
  ?l2:Cache.config ->
  ?mode:replay_mode ->
  ?params:(string * int) list ->
  ?store:Store.t option ->
  Program.t ->
  hier_run

(** {1 Store keys}

    This module decides the key of every measurement it stores (kinds
    [run], [hier], [sample] and [analytic]); no other module builds
    one. A key spells the cache geometry as [name/size/assoc/line], the
    timing model's three constants in hex float notation and parameter
    overrides as [k=v;k=v]. Changing a tag's bytes changes every key it
    appears in: bump {!Store.format_version} with it. *)

(** {1 Captures}

    A trace walked once into memory, for tools that inspect it
    ({!trace_stats}) or time the walk and the simulation apart. These
    never touch the store: measurement itself goes through {!prepare},
    which never materialises a trace. *)

type capture

val capture :
  ?mode:replay_mode ->
  ?params:(string * int) list ->
  ?store:Store.t option ->
  Program.t ->
  capture
(** There is one trace format and a capture is never stored, so [mode]
    and [store] are ignored; they are accepted so existing callers keep
    compiling. *)

val trace_stats : capture -> int * int * int
(** [(records, stream_words, groups)]: logical access count, words
    actually stored, and strided-run groups in the capture. *)

val replay :
  ?config:Cache.config ->
  ?optimized_labels:string list ->
  ?store:Store.t option ->
  capture ->
  run
(** The capture's chunks through the [Runs] simulator: bit-identical to
    {!replay_prepared} on a [Runs] backend. [store] is ignored, as in
    {!capture}. *)
