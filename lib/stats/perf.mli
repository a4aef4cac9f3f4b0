(** Tables 1 and 3 — modelled performance of original versus transformed
    programs, and Table 4 — simulated cache hit rates. *)

module Measure = Locality_interp.Measure

type perf_row = {
  name : string;
  seconds_orig : float;
  seconds_final : float;
  speedup : float;  (** cache1 *)
  speedup2 : float;  (** cache2 *)
}

val two_machine_rows : where:string -> program:string -> 'a list -> 'a * 'a
(** The driver returns one measured row per requested machine, and the
    perf tables always request exactly (cache1, cache2). Raises
    [Invalid_argument] naming [where] and the offending [program] when
    the row count differs. *)

val table1 : ?settings:Locality_driver.Settings.t -> ?n:int -> unit -> string
(** Erlebacher: hand-coded vs distributed vs fused (Section 4.3.4). *)

val table3_rows :
  ?settings:Locality_driver.Settings.t -> ?n:int -> unit -> perf_row list
val table3 : ?settings:Locality_driver.Settings.t -> unit -> string
(** Original vs compound-transformed modelled times for the kernels the
    paper reports in Table 3 (at [n] = 128, cache line size 4), on the
    cache1 machine model. Each program version is interpreted once and
    its trace replayed per cache config; rows are simulated in parallel
    on the domain pool. *)

type hit_row = {
  name : string;
  opt1_orig : float;
  opt1_final : float;
  opt2_orig : float;
  opt2_final : float;
  whole1_orig : float;
  whole1_final : float;
  whole2_orig : float;
  whole2_final : float;
}

val table4_rows :
  ?settings:Locality_driver.Settings.t -> ?n:int -> Table2.row list ->
  hit_row list

val table4 : ?settings:Locality_driver.Settings.t -> Table2.row list -> string
(** Simulated hit rates at [N] = 32 (cold misses excluded) for optimized
    procedures and whole programs, on cache1 (RS/6000) and cache2
    (i860). Each program version is interpreted once and its trace
    replayed on both geometries; rows run in parallel on the domain
    pool. *)
