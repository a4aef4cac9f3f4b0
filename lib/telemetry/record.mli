(** One per-invocation telemetry record — the schema-versioned digest
    of a run ([doc/SCHEMA.md] documents the JSON layout) that
    [memoria health] compares against history. Pure data; persistence
    lives in {!Telemetry}. *)

type t = {
  ts_ns : int64;  (** wall-clock epoch, nanoseconds *)
  cmd : string;  (** memoria subcommand ("sim", "suite", ...) *)
  workload : string;
      (** stable key grouping comparable runs, e.g.
          ["suite:n=50:cls=16:jobs=4"] *)
  replay : string;  (** MEMORIA_REPLAY mode in effect *)
  geometry : string;  (** cache geometry description *)
  jobs : int;
  git : string;  (** git describe, or ["unknown"] *)
  wall_ms : float;  (** whole-invocation wall clock *)
  phases : (string * float) list;  (** span name -> summed ms *)
  counters : (string * int) list;  (** obs counter totals *)
  gauges : (string * float) list;  (** obs gauge levels *)
}

val to_json : t -> string
(** One newline-terminated JSON object. *)

val of_string : string -> t option
(** Parse a serialized record; [None] (never an exception) on malformed
    JSON, wrong schema version, or missing fields. *)

val gauge : t -> string -> float option
val phase_ms : t -> string -> float option

val hit_rate : t -> float option
(** store hits / (hits + misses); [None] when the run never touched the
    store. *)

val fallback_rate : t -> float option
(** analytic.fallback / analytic.nests; [None] when no nests were
    modelled. *)
