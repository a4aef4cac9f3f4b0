(** The unified pipeline: load → (dependence-driven) compound transform
    → measurement, as one typed configuration.

    Every consumer of the pipeline — the [memoria] CLI subcommands, the
    benchmark harness and the table/figure generators in [Stats] — used
    to hand-roll this sequence; they are now thin wrappers over
    {!run}. A config names the program source, the transformation to
    apply, the cache geometries to measure on, the
    trace/replay mode and the experiment store; the result carries both
    program versions, the optimizer's statistics, and one measurement
    per geometry.

    Measurement goes through {!Locality_interp.Measure.prepare}, one
    batch per program version covering every geometry: with a store
    attached a warm run never walks the program, and each program
    version is walked at most once per run however many geometries are
    measured. *)

module Cache = Locality_cachesim.Cache
module Measure = Locality_interp.Measure
module Store = Locality_store.Store

type source =
  | Source_program of { name : string; program : Program.t }
      (** An already-built program. *)
  | Source_file of string  (** A mini-language source file. *)
  | Source_text of { name : string; text : string }
      (** Mini-language source already in memory — what a wire request
          carries ({!Request}); [name] labels diagnostics and results. *)
  | Source_kernel of string  (** A {!Locality_suite.Kernels} name. *)
  | Source_suite of string  (** A {!Locality_suite.Programs} name. *)
  | Source_entry of Locality_suite.Programs.entry
      (** A suite entry already in hand (Table 2's iteration). *)

type transform =
  | Keep  (** Measure the program as-is (transformed = original). *)
  | Compound of {
      try_reversal : bool option;
      interference_limit : int option;
    }  (** The paper's compound algorithm, via {!Locality_core.Compound}. *)
  | Provided of { transformed : Program.t; optimized_labels : string list }
      (** A transformed version computed elsewhere (ablations, Table 4
          re-measuring Table 2's output). *)

type config = {
  source : source;
  n : int option;
      (** Size override at load: kernels take it as their constructor
          argument (default 64), files and programs have every PARAMETER
          rewritten to it, suite entries pass it to
          {!Locality_suite.Programs.program_of}. *)
  scale : int;
      (** Geometry multiplier (the [--scale] flag): the effective size
          override becomes [scale * (n | 64)] when [> 1]. {!Layout}
          rejects scaled geometries whose byte layout would overflow the
          packed-record address space. *)
  cls : int;  (** Cache line size in elements for the cost model. *)
  transform : transform;
  machines : Cache.config list;
      (** Geometries to measure on; empty = analysis only (no walk). *)
  params : (string * int) list option;
      (** Walk-time parameter overrides, as {!Measure.prepare}. *)
  replay : Measure.replay_mode;
  sample_rate : float;
      (** SHARDS rate for the [Sampled] replay mode, threaded into
          {!Measure.prepare} — per config, never process state, so
          concurrent runs with different rates (the serve daemon's
          workers) cannot interfere. *)
  use_labels : bool;
      (** Thread the optimized-region statement labels into replay so
          runs carry per-region statistics (Table 4). *)
  store : Store.t option;  (** Experiment store. *)
}

val config :
  ?n:int ->
  ?scale:int ->
  ?cls:int ->
  ?transform:transform ->
  ?machines:Cache.config list ->
  ?params:(string * int) list ->
  ?replay:Measure.replay_mode ->
  ?sample_rate:float ->
  ?use_labels:bool ->
  ?store:Store.t option ->
  source ->
  config
(** Defaults: no size override, [scale = 1], [cls = 4], {!Compound}
    with neither knob set, no machines, no parameter overrides, [Runs] replay,
    {!Locality_sample.Sample.default_rate}, [use_labels = false], no
    store. @raise Invalid_argument when
    [scale < 1] or [sample_rate] is outside (0, 1]. *)

type measured = {
  machine : Cache.config;
  original_run : Measure.run;
  transformed_run : Measure.run;
      (** Physically equal to [original_run] under {!Keep}. *)
  speedup : float;
      (** original cycles / transformed cycles: nan for a program with no
          array traffic (0/0), which replies write as [null]. *)
}

type result = {
  name : string;
  original : Program.t;
  transformed : Program.t;
  compound : Locality_core.Compound.stats option;
      (** Present iff the transform was {!Compound}. *)
  optimized_labels : string list;
      (** Statement labels of nests the optimizer changed ({!Compound}),
          or the provided labels ({!Provided}); [[]] under {!Keep}. *)
  measured : measured list;  (** One per machine, in [machines] order. *)
}

val effective_n : config -> int option
(** The size override {!run} loads with: [scale * (n | 64)] when
    [scale > 1], else [n]. *)

val load : ?n:int -> source -> (string * Program.t, string) Stdlib.result
(** Resolve a source to a named program. Errors (unknown kernel or
    suite name, unreadable or unparsable file) follow the same
    ["<name>:<detail>"] contract as {!run}. *)

val run : config -> (result, string) Stdlib.result
(** The whole pipeline. Every error — load failures and exceptions
    escaping any later stage alike — reads ["<name>:<detail>"], with
    the source name appearing exactly once (parse diagnostics extend
    the prefix to ["<name>:line:col:"]). Batch callers ([memoria
    suite], the serve daemon) print or forward the message verbatim,
    never re-prefixing, so the wire error envelope is stable. *)

val run_exn : config -> result
(** {!run}, raising [Failure] on error — for generators whose inputs
    are known-good (the table builders). *)
