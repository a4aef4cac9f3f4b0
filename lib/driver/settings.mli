(** Process-wide settings, resolved once where an executable starts and
    passed down as a value.

    The [memoria] executable reads four environment
    variables — [MEMORIA_JOBS], [MEMORIA_REPLAY], [MEMORIA_SAMPLE_RATE]
    and [MEMORIA_STORE] — exactly once, through
    {!of_env}; no library module reads the environment. Resolution is
    lenient on purpose (a bad value falls back to its default instead of
    failing every command); the wire API ({!Request}) and the CLI flags
    are the strict surfaces. *)

module Measure = Locality_interp.Measure
module Store = Locality_store.Store

type t = {
  jobs : int;  (** domain-pool width *)
  replay : Measure.replay_mode;
  sample_rate : float;  (** SHARDS rate of the [Sampled] mode, in (0, 1] *)
  store : Store.t option;
}

val default : unit -> t
(** The settings of an empty environment: {!Locality_par.Pool.default_jobs},
    [Runs], {!Locality_sample.Sample.default_rate} and no store. *)

val of_env :
  ?cores:int ->
  ?open_store:(string -> Store.t option) ->
  (string * string) list ->
  t
(** Resolve an environment given as [(name, value)] pairs:
    - [MEMORIA_JOBS]: a positive integer, capped at [cores] (default:
      the recommended domain count); anything else means
      {!Locality_par.Pool.default_jobs}, i.e. min(8, cores);
    - [MEMORIA_REPLAY]: a {!Measure.mode_of_string} name; anything else
      selects [Runs];
    - [MEMORIA_SAMPLE_RATE]: a float in (0, 1]; anything else means
      0.01;
    - [MEMORIA_STORE]: a store root, opened with [open_store] (default
      {!Store.open_root}, or no store with a one-line warning on stderr
      when the root cannot be created); unset or empty means no store.

    [open_store] is the only effect. *)

val environment : string array -> (string * string) list
(** Split [Unix.environment ()]-style ["NAME=value"] entries. *)

val config :
  t ->
  ?n:int ->
  ?scale:int ->
  ?cls:int ->
  ?transform:Driver.transform ->
  ?machines:Locality_cachesim.Cache.config list ->
  ?params:(string * int) list ->
  ?use_labels:bool ->
  Driver.source ->
  Driver.config
(** {!Driver.config} with these settings' replay mode, sampling rate and
    store. *)
