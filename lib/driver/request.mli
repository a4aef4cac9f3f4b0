(** The typed, wire-serializable request API of the Driver pipeline.

    A {!t} is a serializable mirror of {!Driver.config}: replay mode,
    sample rate, geometry scale, job count and store root are explicit
    typed fields; an absent replay mode or sample rate, and an
    ["ambient"] store, take the {!Settings} the caller resolves the
    request with. The JSON form (read by {!of_json} via
    {!Locality_telemetry.Jsonin}, written by {!to_json} via the shared
    {!Locality_obs.Json} emitter) is the body of the [memoria serve] line
    protocol and of [memoria sim --request FILE]; the schema is
    documented in [doc/SCHEMA.md] and [doc/PROTOCOL.md] and carries
    [schema_version].

    Reading is strict: an unknown field anywhere in the document is
    rejected with a [line:col]-prefixed diagnostic (like the language
    front end's parser errors), as are type mismatches and unsupported
    schema versions. Adding optional fields is a compatible change;
    consumers of {!to_json} must ignore unknown keys. *)

module Cache = Locality_cachesim.Cache
module Measure = Locality_interp.Measure
module Store = Locality_store.Store

type source =
  | Kernel of string  (** {!Driver.Source_kernel} *)
  | Suite of string  (** {!Driver.Source_suite} *)
  | File of string  (** {!Driver.Source_file} — resolved server-side *)
  | Text of { name : string; text : string }
      (** Inline mini-language source ({!Driver.Source_text}) — how a
          remote client ships a program it holds. *)

type transform =
  | Keep
  | Compound of { try_reversal : bool option; interference_limit : int option }
      (** The serializable subset of {!Driver.transform};
          [Driver.Provided] carries an in-memory program and has no
          wire form. *)

type machine =
  | Named of string
      (** A preset geometry: ["cache1"] (RS/6000) or ["cache2"] (i860). *)
  | Custom of Cache.config  (** An explicit geometry. *)

type store_choice =
  | Ambient
      (** the store of the {!Settings} the request is resolved with — for
          the daemon and the CLI, the store they were started with (the
          default) *)
  | No_store  (** disable caching for this request *)
  | Root of string  (** an explicit store root *)

type tune_spec = {
  t_top_k : int option;  (** finalists confirmed with the exact simulator *)
  t_tiles : int list option;  (** tile-size band; [None] = the default *)
  t_unrolls : int list option;  (** unroll-and-jam factors *)
  t_max_candidates : int option;  (** enumeration cap *)
}
(** Overrides for the tuning search space; every [None] falls back to
    [Stats.Tune.default_spec]. The presence of the [tune] field is what
    turns a request into a tuning query. *)

val tune_spec_error : tune_spec -> (string * string) option
(** The range rules of a tune spec, wherever it came from: [top_k] and
    [max_candidates] at least 1, [tiles] and [unrolls] non-empty lists
    of positive integers. [Some (field, problem)] names the first field
    that breaks them, e.g. [("tiles", "expected positive integers")].
    {!of_json} and {!to_config} both apply them. *)

type t = {
  id : string;  (** client correlation token, echoed in the response *)
  source : source;
  n : int option;
  scale : int;
  cls : int;
  transform : transform;
  machines : machine list;  (** empty = analysis only *)
  params : (string * int) list;
  replay : Measure.replay_mode option;  (** [None] = the settings' mode *)
  sample_rate : float option;
      (** SHARDS rate for the [sample] replay mode, carried into
          {!Driver.config}[.sample_rate] — per-request, never process
          state, so a server mixing concurrent requests with different
          explicit rates keeps them isolated. [None] = the settings'
          rate. *)
  use_labels : bool;
  store : store_choice;
  timeout_ms : int option;
      (** Serve-side deadline; [Some 0] means already expired (the
          deterministic way to ask for a typed timeout response). *)
  emit_program : bool;  (** include the transformed program text in the
                            response *)
  tune : tune_spec option;
      (** [Some _] makes this a tuning request: the server searches the
          transformation space and answers with a [tune] response
          instead of a measurement. Part of the {!fingerprint}, so tune
          and non-tune queries over the same config never batch
          together. *)
}

val make :
  ?id:string ->
  ?n:int ->
  ?scale:int ->
  ?cls:int ->
  ?transform:transform ->
  ?machines:machine list ->
  ?params:(string * int) list ->
  ?replay:Measure.replay_mode ->
  ?sample_rate:float ->
  ?use_labels:bool ->
  ?store:store_choice ->
  ?timeout_ms:int ->
  ?emit_program:bool ->
  ?tune:tune_spec ->
  source ->
  t
(** Defaults mirror {!Driver.config}'s: empty id, no size override,
    [scale = 1], [cls = 4], {!Compound} with neither knob set, no
    machines, no params, no replay mode, {!Ambient} store, no rate, no labels,
    no timeout, no program echo. *)

val machine_of_config : Cache.config -> machine
(** [Named] when the config structurally equals a preset, [Custom]
    otherwise — how flag-built configs round-trip into requests. *)

val to_json : t -> string
(** The canonical wire form: one line, no trailing newline, every field
    present (absent optionals as [null]), fields in schema order. Two
    equal requests always serialize to equal bytes. *)

val of_json : string -> (t, string) Stdlib.result
(** Parse and validate a request document. Errors are single-line
    diagnostics: malformed JSON as ["request: ..."], unknown fields and
    type mismatches as ["line:col: ..."] pointing at the offending
    key. *)

val fingerprint : t -> string
(** The request's compute identity: {!to_json} of the request with
    [id], [timeout_ms] and [emit_program] neutralized — equal
    fingerprints get identical {!Driver.result}s, which is what the
    serve daemon batches on. *)

val to_config :
  ?settings:Settings.t -> t -> (Driver.config, string) Stdlib.result
(** Resolve to a runnable {!Driver.config}: look up named machines,
    validate custom geometries (positive sizes, power-of-two line,
    size divisible by [line * assoc]), check the tune spec's ranges
    ({!tune_spec_error}), open the store. Absent fields
    and ["ambient"] take [settings] (default {!Settings.default}).
    Errors follow the ["request: <detail>"] format. *)
