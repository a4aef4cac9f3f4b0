(** The typed, wire-serializable response of the Driver pipeline — the
    other half of the {!Request} API and the body of every [memoria
    serve] reply line.

    Four statuses cover everything a service must be able to say:
    ["ok"] (a {!Driver.result}), ["error"] (the stable
    ["<name>:<detail>"] message {!Driver.run} guarantees), ["timeout"]
    (the request's deadline passed before a result was ready) and
    ["overloaded"] (the bounded queue was full; retry after the given
    hint). Serialization is deterministic — the same value always
    renders the same bytes, which is what lets the test suite and CI
    byte-diff server replies against direct {!Driver.run} calls. The
    schema is documented in [doc/SCHEMA.md] and [doc/PROTOCOL.md]. *)

type t =
  | Result of { id : string; emit_program : bool; result : Driver.result }
  | Tuned of { id : string; tune : string }
      (** A tuning reply: [tune] is the tuner's rendered JSON object
          (see [Stats.Tune.to_json]), embedded verbatim under the
          ["tune"] key — the response layer stays below the stats
          library, so the payload crosses as bytes, not as a type. *)
  | Failed of { id : string; message : string }
  | Timeout of { id : string; timeout_ms : int }
  | Overloaded of { id : string; retry_after_ms : int }

val of_run :
  id:string ->
  ?emit_program:bool ->
  (Driver.result, string) Stdlib.result ->
  t
(** [Result] or [Failed], echoing the request id. *)

val of_tune : id:string -> (string, string) Stdlib.result -> t
(** [Tuned] (trailing whitespace trimmed off the payload) or [Failed],
    echoing the request id. *)

val to_json : t -> string
(** One line, no trailing newline, [schema_version]'d. *)
