(** Minimal RFC 8259 JSON reader — the dual of the emitter in
    {!Locality_obs.Json}, used to read wire requests.
    Numbers parse as floats; [\u] escapes outside one byte degrade to
    ['?'] (our own emitter never produces them). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse_opt : string -> t option

val parse_keyed : string -> t * (string * int) list
(** {!parse}, also returning every object key with its byte offset in
    document order — enough for a consumer with a fixed schema (the
    [Driver.Request] reader) to point diagnostics at the offending
    field. *)

val line_col : string -> int -> int * int
(** [(line, col)] of a byte offset, both 1-based; offsets are clamped
    into the document. *)

val member : string -> t -> t option
(** Field lookup; [None] on non-objects and missing keys. *)

val to_string_opt : t -> string option
val to_float_opt : t -> float option

val to_int_opt : t -> int option
(** [Some] only for numbers with zero fractional part. *)

val obj_fields : t -> (string * t) list option
