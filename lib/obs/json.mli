(** Minimal JSON emission, shared by every machine-readable surface.

    The Chrome trace exporter ({!Chrome}) and the stats-layer emitters
    ([explain], [tune] and [compare] JSON) both build their
    documents from these combinators, so escaping and formatting rules
    live in exactly one place. Values are plain strings; callers compose
    them bottom-up. *)

val schema_version : int
(** Version stamped into every versioned document ({!versioned}); bump
    when a documented field changes meaning or disappears. Adding fields
    is not a version bump — consumers must ignore unknown keys. See
    [doc/SCHEMA.md]. *)

val escape : string -> string
(** JSON string-body escaping (quotes, backslashes, control chars). *)

val str : string -> string
(** A quoted JSON string literal. *)

val int : int -> string

val list : string list -> string
(** [list items] is [\[i1,i2,...\]]; items are already-rendered JSON. *)

val strings : string list -> string
(** A JSON array of string literals. *)

val obj : (string * string) list -> string
(** [obj fields] renders an object; values are already-rendered JSON. *)

val versioned : (string * string) list -> string
(** {!obj} with a leading ["schema_version"] field. *)
