(** Chrome trace-event JSON export.

    Renders a recorded event stream in the trace-event format understood
    by chrome://tracing, Perfetto and speedscope: spans as complete
    ("X") events on one track per domain, decisions and notes as
    instants, counters as running-total counter ("C") tracks.
    Timestamps are microseconds relative to the earliest event. *)

val to_string : Event.t list -> string
(** Test oracle: the document {!write} writes.

    The complete JSON document
    ([{"schema_version": 1, "traceEvents": [...], ...}]); the extra
    [schema_version] field is ignored by trace viewers and versions the
    export for other consumers (see [doc/SCHEMA.md]). *)

val write : path:string -> Event.t list -> unit
(** {!to_string} straight to a file. *)
