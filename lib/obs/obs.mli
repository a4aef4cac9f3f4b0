(** The tracing core: monotonic-clock spans, counters and decision
    events, buffered per domain.

    Recording is off by default; with tracing disabled every
    instrumentation point compiles down to one flag check (and [span]
    to a flag check plus the tail call), so the optimizer and simulator
    pay nothing. When enabled, events land in a domain-local buffer;
    {!Locality_par.Pool} captures each work item's events with
    {!scoped} and re-{!inject}s them in input order at the barrier, so
    the merged stream is identical for any [MEMORIA_JOBS] value (modulo
    timestamps and domain ids — see {!Event.fingerprint}). *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Flip tracing on or off, before work starts. The flag is an atomic
    read by every domain, pool workers included. *)

val span : ?args:Event.args -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f] and records a {!Event.Span} when it
    finishes. The span closes (and is recorded) even when [f] raises;
    the exception is re-raised. Nested spans are fine. *)

val add_span_arg : string -> string -> unit
(** Attach a key/value to the innermost open span of this domain (for
    results only known at the end, e.g. cache hit counts). Outside any
    span the pair is recorded as an instant. *)

val instant : ?args:Event.args -> string -> unit
(** A point event. *)

val counter : string -> int -> unit
(** [counter name delta] accumulates into the named counter;
    {!Summary.of_events} totals deltas, the Chrome exporter renders a
    running counter track. *)

val histogram : string -> int -> unit
(** [histogram name value] records one observation of the named
    histogram. {!Summary.of_events} folds observations into log2
    buckets ({!Hist}); the merged bucket counts are deterministic at
    any [MEMORIA_JOBS] value because the event stream is. *)

val gauge : string -> float -> unit
(** [gauge name value] sets the named level; aggregation keeps the last
    write in merged-stream order. *)

val decision : Event.decision -> unit
(** Record a compound-transformation decision. Callers should guard the
    construction of the record behind {!enabled} — building the strings
    is the expensive part. *)

val with_ctx : string -> (unit -> 'a) -> 'a
(** Tag every event recorded by [f] (on this domain) with the given
    decision context, used to group a nest's notes under its decision.
    Contexts nest; the innermost wins. *)

val current_ctx : unit -> string
(** The innermost active context, [""] when none (or disabled). *)

val scoped : (unit -> 'a) -> 'a * Event.t list
(** Run [f] capturing the events it records on this domain, restoring
    the previous buffer afterwards. Returns the captured events in
    recording order. When [f] raises, the buffer is restored and the
    exception re-raised (the partial capture is dropped). With tracing
    disabled this is just [f ()]. *)

val inject : Event.t list -> unit
(** Append pre-recorded events (from {!scoped}) to this domain's
    buffer, preserving their order. *)

val reset : unit -> unit
(** Clear this domain's buffer, context and open spans. *)

val drain : unit -> Event.t list
(** Events recorded on this domain so far, oldest first; clears the
    buffer. *)

val collect : (unit -> 'a) -> 'a * Event.t list
(** Enable tracing around [f] on a fresh buffer and return what it
    recorded, restoring the previous enabled state and buffer — the
    one-call harness used by [memoria explain] and the tests. *)
