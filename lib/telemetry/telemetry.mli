(** Persistence for per-invocation telemetry {!Record}s.

    Records live as one JSON file each under [<store root>/telemetry/],
    beside the content-addressed [objects/] namespace, written with the
    store's atomic tmp+rename. Publishing is best-effort: no I/O failure
    ever propagates to the run being recorded. Whether to publish at
    all is the caller's setting ([MEMORIA_TELEMETRY=1] with a store, as
    the executables resolve it). *)

val dir : Locality_store.Store.t -> string
(** Test oracle: where records are written, for tests that inspect the
    files.

    The telemetry namespace under the store root. *)

val git_describe : unit -> string
(** Best-effort [git describe --always --dirty], ["unknown"] when
    unavailable. Runs the subprocess once per process. *)

val now_epoch_ns : unit -> int64
(** Wall-clock epoch time in nanoseconds (for {!Record.t.ts_ns}). *)

val publish : Locality_store.Store.t -> Record.t -> string option
(** Atomically write the record into the telemetry namespace
    ([<ts_ns>-<pid>.json]). [Some path] on success, [None] on any I/O
    error (nothing partial is left behind). *)

val load : Locality_store.Store.t -> Record.t list
(** All readable records, oldest first; corrupt or alien files are
    skipped silently. *)

val load_dir : string -> Record.t list
(** {!load} over an explicit directory (for [memoria health --dir] and
    tests). *)
