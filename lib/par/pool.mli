(** A domain pool for independent work items.

    Built on OCaml 5 domains; used to run the per-program rows of the
    evaluation tables, the experiment list of the benchmark harness and
    a tune search's screen and confirmation in parallel ({!map}), and a
    tune search's baseline beside its screen ({!both}). Results are
    always delivered in input order, and with [jobs = 1] the functions
    are plain sequential code, so pool size never changes the answer —
    only the wall clock.

    {!map} and {!both} run on helper domains that live for the whole
    process: they
    are spawned on the first fan-out that needs them, never number more
    than [default_jobs () - 1], and wait on a condition variable between
    fan-outs. The pool size defaults to {!default_jobs}, and an explicit
    [?jobs] above it is clamped to it. Nested calls from inside a worker
    run sequentially rather than fanning out again.

    When {!Locality_obs.Obs} tracing is enabled, each item's events are
    captured on the domain that runs it and merged back into the
    caller's buffer in input order once every item has finished, so the
    recorded stream has the same {!Locality_obs.Event.fingerprint}
    sequence at any pool size — apart from the [par.domains_spawned]
    counter, recorded by the fan-out that spawns a helper.

    Workers may freely read and write a {!Locality_store.Store.t}: the
    handle is immutable, its counters are atomics, writes publish via
    rename, and concurrent writers of the same key settle on one valid
    entry — so the store is safe across pool domains and across
    concurrent processes sharing one store root. *)

val default_jobs : unit -> int
(** The machine's recommended domain count, capped at 8. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] is [List.map f items], computed by the caller
    and up to [jobs - 1] helpers. An exception raised by [f] aborts the
    map and is re-raised in the caller once every item already started
    has finished. *)

val both : ?jobs:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both ~jobs f g] is [let a = f () in (a, g ())], with [f] run on a
    helper while the caller runs [g]. [?jobs] defaults to 2; at
    [jobs = 1], or called from inside a worker, [both] is exactly that
    sequential code. The caller runs [g] outside the nested-pool guard,
    so a {!map} inside [g] fans out as it would at top level, and the
    helper joins it once [f] is done; a {!map} inside [f] runs
    sequentially on the helper. When either side raises on the fan-out
    path, the exception is re-raised once both sides have finished,
    [f]'s when both raise, so the first exception of the sequential
    order wins.
    Traced events are merged as {!map} merges them: [f]'s, then [g]'s. *)

(** {1 Persistent pool}

    A long-lived worker-domain pool for services ([memoria serve]),
    whose requests arrive one at a time. Its workers run the same loop
    as {!map}'s helpers and set the same nested-pool guard, so jobs that
    call {!map} internally run it sequentially. *)

type pool

val create : ?jobs:int -> unit -> pool
(** Spawn the worker domains ([?jobs] defaults to {!default_jobs}). *)

val pool_jobs : pool -> int

val submit : pool -> (unit -> unit) -> unit
(** Enqueue a job; it runs on some worker in FIFO order. Exceptions
    escaping the job are dropped — report errors inside it. @raise
    Invalid_argument after {!shutdown}. *)

val shutdown : pool -> unit
(** Stop accepting work, finish every queued job, and join the
    workers. Idempotent-safe to call once only. *)
