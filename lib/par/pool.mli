(** A fixed-size domain pool for independent work items.

    Built on OCaml 5 domains; used to run the per-program rows of the
    evaluation tables and the experiment list of the benchmark harness
    in parallel. Results are always delivered in input order, and with
    [jobs = 1] the functions are plain sequential maps, so pool size
    never changes the answer — only the wall clock.

    The pool size defaults to {!default_jobs}; an explicit [?jobs]
    argument is taken literally. Nested calls from inside a pool worker
    run sequentially rather than spawning further domains.

    When {!Locality_obs.Obs} tracing is enabled, each item's events are
    captured on the worker domain and merged back into the caller's
    buffer in input order at the barrier, so the recorded stream has the
    same {!Locality_obs.Event.fingerprint} sequence at any pool size.

    Workers may freely read and write a {!Locality_store.Store.t}: the
    handle is immutable, its counters are atomics, writes publish via
    rename, and concurrent writers of the same key settle on one valid
    entry — so the store is safe across pool domains and across
    concurrent processes sharing one store root. *)

val default_jobs : unit -> int
(** The machine's recommended domain count, capped at 8. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] is [List.map f items], computed by up to [jobs]
    domains. An exception raised by [f] aborts the map and is re-raised
    in the caller. *)

(** {1 Persistent pool}

    A long-lived worker-domain pool for services ([memoria serve]):
    requests arrive one at a time, so spawning domains per batch (as
    {!map} does) would dominate the warm-path latency. Workers set the
    same nested-pool guard as {!map}'s, so jobs that call {!map}
    internally run it sequentially. *)

type pool

val create : ?jobs:int -> unit -> pool
(** Spawn the worker domains ([?jobs] defaults like {!map}'s). Create
    the pool {e after} {!Locality_obs.Obs.set_enabled} so workers see
    the tracing flag. *)

val pool_jobs : pool -> int

val submit : pool -> (unit -> unit) -> unit
(** Enqueue a job; it runs on some worker in FIFO order. Exceptions
    escaping the job are dropped — report errors inside it. @raise
    Invalid_argument after {!shutdown}. *)

val shutdown : pool -> unit
(** Stop accepting work, finish every queued job, and join the
    workers. Idempotent-safe to call once only. *)
