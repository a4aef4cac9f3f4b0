(** A content-addressed, on-disk experiment store.

    Caches expensive pipeline products — simulation statistics and
    optimizer output — keyed by a stable digest of everything that
    determines them (normalized program text, parameter overrides, cache
    geometry, replay mode and trace-format version, plus a store format
    version). A warm run looks its results up instead of re-walking
    and re-simulating, and is guaranteed to produce bit-identical
    values: every entry carries a checksum footer, and any corruption,
    truncation or version mismatch quarantines the entry and silently
    falls back to recomputation, so a damaged store can never change
    results or crash a run.

    Layout under the root directory:
    {v
    <root>/objects/<hh>/<digest>.bin   entries (hh = first two hex chars)
    <root>/quarantine/<digest>.bin     entries that failed validation
    v}

    Writes are atomic (unique temp file in the target directory, then
    [Sys.rename]), so concurrent writers — OCaml domains under
    [MEMORIA_JOBS] or separate processes sharing one store — race only
    to publish identical bytes; last rename wins and readers always see
    either nothing or a complete entry. Reads touch the entry's mtime,
    which is the LRU clock {!gc} evicts by.

    Hit/miss/write/invalidation/quarantine counts are kept in
    process-global atomics ({!counters}) and mirrored into
    {!Locality_obs.Obs} counters ([store.hit], [store.miss],
    [store.write], [store.invalidation], [store.quarantine]) when
    tracing is enabled. *)

type t
(** An opened store (a validated root directory). Immutable after
    {!open_root}; safe to share across domains. *)

val format_version : int
(** Test oracle: pinned by the key-stability test.

    Mixed into every key: bumping it invalidates the whole store (old
    entries become unreachable garbage for {!gc}), which is how
    incompatible changes to the marshalled payloads are rolled out. *)

val open_root : string -> t
(** Open (creating directories if needed) a store rooted at the given
    path. @raise Sys_error when the directory cannot be created. *)

val root : t -> string

(** {1 Keys} *)

type key
(** A content digest; equal parts always produce the equal key, across
    processes and runs. *)

val key : kind:string -> string list -> key
(** [key ~kind parts] digests the kind tag, {!format_version} and every
    part, length-prefixed so part boundaries cannot alias. *)

val hex : key -> string
(** Test oracle: what tests compare keys by.

    The digest as lowercase hex (the on-disk basename). *)

(** {1 Reading and writing} *)

val put : t -> key -> string -> unit
(** Test oracle: the raw payload layer under {!put_value}, for tests that
    write bytes.

    Atomically publish the payload under the key (checksummed footer
    appended). I/O errors are swallowed — the store is a cache, and a
    failed write only costs a future recomputation. *)

val get : t -> key -> string option
(** Test oracle: the raw payload layer under {!get_value}, for tests that
    read or corrupt bytes.

    The validated payload, or [None] on miss. A present-but-invalid
    entry (bad magic, length, or checksum) is quarantined and reported
    as a miss. *)

val put_value : t -> key -> 'a -> unit
(** [put] of the marshalled value. The key must encode the value's type
    (via the [kind] tag and key parts) — {!get_value} trusts it. *)

val get_value : t -> key -> 'a option
(** Unmarshal a validated payload. A payload that fails to unmarshal is
    quarantined and reported as a miss. Type safety rests on the key:
    only read a key with the type it was written with. *)

val memo : t option -> (unit -> key) -> (unit -> 'a) -> 'a
(** [memo store key compute]: the one lookup-else-compute. With no
    store, [compute ()]. Otherwise the value stored under [key ()], or
    on a miss [compute ()], published under that key. A corrupt entry
    reads as a miss, so it is recomputed and republished; an exception
    from [compute] propagates and publishes nothing, which is how a
    caller leaves a verdict unstored. [key] runs only when a store is
    present, and must encode the value's type (see {!get_value}). *)

val object_path : t -> key -> string
(** Test oracle: where an entry lives, for tests that corrupt or age it. *)

(** {1 Counters} *)

type counters = {
  hits : int;
  misses : int;
  writes : int;
  invalidations : int;  (** entries dropped for bad magic or length *)
  quarantines : int;  (** entries quarantined for checksum/decode failure *)
}

val counters : unit -> counters
(** Process-wide totals across every store opened by this process. *)

(** {1 Maintenance} *)

type disk_stats = {
  entries : int;
  bytes : int;  (** payloads + footers, as stored *)
  quarantined : int;  (** files currently in quarantine/ *)
}

val disk_stats : t -> disk_stats

val verify : t -> int * int
(** Validate every entry's footer and checksum; quarantine failures.
    Returns [(ok, quarantined)]. *)

val gc : ?min_age_s:float -> t -> max_bytes:int -> int * int
(** Evict least-recently-used entries (mtime order, oldest first) until
    the objects directory holds at most [max_bytes]; also empties the
    quarantine. Returns [(deleted, remaining_bytes)]. Entries whose
    mtime is younger than [min_age_s] seconds (default [0.]) are never
    evicted, so a concurrent writer — e.g. a serve worker publishing a
    result while [memoria store gc] runs beside the daemon — cannot
    have its object collected
    before any reader sees it; the returned remaining byte count still
    includes them, and may therefore exceed [max_bytes]. *)
