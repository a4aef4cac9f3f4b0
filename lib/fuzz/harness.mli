(** The fuzzing campaign: generate, check, shrink, record.

    Work items fan out over the {!Locality_par.Pool} domain pool; each
    item derives its own RNG stream from [(seed, index)] and the
    results are folded in index order, so a campaign's outcome — and
    its Obs event stream — is byte-for-byte identical for any
    [MEMORIA_JOBS] value.

    Obs counters: [fuzz.programs] (generated), [fuzz.failures]
    (programs with at least one surviving finding) and
    [fuzz.shrink_steps] (accepted shrink edits). *)

type failure = {
  index : int;  (** generation index within the campaign *)
  findings : Oracle.finding list;  (** what disagreed, pre-shrink *)
  program : Program.t;  (** as generated *)
  shrunk : Program.t;  (** minimized, still failing *)
  shrink_steps : int;
}

type outcome = {
  generated : int;
  failures : failure list;  (** in index order *)
  corpus_files : string list;  (** reproducers written, if a dir was given *)
}

val run :
  ?jobs:int ->
  ?oracles:Oracle.kind list ->
  ?corpus_dir:string ->
  seed:int ->
  count:int ->
  max_size:int ->
  unit ->
  outcome
(** Run a campaign of [count] programs. [oracles] defaults to
    {!Oracle.all}; failures are shrunk against the oracle kinds that
    originally fired and, when [corpus_dir] is given, written there as
    reproducer files. *)
