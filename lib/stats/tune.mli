(** [memoria tune]: search over the typed transformation space —
    structure (as-is / fused / distributed) × loop permutation × tile
    size × unroll-and-jam factor.

    Two ways in, one search: [memoria tune] and a wire request's [tune]
    object both reach {!run_config}; {!run} is its adapter for a
    program already in memory.

    The search is enumerate → screen → confirm, run on the program as
    {!D.load} loads and resizes it, once per search. Beside it, on a
    pool helper ({!Locality_par.Pool.both}), a {!D.run} measures the
    baseline the result is judged against: the original and the compound
    (memory-order) program, both with the exact simulator. A store hit
    may hand that run an original labelled differently from the one the
    search reads (builds of one text can label it differently); labels
    appear in no tune output, so the report's bytes do not change.

    + {e enumerate} the candidate space for the program's deepest
      top-level nest, in a fixed order (identity permutation first, the
      rest lexicographic in spine order; tile and unroll options in spec
      order), so the candidate list is identical on every run. The
      [Fused] structure is listed only when fusion changes the nest: a
      perfect nest comes back from fusion unchanged, and its fused
      subtree would build every [Asis] program a second time;
    + {e screen} every candidate as a walk of the tree structure →
      permutation → tile → unroll: structure, permutation and tiling
      run once per distinct prefix, in the domain that calls
      {!run_config} while the baseline runs on a helper, and a prefix a stage rejects
      prunes every candidate below it unapplied, answered right there.
      Each distinct nest of the tree is analysed for dependences once
      there, and every stage that checks legality on it — permutation,
      tiling band and test, unroll-and-jam — reads that one analysis.
      Then one fan-out over {!Locality_par.Pool}, which the helper joins
      once the baseline is done (input-order results, so any
      [MEMORIA_JOBS] gives the same answer), unrolls each candidate with
      a live prefix, prunes it if the result fails {!Program.validate}, and
      costs it with the [Analytic] replay mode — O(nest size) with
      transparent simulator fallback. Every pruned candidate is a row
      and a [tune.pruned_illegal] count of its own;
    + {e confirm} the top-K analytic finalists with the exact simulator
      ([Runs] mode); the winner is the lowest simulated miss rate, ties
      broken lexicographically on the candidate encoding.

    Both scores come from {!Locality_interp.Measure.prepare} with the
    run's store, which memoizes each under the {e transformed} program
    text and geometry ([analytic] and [run] kinds): re-tuning is warm,
    candidates shared between kernels (the six matmul orders permute
    into each other) hit across kernels, and the result never depends
    on what the store holds.

    Obs surface: [tune.generated], [tune.pruned_illegal],
    [tune.screened], [tune.simulated], [tune.truncated],
    [tune.dep_analyses] counters; [tune.enumerate] / [tune.screen] /
    [tune.confirm] spans; [tune.screen.miss_bp] and
    [tune.confirm.miss_bp] histograms (miss rate in basis points). *)

module D = Locality_driver.Driver
module Cache = Locality_cachesim.Cache
module Store = Locality_store.Store

type spec = {
  tiles : int list;  (** tile-size band, e.g. [[8;16;32;64]] *)
  unrolls : int list;  (** unroll-and-jam factors, e.g. [[2;4;8]] *)
  top_k : int;  (** finalists confirmed with the exact simulator *)
  max_candidates : int;
      (** enumeration cap; candidates beyond it are dropped and counted
          ([t_truncated], [tune.truncated]) — never silently *)
}

val default_spec : spec
(** Test oracle: the search space of a request without a [tune] field,
    for tests that pin it.

    [{tiles = [8;16;32;64]; unrolls = [2;4;8]; top_k = 5;
     max_candidates = 4096}] — the full band. *)

val quick_spec : spec
(** A cheap profile for [--quick] and smoke tests:
    [{tiles = [16]; unrolls = [4]; top_k = 1; max_candidates = 96}]. *)

val spec_of_request : Locality_driver.Request.tune_spec -> spec
(** Resolve a wire-level tune spec: every [None] field falls back to
    {!default_spec} — how the serve daemon and [memoria sim --request]
    turn a request's [tune] object into a search space. *)

type structure = Asis | Fused | Distributed

type candidate = {
  structure : structure;
  perm : string list option;  (** target spine order, [None] = keep *)
  tile : int option;
  unroll : (string * int) option;  (** loop name × factor *)
}

val encode : candidate -> string
(** Test oracle: the candidate names rows carry, for picking candidates in
    tests.

    Canonical encoding, e.g. ["S=asis;P=J,K,I;T=16;U=K*4"] — the store
    key component and the deterministic tie-break. *)

val candidates : spec -> Program.t -> (int * candidate list) option
(** Test oracle: the whole enumeration the search screens, at cls 4.

    The tuned nest's index in the program body (the deepest top-level
    nest, the first on ties) and its whole candidate list in enumeration
    order, before [max_candidates] truncation. [None] when the program
    has no top-level nest. *)

val apply : Program.t -> nest_idx:int -> candidate -> Program.t option
(** Test oracle: the one-candidate reference that {!apply_all} must
    equal, at cls 4.

    Apply one candidate to the top-level nest at [nest_idx]: structure
    first, then permutation (legality-checked), tiling (over
    {!Locality_core.Tiling.recommend}'s band), then unroll-and-jam with
    program-wide label freshening. [None] when any stage rejects or the
    result fails validation — a malformed candidate is pruned, never
    propagated. *)

val apply_all :
  ?jobs:int ->
  Program.t ->
  nest_idx:int ->
  candidate list ->
  Program.t option list
(** Test oracle: the screen's batched application, checked element by
    element against {!apply}.

    The screen's application: equal, element by element, to
    [List.map (apply p ~nest_idx) cands], but structure, permutation and
    tiling run once per distinct prefix of consecutive candidates, and
    a rejected prefix rejects the candidates below it without applying
    them; only candidates with a live prefix go to the pool. Input-order
    results at any [jobs].

    Which analysis serves which stage: a shaped or permuted nest is
    analysed with its input dependences (the tiling band needs them),
    and their true part serves the permutation test, the tiling test
    and the unroll of an untiled nest; a tiled nest is analysed for the
    true dependences its unroll-and-jam test reads at every loop and
    factor. Each analysis adds one to [tune.dep_analyses]. *)

type status = Illegal | Screened | Confirmed

type row = {
  enc : string;
  status : status;
  analytic_miss : float option;  (** [None] iff illegal *)
  simulated_miss : float option;  (** [Some] iff confirmed *)
}

type result = {
  t_name : string;
  t_machine : Cache.config;
  t_n : int option;
  t_generated : int;
  t_pruned : int;
  t_screened : int;
  t_confirmed : int;
  t_truncated : int;
  t_baseline_miss : float;  (** original program, exact simulator, % *)
  t_memorder_miss : float;
      (** the compound (memory-order) transform's result — the paper's
          single-pass answer the winner is judged against *)
  t_rows : row list;  (** every candidate, enumeration order *)
  t_winner : row option;  (** best confirmed; [None] if none legal *)
  t_winner_program : Program.t;  (** the original when no winner *)
}

val run_config : ?spec:spec -> ?jobs:int -> D.config -> (result, string) Stdlib.result
(** Tune the config's source, the one search path: load it once via
    {!D.load} (at {!D.effective_n}), check the spec, then run the
    baseline and the search side by side. Scored on the config's first
    machine (cache1 when none), with its cls, params and store; its
    other fields are not read. Deterministic at any [jobs]: fixed
    enumeration order, pool results in input order, lexicographic
    tie-breaks. Errors follow the driver's ["<name>: <detail>"]
    contract; no input raises — a [spec] that breaks the wire's range
    rules ({!Locality_driver.Request.tune_spec_error}) is an error too.
    When the baseline run fails, its error is the answer, whatever the
    search beside it did. *)

val run :
  ?spec:spec ->
  ?n:int ->
  ?machine:Cache.config ->
  ?jobs:int ->
  ?store:Store.t option ->
  name:string ->
  Program.t ->
  (result, string) Stdlib.result
(** {!run_config} on [Source_program {name; program}] at [n], on
    [machine] (default cache1), cls 4, no params; no store by
    default. *)

val render : result -> string
(** Human-readable report: counts, baseline vs memory order vs winner,
    and the confirmed top-K table. *)

val to_json : result -> string
(** Versioned JSON document (see [doc/SCHEMA.md]), newline-terminated. *)
