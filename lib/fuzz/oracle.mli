(** The differential oracle stack.

    Each oracle checks one agreement the repo's execution layers must
    hold for {e every} legal program:

    - [`Exec]: the {!Locality_core.Compound} transform preserves
      semantics — original and transformed programs compute the same
      arrays under the reference interpreter (element-wise, with a small
      relative tolerance for reassociated reductions; non-finite values
      must match bitwise).
    - [`Replay]: the [Runs] measurement backend reports exactly the
      reference simulator's counts — the interpreter's observer feeding
      {!Locality_cachesim.Cache.access_full} one access at a time —
      whole-program and for an every-other-statement optimized region,
      on both machine geometries and both program versions.
    - [`Roundtrip]: {!Pretty} output re-parses through the [Lang]
      frontend to a program with the same canonical text, on both
      program versions.
    - [`Cgen]: the {!Pretty_c} native backend (when a C compiler is on
      [PATH]) computes the interpreter's checksum, on both versions.
    - [`Analytic]: the closed-form locality model
      ({!Locality_analytic.Analytic}) agrees with the trace-replay
      simulator on both program versions under both machine
      geometries — every bracket it reports contains the simulated
      value, and counts are simulator-equal whenever it claims
      exactness. A fallback verdict is allowed (the model may refuse a
      program), a wrong number never is.
    - [`Sample]: the SHARDS sampled profiler
      ({!Locality_sample.Sample}) is simulator-equal at rate 1.0 under
      an unexceeded tracking budget on both machine geometries, its
      group-descriptor fast path produces the profile per-access
      feeding would (including under threshold adaptation and at
      sub-1.0 rates), and its exact access tallies match the trace, on
      both program versions.

    Oracles are pure observers: a failed check is returned as a
    {!finding}, never raised. *)

type kind = [ `Exec | `Replay | `Roundtrip | `Cgen | `Analytic | `Sample ]

val all : kind list
(** Every oracle, in check order. *)

val kind_of_string : string -> (kind, string) result
val kind_to_string : kind -> string

type finding = {
  kind : kind;
  detail : string;  (** one-line human-readable disagreement *)
}

val cgen_available : unit -> bool
(** Whether a C compiler ([cc]/[gcc]/[clang]) is on [PATH]; memoised. *)

val check : ?oracles:kind list -> Program.t -> finding list
(** Run the requested oracles (default {!all}, with [`Cgen] skipped
    when no compiler is present) against one generated program. The
    compound transform runs once and is shared by all oracles. *)
