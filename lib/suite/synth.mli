(** Deterministic synthetic loop nests.

    The paper's test suite (Perfect, SPEC, NAS) is not distributable, so
    each program is reconstructed from a specification of its Table-2
    shape: how many nests are already in memory order, how many the
    compiler can permute, how many are blocked by dependences or by
    complex bounds, and how many fusion/distribution opportunities exist.
    Templates are fixed loop-nest patterns whose behaviour under the
    compound algorithm is verified by the test suite. *)

type spec = {
  name : string;
  good2 : int;  (** depth-2 nests already in memory order *)
  perm2 : int;  (** depth-2 nests the compiler can interchange *)
  fail2 : int;  (** depth-2 nests blocked by dependences *)
  good3 : int;
  perm3 : int;
  fail3 : int;
  inner3 : int;
      (** nests whose innermost loop is already best but whose outer
          order is not memory order *)
  fail_inner3 : int;
      (** nests blocked from full memory order whose innermost loop is
          nevertheless already the best one *)
  fuse_pairs : int;  (** adjacent nest pairs with profitable fusion *)
  dist : int;  (** imperfect nests fixed by distribution + permutation *)
  reductions : int;  (** memory-order nests with loop-invariant reuse *)
  complex : int;  (** nests whose bounds are too complex to permute *)
  singles : int;  (** depth-1 loops (count toward Loops, not Nests) *)
}

val zero : string -> spec
(** A spec with every count 0. *)

val loops_of : spec -> int
(** Total DO statements generated. *)

val generate : ?n:int -> spec -> Program.t
(** Build the program; [n] (default 32) is the shared size parameter's
    default value. Arrays are unique per nest except where a template
    shares them deliberately, so nests do not interfere by accident. *)
