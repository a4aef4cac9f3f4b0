(** Hybrid distance/direction vectors (Section 3.1 of the paper).

    A vector has one entry per loop, outermost first. Entries carry the
    most precise information derivable: an exact distance when the
    subscript tests determine one, a sign when only the direction is
    known, [Any] when the pair of references is invariant with respect to
    the loop (every distance, including 0 and 1, is realisable), and
    [Star] when nothing is known.

    Sign convention: a positive distance means the source access executes
    on an earlier iteration than the sink (the classic "<" direction). *)

type elt =
  | Dist of int  (** exact distance (sink iteration - source iteration) *)
  | Pos  (** some positive distance, value unknown ("<") *)
  | Neg  (** some negative distance (">") *)
  | NonNeg  (** zero or positive ("<=") *)
  | NonPos  (** zero or negative (">=") *)
  | Ne  (** non-zero, either sign ("<>") *)
  | Any  (** loop-invariant pair: all distances realisable *)
  | Star  (** unknown *)

type t = elt list

val may_pos : elt -> bool
val may_neg : elt -> bool
val may_zero : elt -> bool
val must_pos : elt -> bool
val must_zero : elt -> bool
val negate_elt : elt -> elt

val meet : elt -> elt -> elt option
(** Conjunction of two constraints on the same loop; [None] when they are
    contradictory (which disproves the dependence). *)

val negate : t -> t

val may_lex_neg : t -> bool
(** Some realisable vector is lexicographically negative. *)

val may_lex_pos : t -> bool
(** Some realisable vector is lexicographically positive (strictly). *)

val lex_nonneg : t -> bool
(** Every realisable vector is lexicographically non-negative — the
    legality condition for a transformed dependence. *)

val restrict_lex_nonneg : t -> t option
(** Over-approximation of the vectors that are lexicographically
    non-negative; [None] when there are none. *)

val restrict_lex_pos : t -> t option
(** Over-approximation of the lexicographically positive vectors. *)

val small_constant_at : t -> int -> bool
(** RefGroup condition 1(b): entry at the (1-based) position is a small
    constant distance ([|d| <= 2], or [Any], which realises distance 1)
    and every other entry is definitely zero. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
