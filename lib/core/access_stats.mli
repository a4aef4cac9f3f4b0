(** Data access properties (Table 5).

    Classifies every reference group of a program by the self reuse of
    its representative — loop-invariant, unit-stride (consecutive), or
    none — with respect to a nest's innermost loop, and measures group
    reuse as references per group. [`Ideal] classifies against the
    memory-order innermost loop regardless of legality. *)

type class_stats = {
  groups : int;
  refs : int;  (** textual reference occurrences across the groups *)
}

type t = {
  inv : class_stats;
  unit_ : class_stats;
  none : class_stats;
  group_spatial : int;
      (** groups built partly from group-spatial (condition 2) pairs *)
}

val empty : t
val add : t -> t -> t

val of_program : ?which:[ `Actual | `Ideal ] -> cls:int -> Program.t -> t
(** Sums over every nest (all top-level loops, any depth). *)

val pct : class_stats -> t -> float
(** Share of groups in a class, in percent of all groups. *)

val refs_per_group : class_stats -> float
val avg_refs_per_group : t -> float
