(** Loop parallelism analysis — the other half of the [KM92] story this
    paper extends.

    A loop is DOALL-parallel when it carries no true dependence. The
    paper's §5.7 notes the interaction: reordering for locality can move
    a recurrence to the innermost position (Simple), trading low-level
    parallelism for cache lines, with unroll-and-jam as the recovery.
    This module measures that interaction. *)

type report = {
  loops : int;  (** loops in the nest *)
  doall : int;  (** DOALL loops *)
  outer_parallel : bool;  (** the outermost loop is DOALL *)
  inner_sequential : bool;
      (** the innermost loop carries a recurrence (the "Simple" trade) *)
}

val program_summary : Program.t -> report list
(** One report per top-level nest. *)
