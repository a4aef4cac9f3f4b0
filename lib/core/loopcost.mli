(** The RefCost / LoopCost cost model (Figure 1 of the paper).

    [LoopCost(l)] estimates the number of cache lines accessed by one
    execution of the nest when loop [l] is placed innermost: for each
    reference group, the representative costs 1 (loop invariant),
    [trip / (cls/stride)] (consecutive), or [trip] (no reuse), multiplied
    by the trip counts of all remaining loops enclosing it. *)

type ref_class = Invariant | Consecutive | None_

val classify :
  cls:int -> candidate:Loop.header -> Reference.t -> ref_class
(** Which of the three RefCost cases applies to a reference when
    [candidate] is the innermost loop. *)

val loop_cost :
  ?deps:Locality_dep.Depend.t list -> nest:Loop.t -> cls:int -> string -> Poly.t
(** Total cache-line cost of the nest with the named loop innermost.
    [deps] (with input dependences) may be supplied to avoid recomputing
    them for each candidate. *)

val all_costs :
  ?deps:Locality_dep.Depend.t list ->
  nest:Loop.t ->
  cls:int ->
  unit ->
  (string * Poly.t) list
(** [loop_cost] for every loop of the nest, in nest order. *)

val group_cost_table :
  nest:Loop.t ->
  cls:int ->
  candidates:string list ->
  (Refgroup.group * (string * Poly.t) list) list
(** Per-reference-group costs for each candidate loop — the paper's
    Figure 2/3/7 style cost tables. Groups are taken with respect to the
    first candidate. *)
