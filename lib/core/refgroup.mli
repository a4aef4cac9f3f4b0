(** Reference groups (Section 3.3).

    Two references belong to the same group with respect to a loop [l]
    when they exhibit group-temporal reuse (a loop-independent dependence,
    or one carried by [l] with a small constant distance and zeros
    elsewhere) or group-spatial reuse (same array, first subscripts
    differing by less than the cache line size, other subscripts equal). *)

type member = { stmt : Stmt.t; ref_ : Reference.t }

type group = {
  members : member list;  (** distinct references, textual order *)
  rep : member;  (** representative: a deepest-nested member *)
  rep_depth : int;  (** number of loops of the nest enclosing [rep] *)
}

val compute :
  nest:Loop.t -> deps:Locality_dep.Depend.t list -> loop:string -> cls:int ->
  group list
(** Partition the array references of [nest] with respect to candidate
    inner loop [loop]. [deps] must include input dependences (as produced
    by [Analysis.deps_in_nest ~include_input:true]); [cls] is the cache
    line size in array elements. Scalar references do not participate. *)

type pre
(** The loop-independent part of grouping (members, spatial unions,
    dependence edges), computed once per nest and shared across
    candidate loops. *)

val prepare :
  nest:Loop.t -> deps:Locality_dep.Depend.t list -> cls:int -> pre

val groups : pre -> loop:string -> group list
(** [groups (prepare ~nest ~deps ~cls) ~loop] = [compute ~nest ~deps
    ~loop ~cls], without repeating the loop-independent work. *)
