(** Statement-level dependence graph.

    Nodes are statement labels; edges carry the dependences between them.
    Loop distribution restricts the graph to dependences carried at a
    given level or deeper (plus loop-independent ones) and takes strongly
    connected components as the finest legal partitions (Section 4.4). *)

type t

val build : nodes:string list -> deps:Depend.t list -> t
(** Edges whose endpoints are not in [nodes] are dropped; input
    dependences are dropped (they never constrain ordering). *)

val sccs : t -> string list list
(** Strongly connected components in topological order of the condensed
    graph; statements within a component keep textual order. *)

val to_dot : ?name:string -> t -> string
(** Graphviz rendering: one node per statement, one edge per dependence,
    labelled with kind and vector. *)
