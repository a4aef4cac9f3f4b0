(** The decision log behind [memoria explain FILE]: run the compound
    optimizer with tracing on, pair each nest's decision with the notes
    the passes recorded while working on it, and render the result as a
    narrative or as JSON.

    One entry is produced per {!Locality_core.Compound.nest_stat} (the
    optimizer emits the decision at the same point it accounts the
    nest), so [List.length (entries t) = List.length (stats t).nests]
    always holds — the tests cross-check it. Output is deterministic:
    it is built from {!Locality_obs.Event.fingerprint}-stable data
    only, never from timestamps or domain ids. *)

type entry = {
  decision : Locality_obs.Event.decision;
  notes : Locality_obs.Event.t list;
      (** instants recorded under this nest's context, stream order *)
}

type t

val entries : t -> entry list
(** Test oracle: the decisions {!render} and {!to_json} print, as values.

    Decision entries in recording order (inner nests of an imperfect
    nest precede their parent; [Compound.stats.nests] lists the same
    nests parent-first, so only the counts coincide). *)

val stats : t -> Locality_core.Compound.stats
(** Test oracle: the compound statistics of the explained run. *)

val events : t -> Locality_obs.Event.t list
(** Test oracle: the recorded stream behind the decisions.

    The raw stream, for feeding {!Locality_obs.Chrome} or {!Profile}. *)

val run :
  ?cls:int ->
  ?interference_limit:int ->
  name:string ->
  Program.t ->
  t
(** Optimize the program under {!Locality_obs.Obs.collect}. The
    caller's tracing state is restored afterwards. *)

val render : t -> string
(** The per-nest narrative. *)

val to_json : t -> string
(** The same information as a JSON document. *)
