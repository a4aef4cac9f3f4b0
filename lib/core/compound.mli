(** The compound transformation algorithm (Section 4.5, Figure 6).

    For each nest: permute into memory order when legal; otherwise fuse
    all inner nests to enable permutation; otherwise distribute into the
    finest partitions that let some partition reach memory order, then
    re-fuse the pieces. Finally, fuse adjacent optimized nests when it
    improves temporal locality. *)

type nest_stat = {
  nest_depth : int;
  loops : int;  (** loops in the nest *)
  orig_mem_order : bool;
  final_mem_order : bool;
  orig_inner_ok : bool;
  final_inner_ok : bool;
  permuted : bool;  (** the nest (or a distributed piece) was reordered *)
  fused_enabling : bool;  (** inner nests were fused to enable permutation *)
  distributed : bool;
  new_nests : int;  (** nests resulting from distribution (0 if none) *)
  reversed : int;  (** loops reversed *)
  cost_orig : Poly.t;  (** LoopCost at the original innermost loop *)
  cost_final : Poly.t;  (** LoopCost at the final innermost loop *)
  cost_ideal : Poly.t;  (** LoopCost at the memory-order innermost loop *)
  labels : string list;  (** statement labels of the nest, for attribution *)
}

type stats = {
  nests : nest_stat list;  (** one per nest of depth >= 2, program order *)
  fusion_candidates : int;
  fusions_applied : int;
  distributions : int;
  distribution_results : int;
}

val run_program :
  ?cls:int ->
  ?try_reversal:bool ->
  ?interference_limit:int ->
  Program.t ->
  Program.t * stats
(** [interference_limit] is forwarded to the cross-nest fusion pass (see
    {!Fusion.fuse_block}); off by default, as in the paper. The run is one
    {!Locality_dep.Depend.with_memo} scope: its steps share their
    dependence pair tests. *)
