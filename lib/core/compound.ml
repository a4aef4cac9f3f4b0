module Obs = Locality_obs.Obs
module Event = Locality_obs.Event
module An = Locality_dep.Analysis

type nest_stat = {
  nest_depth : int;
  loops : int;
  orig_mem_order : bool;
  final_mem_order : bool;
  orig_inner_ok : bool;
  final_inner_ok : bool;
  permuted : bool;
  fused_enabling : bool;
  distributed : bool;
  new_nests : int;
  reversed : int;
  cost_orig : Poly.t;
  cost_final : Poly.t;
  cost_ideal : Poly.t;
  labels : string list;
}

type stats = {
  nests : nest_stat list;
  fusion_candidates : int;
  fusions_applied : int;
  distributions : int;
  distribution_results : int;
}

let empty_stats =
  {
    nests = [];
    fusion_candidates = 0;
    fusions_applied = 0;
    distributions = 0;
    distribution_results = 0;
  }

let merge_stats a b =
  {
    nests = a.nests @ b.nests;
    fusion_candidates = a.fusion_candidates + b.fusion_candidates;
    fusions_applied = a.fusions_applied + b.fusions_applied;
    distributions = a.distributions + b.distributions;
    distribution_results = a.distribution_results + b.distribution_results;
  }

(* The innermost loop actually enclosing the deepest statement. *)
let inner_name (nest : Loop.t) =
  let deepest =
    List.fold_left
      (fun best s ->
        match Loop.enclosing_headers nest s with
        | Some hs ->
          let d = List.length hs in
          let _, bd = best in
          if d > bd then
            (match List.rev hs with
            | h :: _ -> (h.Loop.index, d)
            | [] -> best)
          else best
        | None -> best)
      (nest.Loop.header.Loop.index, 1)
      (Loop.statements nest)
  in
  fst deepest

let spine_order (n : Loop.t) =
  List.map (fun (h : Loop.header) -> h.Loop.index) (Loop.loops_on_spine n)

(* Decision context key for a nest: position in its block plus loop
   order and statement labels, nested under the enclosing nest's key.
   [memoria explain] groups each nest's notes under this key. *)
let nest_ctx ~pos (l : Loop.t) =
  let own =
    Printf.sprintf "nest%d:%s[%s]" pos
      (String.concat "," (spine_order l))
      (String.concat "," (Loop.labels l.Loop.body))
  in
  match Obs.current_ctx () with "" -> own | parent -> parent ^ "/" ^ own

let rec optimize_nest ~cls ~try_reversal ?interference_limit ~outer ~pos
    (l : Loop.t) : Loop.t list * stats =
  if Obs.enabled () then
    Obs.with_ctx (nest_ctx ~pos l) (fun () ->
        do_optimize_nest ~cls ~try_reversal ?interference_limit ~outer l)
  else do_optimize_nest ~cls ~try_reversal ?interference_limit ~outer l

and do_optimize_nest ~cls ~try_reversal ?interference_limit ~outer
    (l : Loop.t) : Loop.t list * stats =
  let deps =
    Obs.span "dep" (fun () -> An.deps_in_nest ~include_input:true l)
  in
  let mo = Memorder.compute ~deps ~cls l in
  let orig_mem = Memorder.is_memory_order mo in
  let orig_inner = Memorder.inner_is_best mo in
  let cost_orig = Memorder.cost_of mo (inner_name l) in
  let cost_ideal = Memorder.cost_of mo (Memorder.innermost mo) in
  let finish ?(permuted = false) ?(fused_enabling = false)
      ?(distributed = false) ?(new_nests = 0) ?(reversed = 0) ~action ~reason
      ~extra nests =
    (* One Memorder per result nest, shared by the final_* flags and the
       final cost; the unchanged nest reuses the ranking from above. *)
    let mos =
      List.map (fun n -> if n == l then mo else Memorder.compute ~cls n) nests
    in
    let final_mem = List.for_all Memorder.is_memory_order mos in
    let final_inner = List.for_all Memorder.inner_is_best mos in
    let stat =
      {
        nest_depth = Loop.depth l;
        loops = List.length (Loop.indices l);
        orig_mem_order = orig_mem;
        final_mem_order = final_mem;
        orig_inner_ok = orig_inner;
        final_inner_ok = final_inner;
        permuted;
        fused_enabling;
        distributed;
        new_nests;
        reversed;
        cost_orig;
        cost_final =
          List.fold_left2
            (fun acc n m -> Poly.add acc (Memorder.cost_of m (inner_name n)))
            Poly.zero nests mos;
        cost_ideal;
        labels = Loop.labels l.Loop.body;
      }
    in
    (* One decision record per nest_stat: what the compound algorithm
       chose for this nest and why, with the LoopCost evidence. *)
    if Obs.enabled () then
      Obs.decision
        {
          Event.nest = Obs.current_ctx ();
          labels = stat.labels;
          depth = stat.nest_depth;
          action;
          reason;
          original_order = mo.Memorder.original;
          achieved_orders = List.map spine_order nests;
          memory_order = Memorder.order mo;
          costs =
            List.map (fun (x, c) -> (x, Poly.to_string c)) mo.Memorder.ranked;
        };
    (nests, merge_stats { empty_stats with nests = [ stat ] } extra)
  in
  if orig_mem && orig_inner then
    finish ~action:Event.No_change
      ~reason:"already in memory order with the best innermost loop"
      ~extra:empty_stats [ l ]
  else
    let po = Permute.run ~cls ~try_reversal ~deps ~mo l in
    if
      po.Permute.inner_ok
      && (po.Permute.status = Permute.Permuted
         || po.Permute.status = Permute.Already)
    then
      let action =
        if po.Permute.reversed <> [] then Event.Reverse else Event.Permute
      in
      let reason =
        if po.Permute.achieved = Memorder.order mo then
          "permuted into memory order"
        else "permuted into the nearest legal order (best innermost loop)"
      in
      let reason =
        if po.Permute.reversed = [] then reason
        else
          Printf.sprintf "%s, enabled by reversing %s" reason
            (String.concat ", " po.Permute.reversed)
      in
      finish
        ~permuted:(po.Permute.status = Permute.Permuted)
        ~reversed:(List.length po.Permute.reversed)
        ~action ~reason ~extra:empty_stats [ po.Permute.nest ]
    else
      (* Try fusing all inner nests to expose a perfect nest. *)
      let fusion_attempt =
        if Loop.is_perfect l then None
        else
          match Fusion.fuse_all_inner ~cls l with
          | None ->
            if Obs.enabled () then
              Obs.instant "fusion.enabling"
                ~args:
                  [
                    ( "verdict",
                      "not fusable (incompatible headers, illegal, or body \
                       mixes statements and loops)" );
                  ];
            None
          | Some fused ->
            let po2 = Permute.run ~cls ~try_reversal fused in
            if
              po2.Permute.inner_ok
              && (po2.Permute.status = Permute.Permuted
                 || po2.Permute.status = Permute.Already)
            then begin
              if Obs.enabled () then
                Obs.instant "fusion.enabling"
                  ~args:[ ("verdict", "fused into a perfect nest") ];
              Some po2
            end
            else begin
              if Obs.enabled () then
                Obs.instant "fusion.enabling"
                  ~args:
                    [ ("verdict", "fused, but permutation is still blocked") ];
              None
            end
      in
      match fusion_attempt with
      | Some po2 ->
        finish
          ~permuted:(po2.Permute.status = Permute.Permuted)
          ~fused_enabling:true
          ~reversed:(List.length po2.Permute.reversed)
          ~action:Event.Fuse
          ~reason:
            (Printf.sprintf
               "fused inner nests into a perfect nest, then permuted to %s"
               (String.concat "," po2.Permute.achieved))
          ~extra:empty_stats [ po2.Permute.nest ]
      | None -> (
        (* Try distribution; re-fuse the pieces afterwards. *)
        match Distribution.run ~cls ~try_reversal l with
        | Some res ->
          let refused, fstats =
            refuse_pieces ~cls ~try_reversal ?interference_limit ~outer
              res.Distribution.nests
          in
          finish ~distributed:true ~new_nests:res.Distribution.partitions
            ~permuted:true ~action:Event.Distribute
            ~reason:
              (Printf.sprintf
                 "distributed at level %d into %d partitions so a partition \
                  could be permuted into memory order"
                 res.Distribution.level res.Distribution.partitions)
            ~extra:
              {
                fstats with
                distributions = 1;
                distribution_results = res.Distribution.partitions;
              }
            refused
        | None ->
          (* Keep the closest permutation found. A perfect nest has no
             internal structure left to reorganise; an imperfect one
             (e.g. under a sequential time loop) may contain nests that
             can be optimized independently. *)
          let base = po.Permute.nest in
          let action, reason =
            if po.Permute.status = Permute.Permuted then
              ( (if po.Permute.reversed <> [] then Event.Reverse
                 else Event.Permute),
                "partially permuted; memory order itself is "
                ^ Permute.status_to_string po.Permute.status )
            else
              ( Event.No_change,
                "no improvement possible: "
                ^ Permute.status_to_string po.Permute.status )
          in
          if Loop.is_perfect base then
            finish
              ~permuted:(po.Permute.status = Permute.Permuted)
              ~reversed:(List.length po.Permute.reversed)
              ~action ~reason ~extra:empty_stats [ base ]
          else
            let body', inner_stats =
              run_block ~cls ~try_reversal ?interference_limit
                ~outer:(outer @ [ base.Loop.header ])
                base.Loop.body
            in
            finish
              ~permuted:(po.Permute.status = Permute.Permuted)
              ~reversed:(List.length po.Permute.reversed)
              ~action
              ~reason:(reason ^ "; inner nests optimized independently")
              ~extra:inner_stats
              [ { base with Loop.body = body' } ])

(* Fuse adjacent nests produced by distribution to recover temporal
   locality (the Fuse(l) step of Figure 6). *)
and refuse_pieces ~cls ~try_reversal ?interference_limit ~outer nests =
  ignore try_reversal;
  match nests with
  | [] | [ _ ] -> (nests, empty_stats)
  | _ :: _ :: _ ->
    let fr =
      Fusion.fuse_block ~cls ?interference_limit ~outer
        (List.map (fun n -> Loop.Loop n) nests)
    in
    let nests' =
      List.filter_map
        (function Loop.Loop l -> Some l | Loop.Stmt _ -> None)
        fr.Fusion.block
    in
    ( nests',
      {
        empty_stats with
        fusion_candidates = fr.Fusion.candidates;
        fusions_applied = fr.Fusion.fused;
      } )

(* Cross-nest fusion can make inner loops newly adjacent inside the
   merged nest (two fused outer loops each carrying an inner nest); fuse
   those downward too, so a single pass of the driver reaches the same
   fixpoint a second pass would. No permutation is revisited: the merged
   nest's memory order was already decided. *)
and fuse_downward ~cls ?interference_limit ~outer (l : Loop.t) =
  let inner_outer = outer @ [ l.Loop.header ] in
  let fr = Fusion.fuse_block ~cls ?interference_limit ~outer:inner_outer l.Loop.body in
  let body', candidates, fused =
    List.fold_left
      (fun (acc, c, f) node ->
        match node with
        | Loop.Stmt _ -> (acc @ [ node ], c, f)
        | Loop.Loop sub ->
          let sub', c', f' =
            fuse_downward ~cls ?interference_limit ~outer:inner_outer sub
          in
          (acc @ [ Loop.Loop sub' ], c + c', f + f'))
      ([], fr.Fusion.candidates, fr.Fusion.fused)
      fr.Fusion.block
  in
  ({ l with Loop.body = body' }, candidates, fused)

and run_block ?(cls = 4) ?(try_reversal = true) ?interference_limit ~outer
    (b : Loop.block) =
  (* Optimize each nest in place. *)
  let optimized, stats, _ =
    List.fold_left
      (fun (acc, stats, pos) node ->
        match node with
        | Loop.Stmt s -> (acc @ [ Loop.Stmt s ], stats, pos + 1)
        | Loop.Loop l when Loop.depth l >= 2 ->
          let nests, s =
            optimize_nest ~cls ~try_reversal ?interference_limit ~outer ~pos l
          in
          ( acc @ List.map (fun n -> Loop.Loop n) nests,
            merge_stats stats s,
            pos + 1 )
        | Loop.Loop l -> (acc @ [ Loop.Loop l ], stats, pos + 1))
      ([], empty_stats, 0) b
  in
  (* Final pass: fuse adjacent optimized nests when profitable, then
     complete any fusions the merges exposed deeper inside. *)
  let fr = Fusion.fuse_block ~cls ?interference_limit ~outer optimized in
  let block, extra_candidates, extra_fused =
    if fr.Fusion.fused = 0 then (fr.Fusion.block, 0, 0)
    else
      List.fold_left
        (fun (acc, c, f) node ->
          match node with
          | Loop.Stmt _ -> (acc @ [ node ], c, f)
          | Loop.Loop l ->
            let l', c', f' = fuse_downward ~cls ?interference_limit ~outer l in
            (acc @ [ Loop.Loop l' ], c + c', f + f'))
        ([], 0, 0) fr.Fusion.block
  in
  ( block,
    merge_stats stats
      {
        empty_stats with
        fusion_candidates = fr.Fusion.candidates + extra_candidates;
        fusions_applied = fr.Fusion.fused + extra_fused;
      } )

let run_program ?(cls = 4) ?(try_reversal = true) ?interference_limit
    (p : Program.t) =
  Obs.span "compound" (fun () ->
      let body, stats =
        Locality_dep.Depend.with_memo (fun () ->
            run_block ~cls ~try_reversal ?interference_limit ~outer:[]
              p.Program.body)
      in
      if Obs.enabled () then begin
        Obs.add_span_arg "nests" (string_of_int (List.length stats.nests));
        Obs.add_span_arg "fusions" (string_of_int stats.fusions_applied);
        Obs.add_span_arg "distributions" (string_of_int stats.distributions)
      end;
      (Program.map_body (fun _ -> body) p, stats))
