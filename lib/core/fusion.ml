module An = Locality_dep.Analysis
module Dep = Locality_dep.Depend
module Obs = Locality_obs.Obs

let header_compatible (a : Loop.header) (b : Loop.header) =
  let eq_expr x y =
    match (Affine.of_expr x, Affine.of_expr y) with
    | Some ax, Some ay -> Affine.equal ax ay
    | _, _ -> Expr.equal x y
  in
  a.Loop.step = b.Loop.step && eq_expr a.Loop.lb b.Loop.lb
  && eq_expr a.Loop.ub b.Loop.ub

let compatible_level l1 l2 =
  (* Headers must be perfectly nested up to the compared level. *)
  let rec go (l1 : Loop.t) (l2 : Loop.t) =
    if not (header_compatible l1.Loop.header l2.Loop.header) then 0
    else
      match (l1.Loop.body, l2.Loop.body) with
      | [ Loop.Loop i1 ], [ Loop.Loop i2 ] -> 1 + go i1 i2
      | _, _ -> 1
  in
  go l1 l2

(* Substitute an index variable in every statement and loop bound of a
   subtree, renaming any loop that binds it. *)
let rec subst_index_everywhere (l : Loop.t) ~from ~into : Loop.t =
  let header = l.Loop.header in
  let header =
    {
      header with
      Loop.index =
        (if String.equal header.Loop.index from then into else header.Loop.index);
      lb = Expr.subst header.Loop.lb from (Expr.Var into);
      ub = Expr.subst header.Loop.ub from (Expr.Var into);
    }
  in
  {
    Loop.header;
    body =
      List.map
        (function
          | Loop.Stmt s -> Loop.Stmt (Stmt.rename_index s from into)
          | Loop.Loop inner -> Loop.Loop (subst_index_everywhere inner ~from ~into))
        l.Loop.body;
  }

let take n l = List.filteri (fun i _ -> i < n) l

(* Rename l2's spine indices on levels 1..depth to l1's, without
   capturing: spine indices go through fresh temporaries, and any other
   loop of l2 whose index collides with a target is freshened first. *)
let align_indices (l1 : Loop.t) (l2 : Loop.t) ~depth =
  let spine_names l =
    List.map (fun (h : Loop.header) -> h.Loop.index) (Loop.loops_on_spine l)
  in
  let froms = take depth (spine_names l2) in
  let targets = take depth (spine_names l1) in
  if froms = targets then l2
  else begin
    (* Fresh names dodge every variable either nest binds or mentions. *)
    let used = Hashtbl.create 16 in
    let mark x = Hashtbl.replace used x () in
    let rec mention (l : Loop.t) =
      let h = l.Loop.header in
      List.iter mark ((h.Loop.index :: Expr.vars h.Loop.lb) @ Expr.vars h.Loop.ub);
      List.iter
        (function
          | Loop.Loop inner -> mention inner
          | Loop.Stmt s -> List.iter mark (Stmt.vars s))
        l.Loop.body
    in
    mention l1;
    mention l2;
    let fresh base = Loop.fresh_name used (Printf.sprintf "%s_f%d" base) in
    (* Step 1: spine indices to temporaries. *)
    let temps = List.map fresh froms in
    let l2 =
      List.fold_left2
        (fun l from into -> subst_index_everywhere l ~from ~into)
        l2 froms temps
    in
    (* Step 2: freshen any remaining loop index that collides with a
       target name. *)
    let l2 =
      List.fold_left
        (fun l target ->
          if List.mem target (Loop.indices l) then
            subst_index_everywhere l ~from:target ~into:(fresh target)
          else l)
        l2 targets
    in
    (* Step 3: temporaries to the final target names. *)
    List.fold_left2
      (fun l from into -> subst_index_everywhere l ~from ~into)
      l2 temps targets
  end

let fuse_to_depth l1 l2 ~depth =
  if depth < 1 then invalid_arg "Fusion.fuse_to_depth: depth < 1";
  let l2 = align_indices l1 l2 ~depth in
  let rec merge (a : Loop.t) (b : Loop.t) d =
    if d = 1 then { a with Loop.body = a.Loop.body @ b.Loop.body }
    else
      match (a.Loop.body, b.Loop.body) with
      | [ Loop.Loop ia ], [ Loop.Loop ib ] ->
        { a with Loop.body = [ Loop.Loop (merge ia ib (d - 1)) ] }
      | _, _ -> { a with Loop.body = a.Loop.body @ b.Loop.body }
  in
  merge l1 l2 depth

let legal ~outer l1 l2 ~depth =
  let fused = fuse_to_depth l1 l2 ~depth in
  (* Renaming indices keeps labels: the second nest's are its own. *)
  let from2 = Loop.labels l2.Loop.body in
  let in1 = Loop.labels l1.Loop.body in
  let deps = An.deps ~outer [ Loop.Loop fused ] in
  let nouter = List.length outer in
  (* A dependence from the second nest's statements back to the first's
     reverses the original order — unless it is definitely carried by a
     shared outer loop, in which case the outer iterations keep it
     satisfied. *)
  not
    (List.exists
       (fun (d : Dep.t) ->
         Dep.is_true_dep d
         && List.mem d.src_label from2
         && List.mem d.snk_label in1
         && d.zero_prefix >= nouter
         && List.for_all Locality_dep.Direction.may_zero (take nouter d.vec))
       deps)

let best_cost ?(cls = 4) ~outer nest =
  (* Cheapest achievable LoopCost of the nest, in its outer context. *)
  ignore outer;
  let costs = Loopcost.all_costs ~nest ~cls () in
  match costs with
  | [] -> Poly.zero
  | (_, c) :: rest ->
    List.fold_left
      (fun acc (_, c) -> if Poly.compare_dominant c acc < 0 then c else acc)
      c rest

let weight ?(cls = 4) ~outer l1 l2 ~depth =
  let fused = fuse_to_depth l1 l2 ~depth in
  let unfused =
    Poly.add (best_cost ~cls ~outer l1) (best_cost ~cls ~outer l2)
  in
  Poly.sub unfused (best_cost ~cls ~outer fused)

let rec fuse_all_inner ?(cls = 4) (l : Loop.t) =
  let is_stmt = function Loop.Stmt _ -> true | Loop.Loop _ -> false in
  if List.for_all is_stmt l.Loop.body then Some l
  else if not (Loop.body_is_all_loops l) then None
  else
    match Loop.inner_loops l with
    | [] -> None
    | [ single ] -> (
      match fuse_all_inner ~cls single with
      | Some single' -> Some { l with Loop.body = [ Loop.Loop single' ] }
      | None -> None)
    | first :: rest ->
      let fused =
        List.fold_left
          (fun acc next ->
            match acc with
            | None -> None
            | Some acc ->
              let depth = compatible_level acc next in
              if depth < 1 then None
              else if
                (* Fuse as deeply as the headers allow. *)
                legal ~outer:[ l.Loop.header ] acc next ~depth
              then Some (fuse_to_depth acc next ~depth)
              else None)
          (Some first) rest
      in
      (match fused with
      | None -> None
      | Some fused -> (
        match fuse_all_inner ~cls fused with
        | Some fused' -> Some { l with Loop.body = [ Loop.Loop fused' ] }
        | None -> None))

type block_result = {
  block : Loop.block;
  candidates : int;
  fused : int;
}

(* A cluster is a fused group of originally-adjacent nests. *)
type cluster = { ids : int list; nest : Loop.t }

let fuse_run ?(cls = 4) ?interference_limit ~outer (nests : Loop.t list) =
  let n = List.length nests in
  if n < 2 then
    ( List.map (fun l -> Loop.Loop l) nests,
      0,
      0 )
  else begin
    (* Dependence edges between the original nests, in their own block. *)
    let block = List.map (fun l -> Loop.Loop l) nests in
    let deps =
      List.filter Dep.is_true_dep (An.deps ~outer block)
    in
    let owner = Hashtbl.create 16 in
    List.iteri
      (fun i l ->
        List.iter
          (fun s -> Hashtbl.replace owner s.Stmt.label i)
          (Loop.statements l))
      nests;
    let edges = Hashtbl.create 16 in
    List.iter
      (fun (d : Dep.t) ->
        match
          (Hashtbl.find_opt owner d.src_label, Hashtbl.find_opt owner d.snk_label)
        with
        | Some i, Some j when i <> j -> Hashtbl.replace edges (i, j) ()
        | _, _ -> ())
      deps;
    let has_edge i j = Hashtbl.mem edges (i, j) in
    let clusters =
      ref (List.mapi (fun i l -> { ids = [ i ]; nest = l }) nests)
    in
    (* Path between clusters through other clusters (transitive). *)
    let cluster_edge a b =
      List.exists (fun i -> List.exists (fun j -> has_edge i j) b.ids) a.ids
    in
    let path_between a b =
      let cs = !clusters in
      let rec reach visited frontier =
        if List.exists (fun c -> c == b) frontier then true
        else
          let next =
            List.concat_map
              (fun c ->
                List.filter
                  (fun c' ->
                    (not (List.memq c' visited)) && cluster_edge c c')
                  cs)
              frontier
          in
          let next = List.filter (fun c -> not (List.memq c frontier)) next in
          if next = [] then false else reach (visited @ frontier) next
      in
      reach [] [ a ]
    in
    (* Compatibility classes at the deepest level first (Figure 4). *)
    let fusions = ref 0 in
    (* The paper's candidate count: nests adjacent to a compatible nest
       (Section 5.2, "adjacent nests, where at least one pair of nests
       were compatible"). *)
    let candidates =
      let arr = Array.of_list nests in
      let marked = Array.make (Array.length arr) false in
      for i = 0 to Array.length arr - 2 do
        if compatible_level arr.(i) arr.(i + 1) >= 1 then begin
          marked.(i) <- true;
          marked.(i + 1) <- true
        end
      done;
      Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 marked
    in
    let head_label l =
      match Loop.statements l with s :: _ -> s.Stmt.label | [] -> "?"
    in
    (* Cluster nests are physically stable between sweeps (a fusion only
       replaces the two nests it merges), so best costs are computed once
       per nest and the trial-fusion weight once per surviving pair —
       without this, every sweep restart re-evaluates every pair. *)
    let bc_cache = ref [] in
    let best_cost_memo nest =
      match List.assq_opt nest !bc_cache with
      | Some c -> c
      | None ->
        let c = best_cost ~cls ~outer nest in
        bc_cache := (nest, c) :: !bc_cache;
        c
    in
    (* Nests sharing no array can never fuse profitably: reference
       groups cannot merge across the pair (group-spatial and
       group-temporal reuse both require a common array), so the fused
       nest's best LoopCost is at least the sum of the parts and the
       weight is <= 0. [try_pair] rejects such pairs without weighing
       them, whether Obs is recording or not, which saves the
       dependence analysis and cost evaluation of the fused nest; their
       fusion.candidate notes carry weight 0. *)
    let arrays_cache = ref [] in
    let arrays_of nest =
      match List.assq_opt nest !arrays_cache with
      | Some s -> s
      | None ->
        let s =
          List.sort_uniq String.compare
            (List.concat_map
               (fun s -> List.map (fun (r, _) -> r.Reference.array) (Stmt.refs s))
               (Loop.statements nest))
        in
        arrays_cache := (nest, s) :: !arrays_cache;
        s
    in
    let no_shared_array a b =
      not
        (List.exists
           (fun x -> List.exists (String.equal x) (arrays_of b))
           (arrays_of a))
    in
    let w_cache = ref [] in
    let weight_memo a b ~depth =
      match
        List.find_opt (fun ((x, y, d), _) -> x == a && y == b && d = depth)
          !w_cache
      with
      | Some (_, w) -> w
      | None ->
        let fused = fuse_to_depth a b ~depth in
        let w =
          Poly.sub
            (Poly.add (best_cost_memo a) (best_cost_memo b))
            (best_cost ~cls ~outer fused)
        in
        w_cache := ((a, b, depth), w) :: !w_cache;
        w
    in
    let note a b ~depth ~weight:w verdict =
      if Obs.enabled () then
        Obs.instant "fusion.candidate"
          ~args:
            [
              ("first", head_label a.nest);
              ("second", head_label b.nest);
              ("depth", string_of_int depth);
              ("weight", Poly.to_string w);
              ("verdict", verdict);
            ]
    in
    let try_pair a b =
      (* a textually before b *)
      let depth = compatible_level a.nest b.nest in
      if depth >= 1 then begin
        (* Nests that share no array gain no locality from fusion: the
           pair is rejected without weighing it, recorded or not. *)
        let shared = not (no_shared_array a.nest b.nest) in
        let w =
          if shared then weight_memo a.nest b.nest ~depth else Poly.zero
        in
        let profitable_raw = shared && Poly.compare_dominant w Poly.zero > 0 in
        let within_limit =
          match interference_limit with
          | None -> true
          | Some limit ->
            (not profitable_raw)
            || List.length
                 (List.sort_uniq String.compare
                    (arrays_of a.nest @ arrays_of b.nest))
               <= limit
        in
        let profitable = profitable_raw && within_limit in
        (* Fusing pulls b's statements up to a's position, so any
           intervening cluster that b depends on forbids the move. *)
        let intervening =
          List.filter
            (fun c ->
              (not (c == a)) && (not (c == b))
              && List.hd c.ids > List.hd a.ids
              && List.hd c.ids < List.hd b.ids)
            !clusters
        in
        let blocked = List.exists (fun m -> path_between m b) intervening in
        let is_legal =
          profitable && (not blocked) && legal ~outer a.nest b.nest ~depth
        in
        note a b ~depth ~weight:w
          (if not shared then "rejected: no shared array"
           else if not profitable_raw then "rejected: no locality benefit"
           else if not within_limit then
             "rejected: over the interference limit"
           else if blocked then
             "rejected: an intervening nest carries a dependence path"
           else if not is_legal then
             "rejected: fusing would reverse a dependence"
           else "fused");
        if is_legal then begin
          let fused = fuse_to_depth a.nest b.nest ~depth in
          clusters :=
            List.filter_map
              (fun c ->
                if c == a then Some { ids = a.ids @ b.ids; nest = fused }
                else if c == b then None
                else Some c)
              !clusters;
          incr fusions;
          true
        end
        else false
      end
      else false
    in
    (* Greedy sweep: repeatedly try to fuse any pair (textual order),
       deepest compatibility first, until a fixed point. *)
    let rec sweep () =
      let cs = !clusters in
      let pairs = ref [] in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if j > i then
                let d = compatible_level a.nest b.nest in
                if d >= 1 then pairs := (d, a, b) :: !pairs)
            cs)
        cs;
      let sorted =
        List.sort (fun (d1, _, _) (d2, _, _) -> compare d2 d1) !pairs
      in
      let progressed =
        List.exists
          (fun (_, a, b) ->
            (* Clusters may be stale after a fusion; re-check membership. *)
            List.memq a !clusters && List.memq b !clusters && try_pair a b)
          sorted
      in
      if progressed then sweep ()
    in
    sweep ();
    ( List.map (fun c -> Loop.Loop c.nest) !clusters,
      candidates,
      !fusions )
  end

let fuse_block ?(cls = 4) ?interference_limit ~outer (b : Loop.block) =
  (* Split the block into maximal runs of loops separated by statements;
     fusion never moves a nest across a plain statement. *)
  let nodes = ref [] and candidates = ref 0 and fused = ref 0 in
  let flush run =
    match List.rev run with
    | [] -> ()
    | nests ->
      let ns, c, f = fuse_run ~cls ?interference_limit ~outer nests in
      nodes := !nodes @ ns;
      candidates := !candidates + c;
      fused := !fused + f
  in
  let run =
    List.fold_left
      (fun run node ->
        match node with
        | Loop.Loop l -> l :: run
        | Loop.Stmt s ->
          flush run;
          nodes := !nodes @ [ Loop.Stmt s ];
          [])
      [] b
  in
  flush run;
  { block = !nodes; candidates = !candidates; fused = !fused }
