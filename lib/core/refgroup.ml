module Dep = Locality_dep.Depend
module Direction = Locality_dep.Direction

type member = { stmt : Stmt.t; ref_ : Reference.t }

type group = {
  members : member list;
  rep : member;
  rep_depth : int;
}

(* Structural identity of a member: statement label plus the reference
   term. [Reference.t] is a pure tree, so polymorphic equality/hashing
   are sound and cheaper than stringifying every reference. *)
let member_key m = (m.stmt.Stmt.label, m.ref_)

(* Distinct array references of the nest, textual order; duplicated
   occurrences of one reference in a statement access the same line. *)
let collect_members nest =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun (r, _) ->
          let m = { stmt = s; ref_ = r } in
          let key = member_key m in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            out := m :: !out
          end)
        (Stmt.refs s))
    (Loop.statements nest);
  List.rev !out

(* Union-find over member indices. *)
let find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let root = go i in
  let rec compress i =
    if parent.(i) <> root then begin
      let next = parent.(i) in
      parent.(i) <- root;
      compress next
    end
  in
  compress i;
  root

let union parent i j =
  let ri = find parent i and rj = find parent j in
  if ri <> rj then parent.(max ri rj) <- min ri rj

(* The loop-independent part of grouping: members, spatial unions, and
   the dependence edges with their per-loop temporal verdicts. Preparing
   once and asking for [groups] per candidate loop avoids re-collecting
   members and redoing the O(n^2) spatial pass for every candidate. *)
type pre = {
  pre_members : member array;
  pre_spatial_parent : int array;  (* union-find after spatial unions *)
  (* (i, j, always, loops where the carried distance is small) *)
  pre_edges : (int * int * bool * string list) list;
  pre_depths : int array;  (* loops of the nest enclosing each member *)
}

let prepare ~nest ~deps ~cls =
  let members = Array.of_list (collect_members nest) in
  let n = Array.length members in
  let parent = Array.init n (fun i -> i) in
  let index_of = Hashtbl.create 16 in
  Array.iteri (fun i m -> Hashtbl.replace index_of (member_key m) i) members;
  let lookup label r = Hashtbl.find_opt index_of (label, r) in
  (* Condition 1 candidates: dependence edges, with the set of loops at
     which the carried distance is a small constant resolved up front. *)
  let edges =
    List.filter_map
      (fun (d : Dep.t) ->
        match (lookup d.src_label d.src_ref, lookup d.snk_label d.snk_ref) with
        | Some i, Some j when i <> j ->
          let small_loops =
            List.filteri
              (fun k _ -> Direction.small_constant_at d.vec (k + 1))
              d.loops
          in
          Some (i, j, d.li_always, small_loops)
        | _, _ -> None)
      deps
  in
  (* Condition 2: group-spatial reuse is loop-independent. The affine
     view of each first subscript is computed once, not per pair. *)
  let firsts =
    Array.map
      (fun m ->
        match m.ref_.Reference.subs with
        | [] -> None
        | s :: _ -> Affine.of_expr s)
      members
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let close =
        match (firsts.(i), firsts.(j)) with
        | Some a1, Some a2 -> (
          match Affine.is_const (Affine.sub a1 a2) with
          | Some d -> abs d <= cls
          | None -> false)
        | _, _ -> false
      in
      if
        close
        &&
        let r1 = members.(i).ref_ and r2 = members.(j).ref_ in
        String.equal r1.Reference.array r2.Reference.array
        && List.length r1.Reference.subs = List.length r2.Reference.subs
        && List.for_all2 Expr.equal (List.tl r1.Reference.subs)
             (List.tl r2.Reference.subs)
      then union parent i j
    done
  done;
  let depth_cache = Hashtbl.create 16 in
  let depths =
    Array.map
      (fun m ->
        let label = m.stmt.Stmt.label in
        match Hashtbl.find_opt depth_cache label with
        | Some d -> d
        | None ->
          let d =
            match Loop.enclosing_headers nest m.stmt with
            | Some hs -> List.length hs
            | None -> 0
          in
          Hashtbl.replace depth_cache label d;
          d)
      members
  in
  {
    pre_members = members;
    pre_spatial_parent = parent;
    pre_edges = edges;
    pre_depths = depths;
  }

let groups pre ~loop =
  let members = pre.pre_members in
  let parent = Array.copy pre.pre_spatial_parent in
  List.iter
    (fun (i, j, always, small_loops) ->
      if always || List.exists (String.equal loop) small_loops then
        union parent i j)
    pre.pre_edges;
  (* Assemble groups in order of first member. *)
  let buckets = Hashtbl.create 16 in
  let order = ref [] in
  Array.iteri
    (fun i m ->
      let root = find parent i in
      match Hashtbl.find_opt buckets root with
      | None ->
        Hashtbl.add buckets root (ref [ (i, m) ]);
        order := root :: !order
      | Some l -> l := (i, m) :: !l)
    members;
  let depth_of i = pre.pre_depths.(i) in
  List.rev_map
    (fun root ->
      let members = List.rev !(Hashtbl.find buckets root) in
      let ri, rep =
        List.fold_left
          (fun ((bi, _) as best) ((i, _) as m) ->
            if depth_of i > depth_of bi then m else best)
          (List.hd members) (List.tl members)
      in
      {
        members = List.map snd members;
        rep;
        rep_depth = depth_of ri;
      })
    !order

let compute ~nest ~deps ~loop ~cls = groups (prepare ~nest ~deps ~cls) ~loop
