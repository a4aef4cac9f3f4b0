module An = Locality_dep.Analysis

type class_stats = { groups : int; refs : int }

type t = {
  inv : class_stats;
  unit_ : class_stats;
  none : class_stats;
  group_spatial : int;
}

let empty_class = { groups = 0; refs = 0 }
let empty = { inv = empty_class; unit_ = empty_class; none = empty_class; group_spatial = 0 }

let add_class a b = { groups = a.groups + b.groups; refs = a.refs + b.refs }

let add a b =
  {
    inv = add_class a.inv b.inv;
    unit_ = add_class a.unit_ b.unit_;
    none = add_class a.none b.none;
    group_spatial = a.group_spatial + b.group_spatial;
  }

let total_groups t = t.inv.groups + t.unit_.groups + t.none.groups
let total_refs t = t.inv.refs + t.unit_.refs + t.none.refs

(* Textual occurrences of a reference within its statement. *)
let occurrences (m : Refgroup.member) =
  List.length
    (List.filter
       (fun (r, _) -> Reference.equal r m.Refgroup.ref_)
       (Stmt.refs m.Refgroup.stmt))

(* The innermost enclosing loop of the group's representative. *)
let actual_inner nest (m : Refgroup.member) =
  match Option.map List.rev (Loop.enclosing_headers nest m.Refgroup.stmt) with
  | Some (h :: _) -> Some h
  | Some [] | None -> None

let spatial_pair (a : Reference.t) (b : Reference.t) =
  (not (Reference.equal a b))
  && a.Reference.array = b.Reference.array
  && List.length a.Reference.subs = List.length b.Reference.subs
  && List.length a.Reference.subs > 0
  && List.for_all2 Expr.equal (List.tl a.Reference.subs) (List.tl b.Reference.subs)
  && not (Expr.equal (List.hd a.Reference.subs) (List.hd b.Reference.subs))

let of_nest ?(which = `Actual) ~cls nest =
  let deps = An.deps_in_nest ~include_input:true nest in
  let inner_pref =
    match which with
    | `Actual -> None
    | `Ideal ->
      let mo = Memorder.compute ~deps ~cls nest in
      Some (Memorder.innermost mo)
  in
  let groups =
    let loop =
      match inner_pref with
      | Some l -> l
      | None -> (
        (* group w.r.t. the deepest actual inner loop *)
        match List.rev (Loop.indices nest) with
        | l :: _ -> l
        | [] -> nest.Loop.header.Loop.index)
    in
    Refgroup.compute ~nest ~deps ~loop ~cls
  in
  let header_named name =
    let rec find (l : Loop.t) =
      if String.equal l.Loop.header.Loop.index name then Some l.Loop.header
      else
        List.fold_left
          (fun acc node ->
            match (acc, node) with
            | Some _, _ -> acc
            | None, Loop.Loop inner -> find inner
            | None, Loop.Stmt _ -> None)
          None l.Loop.body
    in
    find nest
  in
  List.fold_left
    (fun acc (g : Refgroup.group) ->
      let refs = List.fold_left (fun n m -> n + occurrences m) 0 g.Refgroup.members in
      let candidate =
        match which with
        | `Actual -> actual_inner nest g.Refgroup.rep
        | `Ideal -> (
          match inner_pref with
          | Some name -> header_named name
          | None -> None)
      in
      let cls_of =
        match candidate with
        | None -> Loopcost.Invariant
        | Some h -> Loopcost.classify ~cls ~candidate:h g.Refgroup.rep.Refgroup.ref_
      in
      let cstat = { groups = 1; refs } in
      let acc =
        match cls_of with
        | Loopcost.Invariant -> { acc with inv = add_class acc.inv cstat }
        | Loopcost.Consecutive -> { acc with unit_ = add_class acc.unit_ cstat }
        | Loopcost.None_ -> { acc with none = add_class acc.none cstat }
      in
      let has_spatial =
        List.exists
          (fun (a : Refgroup.member) ->
            List.exists
              (fun (b : Refgroup.member) ->
                spatial_pair a.Refgroup.ref_ b.Refgroup.ref_)
              g.Refgroup.members)
          g.Refgroup.members
      in
      if has_spatial then { acc with group_spatial = acc.group_spatial + 1 }
      else acc)
    empty groups

let of_program ?which ~cls (p : Program.t) =
  List.fold_left
    (fun acc l -> add acc (of_nest ?which ~cls l))
    empty (Program.top_loops p)

let pct c t =
  let total = total_groups t in
  if total = 0 then 0.0 else 100.0 *. float_of_int c.groups /. float_of_int total

let refs_per_group c =
  if c.groups = 0 then 0.0 else float_of_int c.refs /. float_of_int c.groups

let avg_refs_per_group t =
  let total = total_groups t in
  if total = 0 then 0.0
  else float_of_int (total_refs t) /. float_of_int total
