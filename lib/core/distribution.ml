module An = Locality_dep.Analysis
module Dep = Locality_dep.Depend
module Direction = Locality_dep.Direction
module G = Locality_dep.Graph
module Obs = Locality_obs.Obs

type result = {
  nests : Loop.t list;
  level : int;
  partitions : int;
  improved : bool;
}

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let rec drop n = function
  | [] -> []
  | _ :: rest as l -> if n <= 0 then l else drop (n - 1) rest

(* Keep the dependences that constrain splitting the body of a loop at
   [level]: those that may be loop-independent or carried at [level] or
   deeper. Dependences definitely carried by an outer loop are satisfied
   by the shared outer iterations. *)
let restricted_at ~level (deps : Dep.t list) =
  List.filter
    (fun (d : Dep.t) ->
      d.li
      || (d.zero_prefix >= level - 1
         && List.for_all Direction.may_zero (take (level - 1) d.vec)
         && List.exists Direction.may_pos (drop (level - 1) d.vec)))
    deps

(* Loops of the nest with their 1-based level and a path of body indices
   from the nest root, deepest first. *)
let loop_sites (nest : Loop.t) =
  let sites = ref [] in
  let rec go (l : Loop.t) level path =
    sites := (level, List.rev path, l) :: !sites;
    List.iteri
      (fun i node ->
        match node with
        | Loop.Loop inner -> go inner (level + 1) (i :: path)
        | Loop.Stmt _ -> ())
      l.Loop.body
  in
  go nest 1 [];
  List.sort (fun (l1, _, _) (l2, _, _) -> compare l2 l1) !sites

let partition_body ~deps ~level (l : Loop.t) =
  let body = Array.of_list l.Loop.body in
  if Array.length body < 2 then None
  else begin
    let owner = Hashtbl.create 16 in
    Array.iteri
      (fun i node ->
        List.iter
          (fun l -> Hashtbl.replace owner l i)
          (Loop.labels [ node ]))
      body;
    let relevant = restricted_at ~level deps in
    let node_name i = string_of_int i in
    let edges =
      List.filter_map
        (fun (d : Dep.t) ->
          match
            ( Hashtbl.find_opt owner d.src_label,
              Hashtbl.find_opt owner d.snk_label )
          with
          | Some i, Some j when i <> j ->
            Some { d with Dep.src_label = node_name i; snk_label = node_name j }
          | _, _ -> None)
        relevant
    in
    let g =
      G.build
        ~nodes:(List.init (Array.length body) node_name)
        ~deps:edges
    in
    let comps = G.sccs g in
    if List.length comps < 2 then None
    else
      Some
        (List.map
           (fun comp ->
             List.map (fun name -> body.(int_of_string name)) comp)
           comps)
  end

let partitions_at nest ~level =
  match List.find_opt (fun (l, _, _) -> l = level) (loop_sites nest) with
  | None -> None
  | Some (_, _, l) ->
    let deps = List.filter Dep.is_true_dep (An.deps_in_nest nest) in
    partition_body ~deps ~level l

(* Replace the loop at [path] in the nest by a sequence of nodes. *)
let rec splice (l : Loop.t) path replacement =
  match path with
  | [] -> replacement
  | i :: rest ->
    let body =
      List.concat
        (List.mapi
           (fun k node ->
             if k <> i then [ node ]
             else
               match node with
               | Loop.Loop inner -> splice inner rest replacement
               | Loop.Stmt _ -> [ node ])
           l.Loop.body)
    in
    [ Loop.Loop { l with Loop.body } ]

let run ?(cls = 4) ?(try_reversal = true) (nest : Loop.t) =
  let deps = List.filter Dep.is_true_dep (An.deps_in_nest nest) in
  let sites =
    List.filter (fun (_, _, l) -> List.length l.Loop.body >= 2) (loop_sites nest)
  in
  let note ~level verdict =
    if Obs.enabled () then
      Obs.instant "distribution.attempt"
        ~args:[ ("level", string_of_int level); ("verdict", verdict) ]
  in
  let attempt (level, path, l) =
    match partition_body ~deps ~level l with
    | None ->
      note ~level "no split: the body is one dependence cycle";
      None
    | Some parts ->
      (* Each partition becomes its own copy of the distributed loop;
         permute the copies that can reach memory order. *)
      let improved = ref false in
      let copies =
        List.map
          (fun part ->
            let copy = { l with Loop.body = part } in
            let o = Permute.run ~cls ~try_reversal copy in
            (match o.Permute.status with
            | Permute.Permuted when o.Permute.inner_ok -> improved := true
            | Permute.Permuted | Permute.Already | Permute.Failed_deps
            | Permute.Failed_bounds ->
              ());
            Loop.Loop o.Permute.nest)
          parts
      in
      if not !improved then begin
        note ~level
          (Printf.sprintf
             "split into %d partitions, but none became permutable"
             (List.length parts));
        None
      end
      else begin
        (* [splice] rebuilds only loop nodes on this path, but a
           malformed body shape must degrade to "no distribution", not
           kill the whole pass. *)
        let rec as_loops acc = function
          | [] -> Some (List.rev acc)
          | Loop.Loop l :: rest -> as_loops (l :: acc) rest
          | Loop.Stmt _ :: _ -> None
        in
        match as_loops [] (splice nest path copies) with
        | None ->
          note ~level "rejected: splice produced a bare statement";
          None
        | Some nests ->
          note ~level
            (Printf.sprintf "distributed into %d partitions"
               (List.length parts));
          Some { nests; level; partitions = List.length parts; improved = true }
      end
  in
  List.find_map attempt sites
