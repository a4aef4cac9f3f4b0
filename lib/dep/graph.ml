module M = Map.Make (String)

type t = {
  order : string list;  (** node labels, textual order *)
  out_edges : Depend.t list M.t;  (** src -> deps *)
}

let build ~nodes ~deps =
  let node_set = List.fold_left (fun s n -> M.add n () s) M.empty nodes in
  let out_edges =
    List.fold_left
      (fun m (d : Depend.t) ->
        if
          Depend.is_true_dep d
          && M.mem d.src_label node_set
          && M.mem d.snk_label node_set
        then
          M.update d.src_label
            (function None -> Some [ d ] | Some l -> Some (d :: l))
            m
        else m)
      M.empty deps
  in
  { order = nodes; out_edges }

let edges g =
  M.fold
    (fun src deps acc ->
      List.fold_left (fun acc d -> (src, d.Depend.snk_label, d) :: acc) acc deps)
    g.out_edges []

let succs g n =
  match M.find_opt n g.out_edges with
  | None -> []
  | Some deps ->
    List.sort_uniq String.compare (List.map (fun d -> d.Depend.snk_label) deps)

let to_dot ?(name = "deps") g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "  %S;\n" n))
    g.order;
  List.iter
    (fun (src, snk, (d : Depend.t)) ->
      let kind =
        match d.Depend.kind with
        | Depend.Flow -> "flow"
        | Depend.Anti -> "anti"
        | Depend.Output -> "output"
        | Depend.Input -> "input"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %S -> %S [label=\"%s %s\"];\n" src snk kind
           (Direction.to_string d.Depend.vec)))
    (edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Tarjan's algorithm; SCCs come out in reverse topological order. *)
let sccs g =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs g v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) g.order;
  let rank =
    List.mapi (fun i n -> (n, i)) g.order |> List.to_seq |> Hashtbl.of_seq
  in
  let textual l =
    List.sort
      (fun a b -> compare (Hashtbl.find rank a) (Hashtbl.find rank b))
      l
  in
  let comps = List.map textual !components in
  (* Tarjan's emission order is a reverse-reachability order, but
     unrelated components come out in reverse visit order. Re-sort the
     condensation with Kahn's algorithm, breaking ties by textual rank so
     independent components keep program order. *)
  let comp_of = Hashtbl.create 16 in
  List.iteri
    (fun ci comp -> List.iter (fun n -> Hashtbl.replace comp_of n ci) comp)
    comps;
  let n = List.length comps in
  let carr = Array.of_list comps in
  let succs_c = Array.make n [] and indeg = Array.make n 0 in
  List.iter
    (fun (src, snk, _) ->
      let a = Hashtbl.find comp_of src and b = Hashtbl.find comp_of snk in
      if a <> b && not (List.mem b succs_c.(a)) then begin
        succs_c.(a) <- b :: succs_c.(a);
        indeg.(b) <- indeg.(b) + 1
      end)
    (edges g);
  let comp_rank ci = Hashtbl.find rank (List.hd carr.(ci)) in
  let out = ref [] in
  let ready = ref [] in
  Array.iteri (fun ci d -> if d = 0 then ready := ci :: !ready) indeg;
  let rec drain () =
    match !ready with
    | [] -> ()
    | _ ->
      let best =
        List.fold_left
          (fun best ci -> if comp_rank ci < comp_rank best then ci else best)
          (List.hd !ready) (List.tl !ready)
      in
      ready := List.filter (fun ci -> ci <> best) !ready;
      out := best :: !out;
      List.iter
        (fun b ->
          indeg.(b) <- indeg.(b) - 1;
          if indeg.(b) = 0 then ready := b :: !ready)
        succs_c.(best);
      drain ()
  in
  drain ();
  List.rev_map (fun ci -> carr.(ci)) !out
