type t = {
  name : string;
  params : (string * int) list;
  decls : Decl.t list;
  body : Loop.block;
}

let make ~name ?(params = []) decls body =
  { name; params; decls; body = Loop.label_statements body }

let decl t name =
  List.find_opt (fun d -> String.equal d.Decl.name name) t.decls

let top_loops t =
  List.filter_map
    (function Loop.Loop l -> Some l | Loop.Stmt _ -> None)
    t.body

let map_body f t = { t with body = f t.body }

let positional_label t =
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i (s : Stmt.t) ->
      if not (Hashtbl.mem index s.Stmt.label) then
        Hashtbl.add index s.Stmt.label i)
    (Loop.block_statements t.body);
  fun l ->
    match Hashtbl.find_opt index l with
    | Some i -> "#" ^ string_of_int i
    | None -> l

let validate t =
  let ( let* ) = Result.bind in
  let check_ref (r : Reference.t) =
    match decl t r.array with
    | None -> Error (Printf.sprintf "undeclared array %s" r.array)
    | Some d ->
      if Decl.rank d <> Reference.rank r then
        Error
          (Printf.sprintf "rank mismatch for %s: declared %d, used %d"
             r.array (Decl.rank d) (Reference.rank r))
      else Ok ()
  in
  let labels = Hashtbl.create 64 in
  let rec check_block seen b =
    List.fold_left
      (fun acc node ->
        let* () = acc in
        match node with
        | Loop.Stmt s ->
          (* Dependence analysis and transformation bookkeeping key
             statements by label, so a duplicate silently corrupts both. *)
          if Hashtbl.mem labels s.Stmt.label then
            Error
              (Printf.sprintf "duplicate statement label %s" s.Stmt.label)
          else begin
            Hashtbl.replace labels s.Stmt.label ();
            List.fold_left
              (fun acc (r, _) ->
                let* () = acc in
                check_ref r)
              (Ok ()) (Stmt.refs s)
          end
        | Loop.Loop l ->
          let idx = l.header.index in
          if List.mem idx seen then
            Error (Printf.sprintf "shadowed loop index %s" idx)
          else if l.header.step = 0 then
            Error (Printf.sprintf "zero step in loop %s" idx)
          else check_block (idx :: seen) l.body)
      (Ok ()) b
  in
  check_block [] t.body
