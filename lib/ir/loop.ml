type header = { index : string; lb : Expr.t; ub : Expr.t; step : int }
type t = { header : header; body : block }
and node = Loop of t | Stmt of Stmt.t
and block = node list

let loop ?(step = 1) index lb ub body =
  if step = 0 then invalid_arg "Loop.loop: zero step";
  { header = { index; lb; ub; step }; body }

let rec depth l =
  1
  + List.fold_left
      (fun acc node ->
        match node with Loop inner -> max acc (depth inner) | Stmt _ -> acc)
      0 l.body

let rec block_statements (b : block) : Stmt.t list =
  List.concat_map
    (function Loop l -> block_statements l.body | Stmt s -> [ s ])
    b

let statements l = block_statements l.body
let labels b = List.map (fun (s : Stmt.t) -> s.Stmt.label) (block_statements b)

let rec loops_on_spine l =
  match l.body with
  | [ Loop inner ] -> l.header :: loops_on_spine inner
  | _ -> [ l.header ]

let rec is_perfect l =
  match l.body with
  | [ Loop inner ] -> is_perfect inner
  | body -> List.for_all (function Stmt _ -> true | Loop _ -> false) body

let enclosing_headers l stmt =
  let target = stmt.Stmt.label in
  let rec go_loop l acc =
    go_block l.body (l.header :: acc)
  and go_block b acc =
    List.fold_left
      (fun found node ->
        match found with
        | Some _ -> found
        | None -> (
          match node with
          | Stmt s -> if String.equal s.Stmt.label target then Some acc else None
          | Loop inner -> go_loop inner acc))
      None b
  in
  Option.map List.rev (go_loop l [])

let inner_loops l =
  List.filter_map (function Loop inner -> Some inner | Stmt _ -> None) l.body

let body_is_all_loops l =
  l.body <> [] && List.for_all (function Loop _ -> true | Stmt _ -> false) l.body

let rec map_statements f l = { l with body = map_block f l.body }

and map_block f b =
  List.map
    (function Loop l -> Loop (map_statements f l) | Stmt s -> Stmt (f s))
    b

let fresh_name used candidate =
  let rec go k =
    let name = candidate k in
    if Hashtbl.mem used name then go (k + 1)
    else begin
      Hashtbl.replace used name ();
      name
    end
  in
  go 1

let label_statements b =
  let used = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace used l ()) (labels b);
  let label (s : Stmt.t) =
    if s.Stmt.label <> "" then s
    else { s with Stmt.label = fresh_name used (Printf.sprintf "S%d") }
  in
  map_block label b

let rec indices l =
  l.header.index
  :: List.concat_map
       (function Loop inner -> indices inner | Stmt _ -> [])
       l.body
