module An = Locality_dep.Analysis
module Dep = Locality_dep.Depend

let unroll_and_jam ?deps ?(avoid = []) (nest : Loop.t) ~loop ~factor =
  if factor < 2 then None
  else if not (Loop.is_perfect nest) then None
  else
    let spine = Loop.loops_on_spine nest in
    let names = List.map (fun (h : Loop.header) -> h.Loop.index) spine in
    match List.rev names with
    | [] | [ _ ] -> None
    | innermost :: _ ->
      if String.equal innermost loop || not (List.mem loop names) then None
      else begin
        let target : Loop.header =
          List.find (fun (h : Loop.header) -> h.Loop.index = loop) spine
        in
        if target.Loop.step <> 1 then None
        else if
          (* Inner loops below the unrolled one must not depend on it. *)
          List.exists
            (fun (h : Loop.header) ->
              (not (String.equal h.Loop.index loop))
              && (List.mem loop (Expr.vars h.Loop.lb)
                 || List.mem loop (Expr.vars h.Loop.ub)))
            spine
        then None
        else begin
          (* Conservative legality: the unrolled iterations interleave at
             the innermost level, so moving [loop] innermost must be
             legal. *)
          let deps =
            match deps with
            | Some d -> d
            | None -> List.filter Dep.is_true_dep (An.deps_in_nest nest)
          in
          let jammed_order =
            List.filter (fun x -> not (String.equal x loop)) names @ [ loop ]
          in
          if not (Legality.permutation_legal ~deps ~target:jammed_order) then
            None
          else begin
            let rec innermost_body (l : Loop.t) =
              match l.Loop.body with
              | [ Loop.Loop inner ] -> innermost_body inner
              | b -> b
            in
            let body = innermost_body nest in
            if
              List.exists
                (function Loop.Loop _ -> true | Loop.Stmt _ -> false)
                body
            then None
            else begin
            (* Label freshening must stay collision-free even when the
               nest already carries suffixed labels from earlier
               transforms (a prior unroll, distribution copies): probe
               each candidate against every label in scope. *)
            let used = Hashtbl.create 64 in
            List.iter
              (fun l -> Hashtbl.replace used l ())
              (avoid @ Loop.labels nest.Loop.body);
            let fresh base =
              Loop.fresh_name used (function
                | 1 -> base
                | i -> Printf.sprintf "%s_%d" base i)
            in
            let copy k =
              List.map
                (function
                  | Loop.Stmt s ->
                    let s =
                      Stmt.subst_index s loop (Expr.Add (Var loop, Int k))
                    in
                    Loop.Stmt
                      {
                        s with
                        Stmt.label =
                          fresh (Printf.sprintf "%s_u%d" s.Stmt.label k);
                      }
                  | Loop.Loop _ as node -> node (* excluded by the guard *))
                body
            in
            let jammed_body = List.concat (List.init factor copy) in
            (* Main nest: [loop] steps by [factor] over the full groups;
               remainder nest covers the tail. *)
            let lb = target.Loop.lb and ub = target.Loop.ub in
            let trip =
              Expr.Add (Sub (ub, lb), Int 1)
            in
            let main_ub =
              (* lb + factor * (trip / factor) - 1 *)
              Affine.normalize
                (Expr.Sub
                   ( Expr.Add (lb, Mul (Int factor, Div (trip, Int factor))),
                     Int 1 ))
            in
            let remainder_lb = Affine.normalize (Expr.Add (main_ub, Int 1)) in
            let rebuild header_map inner_body =
              let rec go = function
                | [] -> inner_body
                | (h : Loop.header) :: rest ->
                  [ Loop.Loop { Loop.header = header_map h; body = go rest } ]
              in
              go spine
            in
            let main =
              rebuild
                (fun h ->
                  if String.equal h.Loop.index loop then
                    { h with Loop.ub = main_ub; step = factor }
                  else h)
                jammed_body
            in
            let remainder =
              let relabel =
                List.map (function
                  | Loop.Stmt s ->
                    Loop.Stmt { s with Stmt.label = fresh (s.Stmt.label ^ "_r") }
                  | Loop.Loop _ as node -> node (* excluded by the guard *))
              in
              rebuild
                (fun h ->
                  if String.equal h.Loop.index loop then
                    { h with Loop.lb = remainder_lb }
                  else h)
                (relabel body)
            in
            match (main, remainder) with
            | [ Loop.Loop m ], [ Loop.Loop r ] ->
              if String.equal (List.hd names) loop then
                (* Outermost: the two versions become sibling nests. *)
                Some [ Loop.Loop m; Loop.Loop r ]
              else begin
                (* Interior: both versions share the outer prefix, so
                   splice the remainder's sub-nest as a sibling of the
                   main sub-nest inside the common parent. *)
                let rec splice (l : Loop.t) (r : Loop.t) =
                  match (l.Loop.body, r.Loop.body) with
                  | [ Loop.Loop lm ], [ Loop.Loop lr ]
                    when not (String.equal lm.Loop.header.Loop.index loop) ->
                    { l with Loop.body = [ Loop.Loop (splice lm lr) ] }
                  | [ Loop.Loop lm ], [ Loop.Loop lr ] ->
                    { l with Loop.body = [ Loop.Loop lm; Loop.Loop lr ] }
                  | _, _ -> l
                in
                Some [ Loop.Loop (splice m r) ]
              end
            | _, _ -> None
            end
          end
        end
      end

type balance = {
  factor : int;
  scalars : int;
  mem_per_orig_iter : float;
  flops_per_orig_iter : float;
}

let rec count_flops (e : Stmt.rexpr) =
  match e with
  | Stmt.Const _ | Stmt.Scalar _ | Stmt.Iexpr _ | Stmt.Load _ -> 0
  | Stmt.Unop (_, a) -> 1 + count_flops a
  | Stmt.Binop (_, a, b) -> 1 + count_flops a + count_flops b

(* Memory references and floating-point operations per sweep of the
   innermost loop body. Identical references count once: the copies
   unroll-and-jam makes of an unchanged reference (A(I,K) used by every
   jammed statement) share one register load after CSE — that sharing
   is the transformation's benefit. *)
let count_inner_body (nest : Loop.t) =
  let rec inner (l : Loop.t) =
    match Loop.inner_loops l with
    | [ l' ] -> inner l'
    | _ ->
      List.filter_map
        (function Loop.Stmt s -> Some s | Loop.Loop _ -> None)
        l.Loop.body
  in
  let stmts = inner nest in
  let distinct = Hashtbl.create 16 in
  List.iter
    (fun (s : Stmt.t) ->
      List.iter
        (fun ((r : Reference.t), acc) ->
          let kind = match acc with `Read -> "r" | `Write -> "w" in
          Hashtbl.replace distinct (kind ^ Reference.to_string r) ())
        (Stmt.refs s))
    stmts;
  let flops =
    List.fold_left (fun f (s : Stmt.t) -> f + count_flops s.Stmt.rhs) 0 stmts
  in
  (Hashtbl.length distinct, flops)

let balance_of ~factor (nest : Loop.t) =
  let sr = Scalar_replacement.apply nest in
  let mem, flops = count_inner_body sr.Scalar_replacement.nest in
  let fl = float_of_int factor in
  {
    factor;
    scalars = sr.Scalar_replacement.replaced;
    mem_per_orig_iter = float_of_int mem /. fl;
    flops_per_orig_iter = float_of_int flops /. fl;
  }

let map_main (block : Loop.block) ~loop ~factor ~f =
  let found = ref false in
  let rec go_node (node : Loop.node) =
    match node with
    | Loop.Stmt _ -> node
    | Loop.Loop l ->
      if
        (not !found)
        && l.Loop.header.Loop.index = loop
        && l.Loop.header.Loop.step = factor
      then begin
        found := true;
        Loop.Loop (f l)
      end
      else Loop.Loop { l with Loop.body = List.map go_node l.Loop.body }
  in
  let block' = List.map go_node block in
  if !found then Some block' else None

let find_main (block : Loop.block) ~loop ~factor =
  let out = ref None in
  ignore
    (map_main block ~loop ~factor ~f:(fun l ->
         out := Some l;
         l));
  !out

let choose_factor ?(max_regs = 16) ?(candidates = [ 2; 4; 8 ]) (nest : Loop.t)
    ~loop =
  let base = balance_of ~factor:1 nest in
  (* Jamming's legality does not depend on the factor: one analysis
     serves every candidate. *)
  let deps = List.filter Dep.is_true_dep (An.deps_in_nest nest) in
  let options =
    base
    :: List.filter_map
         (fun u ->
           if u < 2 then None
           else
             match unroll_and_jam ~deps nest ~loop ~factor:u with
             | Some block ->
               Option.map
                 (balance_of ~factor:u)
                 (find_main block ~loop ~factor:u)
             | None -> None)
         (List.sort_uniq compare candidates)
  in
  let admissible = List.filter (fun b -> b.scalars <= max_regs) options in
  let better a b =
    (* fewer memory accesses per original iteration wins; ties go to the
       smaller factor (less code growth) *)
    if a.mem_per_orig_iter < b.mem_per_orig_iter -. 1e-9 then a
    else if b.mem_per_orig_iter < a.mem_per_orig_iter -. 1e-9 then b
    else if a.factor <= b.factor then a
    else b
  in
  match admissible with
  | [] -> (base, options)
  | first :: rest -> (List.fold_left better first rest, options)
