module An = Locality_dep.Analysis
module Dep = Locality_dep.Depend
module Direction = Locality_dep.Direction

let strip_mine ?(suffix = "_T") (nest : Loop.t) ~loop ~tile =
  let control_name i = i ^ suffix in
  if tile <= 0 then invalid_arg "Tiling.strip_mine: tile <= 0";
  let found = ref false in
  let rec go (l : Loop.t) : Loop.t =
    if String.equal l.Loop.header.Loop.index loop then begin
      let h = l.Loop.header in
      if h.Loop.step <> 1 then invalid_arg "Tiling.strip_mine: non-unit step";
      found := true;
      let tname = control_name loop in
      let element =
        {
          Loop.header =
            {
              Loop.index = loop;
              lb = Expr.Var tname;
              ub = Expr.Min (Expr.Add (Var tname, Int (tile - 1)), h.Loop.ub);
              step = 1;
            };
          body = l.Loop.body;
        }
      in
      {
        Loop.header = { h with Loop.index = tname; step = tile };
        body = [ Loop.Loop element ];
      }
    end
    else
      {
        l with
        Loop.body =
          List.map
            (function
              | Loop.Stmt s -> Loop.Stmt s
              | Loop.Loop inner -> Loop.Loop (go inner))
            l.Loop.body;
      }
  in
  let result = go nest in
  if not !found then invalid_arg "Tiling.strip_mine: loop not found";
  result

let legal_band ~deps ~band =
  List.for_all
    (fun (d : Dep.t) ->
      List.for_all2
        (fun l e ->
          if List.mem l band then not (Direction.may_neg e) else true)
        d.Dep.loops d.Dep.vec)
    deps

let tile ?deps ?(check = true) ?(suffix = "_T") ?(sizes = 16) (nest : Loop.t)
    ~band =
  let control_name i = i ^ suffix in
  if not (Loop.is_perfect nest) then None
  else
    let spine = Loop.loops_on_spine nest in
    let names = List.map (fun (h : Loop.header) -> h.Loop.index) spine in
    if
      (not (List.for_all (fun b -> List.mem b names) band))
      || band = []
      || List.exists
           (fun (h : Loop.header) ->
             List.mem h.Loop.index band && h.Loop.step <> 1)
           spine
    then None
    else
      (* The band must be a contiguous run of spine loops, so hoisting
         the control loops to its top crosses no non-band loop. *)
      let contiguous =
        let in_band = List.map (fun n -> List.mem n band) names in
        let rec spans seen = function
          | [] -> true
          | true :: rest -> if seen = `After then false else spans `In rest
          | false :: rest ->
            spans (if seen = `In then `After else seen) rest
        in
        spans `Before in_band
      in
      let legal () =
        let deps =
          match deps with
          | Some d -> d
          | None -> List.filter Dep.is_true_dep (An.deps_in_nest nest)
        in
        legal_band ~deps ~band
      in
      if (not contiguous) || (check && not (legal ())) then None
      else begin
        (* Strip-mine each band loop in place, then hoist the control
           loops: the final spine is

             [non-band outer prefix] [controls, band order] [elements and
             the rest in original order].

           Rebuilding from the original spine keeps this simple. *)
        let stripped =
          List.fold_left
            (fun n b -> strip_mine ~suffix n ~loop:b ~tile:sizes)
            nest band
        in
        let new_spine = Loop.loops_on_spine stripped in
        let controls, elements =
          List.partition
            (fun (h : Loop.header) ->
              List.exists (fun b -> String.equal h.Loop.index (control_name b)) band)
            new_spine
        in
        (* Innermost body of the fully stripped nest. *)
        let rec innermost_body (l : Loop.t) =
          match l.Loop.body with
          | [ Loop.Loop inner ] -> innermost_body inner
          | b -> b
        in
        let body = innermost_body stripped in
        let rec rebuild = function
          | [] -> body
          | h :: rest -> [ Loop.Loop { Loop.header = h; body = rebuild rest } ]
        in
        (* Place the controls at the top of the band: non-band loops that
           precede the band keep their outer positions. The hoist is
           well-scoped only if the control bounds (the original band
           bounds) reference nothing deeper than the prefix — this admits
           a second level of tiling, whose inner band bounds reference
           the outer controls. *)
        let prefix, rest =
          let rec split acc = function
            | [] -> (List.rev acc, [])
            | (h : Loop.header) :: tl ->
              if List.mem h.Loop.index band then (List.rev acc, h :: tl)
              else split (h :: acc) tl
          in
          split [] elements
        in
        let prefix_names =
          List.map (fun (h : Loop.header) -> h.Loop.index) prefix
        in
        let all_spine =
          List.map (fun (h : Loop.header) -> h.Loop.index) new_spine
        in
        let well_scoped (h : Loop.header) =
          List.for_all
            (fun v -> (not (List.mem v all_spine)) || List.mem v prefix_names)
            (Expr.vars h.Loop.lb @ Expr.vars h.Loop.ub)
        in
        if not (List.for_all well_scoped controls) then None
        else
          match rebuild (prefix @ controls @ rest) with
          | [ Loop.Loop l ] -> Some l
          | _ -> None
      end

let recommend ?deps ?(cls = 4) (nest : Loop.t) =
  let deps =
    match deps with
    | Some d -> d
    | None -> An.deps_in_nest ~include_input:true nest
  in
  let spine = Loop.loops_on_spine nest in
  match List.rev spine with
  | [] | [ _ ] -> []
  | innermost :: _ ->
    let candidates =
      List.filter
        (fun (h : Loop.header) ->
          not (String.equal h.Loop.index innermost.Loop.index))
        spine
    in
    List.filter_map
      (fun (h : Loop.header) ->
        let groups =
          Refgroup.compute ~nest ~deps ~loop:h.Loop.index ~cls
        in
        let has_invariant_or_unit =
          List.exists
            (fun (g : Refgroup.group) ->
              match
                Loopcost.classify ~cls ~candidate:h g.Refgroup.rep.Refgroup.ref_
              with
              | Loopcost.Invariant ->
                (* Only long-term reuse counts: the reference must vary
                   with some other loop (else it is a scalar-like access
                   already captured). *)
                List.exists
                  (fun (h' : Loop.header) ->
                    (not (String.equal h'.Loop.index h.Loop.index))
                    && Loopcost.classify ~cls ~candidate:h'
                         g.Refgroup.rep.Refgroup.ref_
                       <> Loopcost.Invariant)
                  spine
              | Loopcost.Consecutive -> true
              | Loopcost.None_ -> false)
            groups
        in
        if has_invariant_or_unit then Some h.Loop.index else None)
      candidates
