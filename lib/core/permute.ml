module An = Locality_dep.Analysis
module Dep = Locality_dep.Depend
module Direction = Locality_dep.Direction
module Obs = Locality_obs.Obs

type status = Already | Permuted | Failed_deps | Failed_bounds

type outcome = {
  nest : Loop.t;
  achieved : string list;
  memory_order : Memorder.t;
  status : status;
  inner_ok : bool;
  reversed : string list;
}

let status_to_string = function
  | Already -> "already in memory order"
  | Permuted -> "permuted"
  | Failed_deps -> "blocked by dependences"
  | Failed_bounds -> "bounds too complex"

(* Entry of a dependence's vector for loop [x]; [None] when [x] does not
   enclose both endpoints (it then imposes no constraint). *)
let entry (d : Dep.t) x =
  let rec go ls vs =
    match (ls, vs) with
    | l :: _, v :: _ when String.equal l x -> Some v
    | _ :: ls, _ :: vs -> go ls vs
    | _, _ -> None
  in
  go d.loops d.vec

let negate_loop_entries deps x =
  List.map
    (fun (d : Dep.t) ->
      {
        d with
        Dep.vec =
          List.map2
            (fun l e ->
              if String.equal l x then Direction.negate_elt e else e)
            d.loops d.vec;
      })
    deps

(* Greedy construction of a legal order with [inner] fixed innermost.
   At each outer position we take the first remaining loop (in memory-
   order preference) whose entry cannot be negative for any still-
   undecided dependence; placing a loop decides the dependences it
   definitely carries. Returns the order plus the loops reversed. *)
let greedy_place ~try_reversal ~reversible ~preference ~deps ~inner =
  let rec place remaining undecided acc reversed deps =
    match remaining with
    | [] ->
      let order = List.rev acc @ [ inner ] in
      if
        List.for_all
          (fun (d : Dep.t) ->
            Direction.lex_nonneg (Legality.reorder_vec d ~target:order))
          deps
      then Some (order, reversed)
      else None
    | _ :: _ -> (
      let placeable x deps_now =
        List.for_all
          (fun (d : Dep.t) ->
            match entry d x with
            | None -> true
            | Some e -> not (Direction.may_neg e))
          deps_now
      in
      let candidate =
        List.find_map
          (fun x ->
            if placeable x undecided then Some (x, false)
            else if
              try_reversal && reversible x
              && placeable x (negate_loop_entries undecided x)
            then Some (x, true)
            else None)
          remaining
      in
      match candidate with
      | None -> None
      | Some (x, rev) ->
        let deps = if rev then negate_loop_entries deps x else deps in
        let undecided =
          List.filter
            (fun (d : Dep.t) ->
              match entry d x with
              | Some e -> not (Direction.must_pos e)
              | None -> true)
            (if rev then negate_loop_entries undecided x else undecided)
        in
        place
          (List.filter (fun y -> not (String.equal y x)) remaining)
          undecided (x :: acc)
          (if rev then x :: reversed else reversed)
          deps)
  in
  let remaining = List.filter (fun x -> not (String.equal x inner)) preference in
  place remaining deps [] [] deps

let note_candidate order reversed verdict =
  if Obs.enabled () then
    Obs.instant "permute.candidate"
      ~args:
        ([ ("order", String.concat "," order) ]
        @ (if reversed = [] then []
           else [ ("reversed", String.concat "," reversed) ])
        @ [ ("verdict", verdict) ])

let run ?(cls = 4) ?(try_reversal = true) ?deps ?mo nest =
  let deps_all =
    match deps with
    | Some d -> d
    | None ->
      Obs.span "dep" (fun () -> An.deps_in_nest ~include_input:true nest)
  in
  let mo =
    match mo with
    | Some m -> m
    | None -> Memorder.compute ~deps:deps_all ~cls nest
  in
  let original = mo.Memorder.original in
  let unchanged status =
    {
      nest;
      achieved = original;
      memory_order = mo;
      status;
      inner_ok = Memorder.inner_is_best mo;
      reversed = [];
    }
  in
  if Memorder.is_memory_order mo then unchanged Already
  else if not (Loop.is_perfect nest) then unchanged Failed_deps
  else
    let deps = List.filter Dep.is_true_dep deps_all in
    let target = Memorder.order mo in
    (* Reversal.apply only knows how to mirror unit-step loops; offering a
       stepped loop to the greedy placer would make [apply] raise. *)
    let reversible =
      let tbl = Hashtbl.create 8 in
      let rec note (l : Loop.t) =
        Hashtbl.replace tbl l.Loop.header.Loop.index
          (l.Loop.header.Loop.step = 1);
        List.iter
          (function Loop.Stmt _ -> () | Loop.Loop inner -> note inner)
          l.Loop.body
      in
      note nest;
      fun x -> match Hashtbl.find_opt tbl x with Some b -> b | None -> false
    in
    let apply order reversed =
      let nest' =
        List.fold_left (fun n x -> Reversal.apply n ~loop:x) nest reversed
      in
      match Interchange.permute_spine nest' order with
      | Some nest'' ->
        note_candidate order reversed "applied";
        let best_cost = List.assoc (Memorder.innermost mo) mo.Memorder.ranked in
        let inner_ok =
          match List.rev order with
          | inner_achieved :: _ ->
            let got_cost = List.assoc inner_achieved mo.Memorder.ranked in
            Poly.compare_dominant got_cost best_cost <= 0
          | [] -> false
        in
        Some
          {
            nest = nest'';
            achieved = order;
            memory_order = mo;
            status = Permuted;
            inner_ok;
            reversed;
          }
      | None ->
        note_candidate order reversed "bounds too complex to rewrite";
        None
    in
    (* Candidate orders, most desirable first: memory order itself when
       legal, then the nearest legal order for each inner-loop preference.
       A candidate that is legal but whose bounds cannot be rewritten
       falls through to the next. *)
    let candidates =
      let direct =
        match Legality.permutation_violation ~deps ~target with
        | None ->
          if Obs.enabled () then
            Obs.instant "permute.memory_order"
              ~args:
                [
                  ("order", String.concat "," target); ("verdict", "legal");
                ];
          [ (target, []) ]
        | Some d ->
          if Obs.enabled () then
            Obs.instant "permute.memory_order"
              ~args:
                [
                  ("order", String.concat "," target);
                  ("verdict", "illegal");
                  ("violates", Format.asprintf "%a" Dep.pp d);
                ];
          []
      in
      let greedy =
        List.filter_map
          (fun inner ->
            greedy_place ~try_reversal ~reversible ~preference:target ~deps
              ~inner)
          (List.rev target)
      in
      let seen = Hashtbl.create 8 in
      List.filter
        (fun (order, _) ->
          let key = String.concat "," order in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        (direct @ greedy)
    in
    (* Never trade away the innermost loop: a candidate is worth applying
       only if its innermost loop costs no more than the current one, and
       it differs from the current order. *)
    let cost_of l = List.assoc l mo.Memorder.ranked in
    let current_inner_cost =
      match List.rev original with
      | inner :: _ -> cost_of inner
      | [] -> Poly.zero
    in
    let improving =
      List.filter
        (fun (order, reversed) ->
          let keep =
            order <> original
            &&
            match List.rev order with
            | inner :: _ ->
              Poly.compare_dominant (cost_of inner) current_inner_cost <= 0
            | [] -> false
          in
          if not keep then
            note_candidate order reversed
              (if order = original then "legal but identical to current order"
               else "rejected: would worsen the innermost loop");
          keep)
        candidates
    in
    if candidates = [] then unchanged Failed_deps
    else if improving = [] then
      (* The only acceptable legal order is the current one. *)
      { (unchanged Failed_deps) with inner_ok = Memorder.inner_is_best mo }
    else
      match List.find_map (fun (order, rev) -> apply order rev) improving with
      | Some o -> o
      | None -> unchanged Failed_bounds
