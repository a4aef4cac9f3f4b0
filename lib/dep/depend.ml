module Obs = Locality_obs.Obs

type kind = Flow | Anti | Output | Input

type t = {
  src_label : string;
  snk_label : string;
  src_ref : Reference.t;
  snk_ref : Reference.t;
  kind : kind;
  vec : Direction.t;
  loops : string list;
  li : bool;
  li_always : bool;
  zero_prefix : int;
}

let is_true_dep d =
  match d.kind with Flow | Anti | Output -> true | Input -> false

let kind_of a b =
  match (a, b) with
  | `Write, `Read -> Flow
  | `Read, `Write -> Anti
  | `Write, `Write -> Output
  | `Read, `Read -> Input

let const_bounds (h : Loop.header) =
  match (Expr.simplify h.lb, Expr.simplify h.ub) with
  | Expr.Int lo, Expr.Int hi when h.step = 1 -> Some (lo, hi)
  | Expr.Int hi, Expr.Int lo when h.step = -1 -> Some (lo, hi)
  | _, _ -> None

let const_trip h =
  match const_bounds h with
  | Some (lo, hi) -> Some (max 0 (hi - lo + 1))
  | None -> None

let prime x = x ^ "'"

(* Rename the sink's non-common loop indices apart so that same-named
   sibling loops (e.g. two adjacent K loops) do not collide. Common
   indices keep their names: in [constraint_vector] the same name denotes
   source and sink iterations of the same loop, and in the
   zero-compatibility check the shared name encodes the hypothesis that
   they are equal. *)
let rename_snk_tail ~ncommon (snk_path : Loop.header list) (r : Reference.t) =
  let tail = List.filteri (fun i _ -> i >= ncommon) snk_path in
  let renames = List.map (fun (h : Loop.header) -> h.Loop.index) tail in
  let rename_expr e =
    List.fold_left (fun e x -> Expr.subst e x (Expr.Var (prime x))) e renames
  in
  let r' = { r with Reference.subs = List.map rename_expr r.Reference.subs } in
  let tail' =
    List.map
      (fun (h : Loop.header) ->
        {
          Loop.index = prime h.Loop.index;
          lb = rename_expr h.Loop.lb;
          ub = rename_expr h.Loop.ub;
          step = h.Loop.step;
        })
      tail
  in
  (r', tail')

let solve_constraints ~(common : Loop.header list) (src_ref : Reference.t)
    (snk_ref : Reference.t) : Direction.t option =
  let names = List.map (fun (h : Loop.header) -> h.Loop.index) common in
  let find x = List.find_opt (fun (h : Loop.header) -> h.Loop.index = x) common in
  let trip_of x = Option.bind (find x) const_trip in
  let bounds_of x = Option.bind (find x) const_bounds in
  let step_of x =
    match find x with Some h -> h.Loop.step | None -> 1
  in
  let module M = Map.Make (String) in
  let init = List.fold_left (fun m x -> M.add x Direction.Any m) M.empty names in
  let rec fold_dims m = function
    | [] -> Some m
    | (s1, s2) :: rest -> (
      match
        Subscript.test ~step_of ~trip_of ~bounds_of ~common:names ~src:s1
          ~snk:s2
      with
      | Subscript.Independent -> None
      | Subscript.Constraints cs ->
        let merged =
          List.fold_left
            (fun acc (x, e) ->
              Option.bind acc (fun m ->
                  match Direction.meet (M.find x m) e with
                  | None -> None
                  | Some e' -> Some (M.add x e' m)))
            (Some m) cs
        in
        (match merged with None -> None | Some m -> fold_dims m rest))
  in
  if List.length src_ref.Reference.subs <> List.length snk_ref.Reference.subs
  then None
  else
    match
      fold_dims init (List.combine src_ref.Reference.subs snk_ref.Reference.subs)
    with
    | None -> None
    | Some m -> Some (List.map (fun x -> M.find x m) names)

(* Can the two references touch the same location when the first [p]
   common loops are at equal iterations? The sink's loop indices beyond
   [p] are renamed apart (with their bounds), the first [p] share the
   source's names — the equality hypothesis — and each dimension of
   [src_sub - snk_sub] must then admit a zero within the loop bounds. *)
let zero_compatible_at ~src_path ~snk_path ~p ~(src_ref : Reference.t)
    (snk_ref : Reference.t) =
  let snk_ref_p, snk_tail_p = rename_snk_tail ~ncommon:p snk_path snk_ref in
  let order = Prove.of_headers (src_path @ snk_tail_p) in
  let dim_impossible (s1, s2) =
    match (Affine.of_expr s1, Affine.of_expr s2) with
    | Some a1, Some a2 -> Prove.nonzero order (Affine.sub a1 a2)
    | _, _ -> false
  in
  not
    (List.exists dim_impossible
       (List.combine src_ref.Reference.subs snk_ref_p.Reference.subs))

(* Largest prefix of common loops that can be held at equal iterations
   while the references still overlap; [None] when they cannot overlap at
   all (independence). Monotone: a longer equal prefix only constrains
   more. *)
let max_zero_prefix ~src_path ~snk_path ~ncommon ~src_ref snk_ref =
  let rec search p =
    if p < 0 then None
    else if zero_compatible_at ~src_path ~snk_path ~p ~src_ref snk_ref then
      Some p
    else search (p - 1)
  in
  search ncommon

(* Can the dependence distance at common loop [slot] have the given sign
   (or be zero)? Sink iteration variables are renamed apart with their
   loop bounds carried along: slots already known zero share the source's
   name (the equality is a fact), the tested slot gets a range shifted
   strictly above or below the source's, and every other undetermined
   slot ranges freely over its own bounds. Dimensions that pin a renamed
   variable to a source expression are then checked for consistency with
   that variable's range — which is where coupled triangular subscripts
   (e.g. Gaussian elimination's [RX(I,J)] with [J < K]) are decided. *)
let slot_sign_possible ~src_path ~snk_path ~ncommon ~(v : Direction.t) ~slot
    ~(hyp : [ `Pos | `Neg | `Zero ]) ~(src_ref : Reference.t)
    (snk_ref : Reference.t) =
  let common = List.filteri (fun i _ -> i < ncommon) src_path in
  match List.nth_opt common slot with
  | Some (h : Loop.header) when h.Loop.step <> 1 && hyp <> `Zero -> true
  | _ -> begin
    (* Build the rename map and the renamed sink headers, outermost
       first so bounds can be rewritten with the map built so far. *)
    let bang x = x ^ "!" in
    let renames = ref [] in
    let rename_expr e =
      List.fold_left
        (fun e (from_, into) -> Expr.subst e from_ (Expr.Var into))
        e !renames
    in
    let renamed_headers = ref [] in
    (* Affine facts that must admit >= 0; provably negative means the
       hypothesis is infeasible. Collected as the sink headers are
       rebuilt: the sign hypothesis on the tested slot, and — for shared
       slots — the sink-side header range of the shared variable (the
       sink iteration must itself be in bounds, which couples shared
       variables to renamed ones, e.g. J' <= I'-1). *)
    let constraints = ref [] in
    let affine_of e = Affine.of_expr e in
    let add_ge a b =
      (* record the fact a - b >= 0 *)
      match (affine_of a, affine_of b) with
      | Some aa, Some bb -> constraints := Affine.sub aa bb :: !constraints
      | _, _ -> ()
    in
    let add_range_constraints x lb ub =
      add_ge (Expr.Var x) lb;
      add_ge ub (Expr.Var x)
    in
    (* A header's (lb, ub) are the start and end values; for a negative
       step the start is the *largest* value, so the value range is
       [ub, lb]. Every range fact below must use (lo, hi), not (lb, ub):
       getting this backwards proved reversed-loop iterations out of
       bounds and silently dropped their dependences. *)
    let value_range (h : Loop.header) =
      if h.Loop.step >= 0 then (h.Loop.lb, h.Loop.ub)
      else (h.Loop.ub, h.Loop.lb)
    in
    List.iteri
      (fun p ((h : Loop.header), entry) ->
        let x = h.Loop.index in
        let rename_with_own_bounds () =
          let x2 = bang x in
          renamed_headers :=
            !renamed_headers
            @ [
                {
                  Loop.index = x2;
                  lb = rename_expr h.Loop.lb;
                  ub = rename_expr h.Loop.ub;
                  step = h.Loop.step;
                };
              ];
          renames := (x, x2) :: !renames;
          x2
        in
        let share () =
          (* The shared variable must satisfy the sink-side header range
             too (bounds may reference renamed variables). *)
          let lo, hi = value_range h in
          add_range_constraints x (rename_expr lo) (rename_expr hi)
        in
        if p = slot then begin
          (* The sign hypothesis is encoded in the renamed header itself
             so the prover can combine it with the other facts: [x!]
             ranges strictly above (below) the source's [x], clipped by
             the loop's own bound on the other side (the remaining own
             bound is implied). *)
          match hyp with
          | `Zero -> share ()
          | `Pos ->
            let x2 = bang x in
            renamed_headers :=
              !renamed_headers
              @ [
                  {
                    Loop.index = x2;
                    lb = Expr.Add (Var x, Int 1);
                    ub = rename_expr h.Loop.ub;
                    step = 1;
                  };
                ];
            renames := (x, x2) :: !renames
          | `Neg ->
            let x2 = bang x in
            renamed_headers :=
              !renamed_headers
              @ [
                  {
                    Loop.index = x2;
                    lb = rename_expr h.Loop.lb;
                    ub = Expr.Sub (Var x, Int 1);
                    step = 1;
                  };
                ];
            renames := (x, x2) :: !renames
        end
        else if Direction.must_zero entry then share ()
        else ignore (rename_with_own_bounds ()))
      (* [v] has one entry per common loop *)
      (List.combine common v);
    (* Non-common tail, primed and passed through the map. *)
    let tail = List.filteri (fun i _ -> i >= ncommon) snk_path in
    List.iter
      (fun (h : Loop.header) ->
        let x = h.Loop.index in
        let x2 = prime x in
        renamed_headers :=
          !renamed_headers
          @ [
              {
                Loop.index = x2;
                lb = rename_expr h.Loop.lb;
                ub = rename_expr h.Loop.ub;
                step = h.Loop.step;
              };
            ];
        renames := (x, x2) :: !renames)
      tail;
    let snk_subs = List.map rename_expr snk_ref.Reference.subs in
    let order = Prove.of_headers (src_path @ !renamed_headers) in
    let renamed_names =
      List.map (fun (h : Loop.header) -> h.Loop.index) !renamed_headers
    in
    (* Collect per-dimension equations; gather pins [y := e] whenever a
       dimension involves exactly one renamed variable with coefficient
       +-1. *)
    let infeasible = ref false in
    let pins = ref [] in
    List.iter2
      (fun s1 s2 ->
        match (Affine.of_expr s1, Affine.of_expr (rename_expr s2)) with
        | Some a1, Some a2 ->
          let d = Affine.sub a1 a2 in
          if Prove.nonzero order d then infeasible := true
          else begin
            let renamed_in_d =
              List.filter (fun y -> Affine.coeff d y <> 0) renamed_names
            in
            match renamed_in_d with
            | [ y ] ->
              let c = Affine.coeff d y in
              if abs c = 1 then begin
                (* d = c*y + rest = 0  =>  y = -rest/c *)
                let rest = Affine.subst d y (Affine.of_const 0) in
                let value =
                  if c = 1 then Affine.sub (Affine.of_const 0) rest else rest
                in
                pins := (y, value) :: !pins
              end
            | _ -> ()
          end
        | _, _ -> ())
      src_ref.Reference.subs snk_subs;
    if !infeasible then false
    else begin
      (* Check every renamed header's range against the pins. *)
      let subst_pins a =
        List.fold_left (fun a (y, e) -> Affine.subst a y e) a !pins
      in
      let feasible_header (h : Loop.header) =
        let lo, hi = value_range h in
        match (Affine.of_expr lo, Affine.of_expr hi) with
        | Some lb, Some ub -> (
          let lb = subst_pins lb and ub = subst_pins ub in
          match List.assoc_opt h.Loop.index !pins with
          | Some e ->
            let e = subst_pins e in
            (* Pinned value must lie within [lb, ub]. *)
            not
              (Prove.negative order (Affine.sub e lb)
              || Prove.negative order (Affine.sub ub e))
          | None ->
            (* Range must be non-empty. *)
            not (Prove.positive order (Affine.sub lb ub)))
        | _, _ -> true
      in
      let feasible_constraint c =
        not (Prove.negative order (subst_pins c))
      in
      List.for_all feasible_header !renamed_headers
      && List.for_all feasible_constraint !constraints
    end
  end

let analyze ~src_path ~snk_path ~ncommon (src_ref : Reference.t)
    (snk_ref : Reference.t) =
  let common = List.filteri (fun i _ -> i < ncommon) src_path in
  if List.length src_ref.Reference.subs <> List.length snk_ref.Reference.subs
  then None
  else
    let snk_ref', _snk_tail = rename_snk_tail ~ncommon snk_path snk_ref in
    match solve_constraints ~common src_ref snk_ref' with
    | None -> None
    | Some v ->
    match max_zero_prefix ~src_path ~snk_path ~ncommon ~src_ref snk_ref with
    | None -> None (* cannot overlap at all within the bounds *)
    | Some mzp ->
      let zero_ok = mzp = ncommon in
      (* Identical subscript functions over the common loops: the
         references overlap on every common iteration, not merely at a
         boundary value of some non-common index. *)
      let always =
        List.for_all2
          (fun s1 s2 ->
            match (Affine.of_expr s1, Affine.of_expr s2) with
            | Some a1, Some a2 -> Affine.is_const (Affine.sub a1 a2) = Some 0
            | _, _ -> Expr.equal s1 s2)
          src_ref.Reference.subs snk_ref'.Reference.subs
      in
      if (not zero_ok) && List.for_all Direction.must_zero v then None
      else
        (* Per-slot directional refinement: for every undetermined entry
           decide which signs its distance can take, treating the other
           undetermined slots as existentially free. *)
        let refined =
          List.fold_left
            (fun acc (slot, e) ->
              match acc with
              | None -> None
              | Some v' -> (
                match e with
                | Direction.Dist _ -> acc
                | e when Direction.must_zero e -> acc
                | e ->
                  let test hyp =
                    slot_sign_possible ~src_path ~snk_path ~ncommon ~v ~slot
                      ~hyp ~src_ref snk_ref
                  in
                  let pos_ok = Direction.may_pos e && test `Pos in
                  let neg_ok = Direction.may_neg e && test `Neg in
                  let z_ok = Direction.may_zero e && test `Zero in
                  let e' =
                    match (pos_ok, z_ok, neg_ok) with
                    | false, false, false -> None
                    | true, true, false -> Some Direction.NonNeg
                    | true, false, false -> Some Direction.Pos
                    | false, true, true -> Some Direction.NonPos
                    | false, false, true -> Some Direction.Neg
                    | false, true, false -> Some (Direction.Dist 0)
                    | true, false, true -> Some Direction.Ne
                    | true, true, true -> Some e
                  in
                  (match e' with
                  | None -> None
                  | Some e' ->
                    Some
                      (List.mapi
                         (fun i old -> if i = slot then e' else old)
                         v'))))
            (Some v)
            (List.mapi (fun i e -> (i, e)) v)
        in
        (match refined with
        | None -> None
        | Some v -> Some (v, zero_ok, always, mzp))

(* [analyze] reads only its five arguments (no statement label, no
   global state), so a memo keyed on all five is invisible. A scope
   lives in the running domain's local state: other domains never see
   it, and it is dropped when the outermost [with_memo] returns or
   raises. *)
module Key = struct
  type t = Loop.header list * Loop.header list * int * Reference.t * Reference.t

  let equal = ( = )
  let hash = Hashtbl.hash_param 100 400
end

module Memo = Hashtbl.Make (Key)

type scope = {
  table : (Direction.t * bool * bool * int) option Memo.t;
  mutable lookups : int;
}

let scope : scope option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let analyze_pair ~src_path ~snk_path ~ncommon src_ref snk_ref =
  match Domain.DLS.get scope with
  | None -> analyze ~src_path ~snk_path ~ncommon src_ref snk_ref
  | Some s -> (
    s.lookups <- s.lookups + 1;
    let key = (src_path, snk_path, ncommon, src_ref, snk_ref) in
    match Memo.find_opt s.table key with
    | Some r -> r
    | None ->
      let r = analyze ~src_path ~snk_path ~ncommon src_ref snk_ref in
      Memo.add s.table key r;
      r)

let with_memo f =
  match Domain.DLS.get scope with
  | Some _ -> f ()
  | None ->
    let s = { table = Memo.create 256; lookups = 0 } in
    Domain.DLS.set scope (Some s);
    let v = Fun.protect ~finally:(fun () -> Domain.DLS.set scope None) f in
    if Obs.enabled () then begin
      Obs.counter "dep.pair_tests" (Memo.length s.table);
      Obs.counter "dep.pair_lookups" s.lookups
    end;
    v

let mk ~src ~snk ~kind ~vec ~loops ~li ~li_always ~zero_prefix =
  let s1, r1 = src and s2, r2 = snk in
  {
    src_label = s1.Stmt.label;
    snk_label = s2.Stmt.label;
    src_ref = r1;
    snk_ref = r2;
    kind;
    vec;
    loops;
    li;
    li_always;
    zero_prefix;
  }

let test_self ~path (s, r) =
  match
    analyze_pair ~src_path:path ~snk_path:path ~ncommon:(List.length path) r r
  with
  | None -> None
  | Some (v, _zero_ok, _always, mzp) -> (
    match Direction.restrict_lex_pos v with
    | None -> None
    | Some v' ->
      Some
        (mk ~src:(s, r) ~snk:(s, r) ~kind:Output ~vec:v'
           ~loops:(List.map (fun (h : Loop.header) -> h.Loop.index) path)
           ~li:false ~li_always:false ~zero_prefix:mzp))

let test_pair ~src_path ~snk_path ~ncommon ~src:(s1, r1, a1) ~snk:(s2, r2, a2) =
  if not (String.equal r1.Reference.array r2.Reference.array) then []
  else
    match analyze_pair ~src_path ~snk_path ~ncommon r1 r2 with
    | None -> []
    | Some (v, zero_ok, always, mzp) ->
      let names =
        List.filteri (fun i _ -> i < ncommon) src_path
        |> List.map (fun (h : Loop.header) -> h.Loop.index)
      in
      let fwd =
        let exists = Direction.may_lex_pos v || zero_ok in
        if not exists then []
        else
          match Direction.restrict_lex_nonneg v with
          | None -> []
          | Some v' ->
            [
              mk ~src:(s1, r1) ~snk:(s2, r2) ~kind:(kind_of a1 a2) ~vec:v'
                ~loops:names
                ~li:(zero_ok && List.for_all Direction.may_zero v')
                ~li_always:always ~zero_prefix:mzp;
            ]
      in
      let bwd =
        if not (Direction.may_lex_neg v) then []
        else
          match Direction.restrict_lex_pos (Direction.negate v) with
          | None -> []
          | Some v' ->
            [
              mk ~src:(s2, r2) ~snk:(s1, r1) ~kind:(kind_of a2 a1) ~vec:v'
                ~loops:names ~li:false ~li_always:false ~zero_prefix:mzp;
            ]
      in
      fwd @ bwd

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Flow -> "flow"
    | Anti -> "anti"
    | Output -> "output"
    | Input -> "input")

let pp ppf d =
  Format.fprintf ppf "%s:%a -%a-> %s:%a %a%s" d.src_label Reference.pp
    d.src_ref pp_kind d.kind d.snk_label Reference.pp d.snk_ref Direction.pp
    d.vec
    (if d.li then " (li)" else "")
