module Layout = Locality_cachesim.Layout

type env = int array

type geometry = {
  strides : int array;  (* column-major element stride per dimension *)
  base : int;  (* byte address of the first element *)
  elem : int;  (* bytes per element *)
  size : int;  (* elements *)
}

(* The slot table alone carries the name-to-slot mapping; nothing needs
   the names back in order. *)
type t = {
  slots : (string, int) Hashtbl.t;
  params : (string * int) list;
  arrays : (string, geometry) Hashtbl.t;
}

let index_slot t name =
  match Hashtbl.find_opt t.slots name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.slots in
    Hashtbl.replace t.slots name i;
    i

let prepare ?params (p : Program.t) =
  let params =
    match params with
    | Some overrides ->
      List.map
        (fun (x, d) ->
          match List.assoc_opt x overrides with
          | Some v -> (x, v)
          | None -> (x, d))
        p.Program.params
    | None -> p.Program.params
  in
  let param x =
    match List.assoc_opt x params with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Fastexec: unbound parameter %s" x)
  in
  let layout = Layout.build ~param p.Program.decls in
  let arrays = Hashtbl.create 16 in
  List.iter
    (fun (d : Decl.t) ->
      let name = d.Decl.name in
      let exts = List.map (fun e -> Expr.eval e param) d.Decl.extents in
      let n = List.length exts in
      let strides = Array.make n 1 in
      List.iteri
        (fun k e -> if k < n - 1 then strides.(k + 1) <- strides.(k) * e)
        exts;
      Hashtbl.replace arrays name
        {
          strides;
          base = Layout.address layout name (Array.make n 1);
          elem = Layout.elem_size layout name;
          size = Layout.size_elements layout name;
        })
    p.Program.decls;
  let t = { slots = Hashtbl.create 16; params; arrays } in
  List.iter (fun (x, _) -> ignore (index_slot t x)) params;
  t

let geometry t name = Hashtbl.find t.arrays name

let env t =
  let e = Array.make (max 1 (Hashtbl.length t.slots)) 0 in
  List.iter (fun (x, v) -> e.(index_slot t x) <- v) t.params;
  e

let rec expr t (e : Expr.t) : env -> int =
  match e with
  | Expr.Int n -> fun _ -> n
  | Expr.Var x ->
    let i = index_slot t x in
    fun env -> env.(i)
  | Expr.Neg a ->
    let fa = expr t a in
    fun env -> -fa env
  | Expr.Add (a, b) ->
    let fa = expr t a and fb = expr t b in
    fun env -> fa env + fb env
  | Expr.Sub (a, b) ->
    let fa = expr t a and fb = expr t b in
    fun env -> fa env - fb env
  | Expr.Mul (a, b) ->
    let fa = expr t a and fb = expr t b in
    fun env -> fa env * fb env
  | Expr.Min (a, b) ->
    let fa = expr t a and fb = expr t b in
    fun env -> min (fa env) (fb env)
  | Expr.Max (a, b) ->
    let fa = expr t a and fb = expr t b in
    fun env -> max (fa env) (fb env)
  | Expr.Div (a, b) ->
    let fa = expr t a and fb = expr t b in
    fun env ->
      let d = fb env in
      if d = 0 then invalid_arg "Fastexec: division by zero" else fa env / d

let rec exists_sub f (e : Expr.t) =
  f e
  ||
  match e with
  | Expr.Int _ | Expr.Var _ -> false
  | Expr.Neg a -> exists_sub f a
  | Expr.Add (a, b)
  | Expr.Sub (a, b)
  | Expr.Mul (a, b)
  | Expr.Min (a, b)
  | Expr.Max (a, b)
  | Expr.Div (a, b) -> exists_sub f a || exists_sub f b

let has_div = exists_sub (function Expr.Div _ -> true | _ -> false)

let mentions x =
  exists_sub (function Expr.Var y -> String.equal x y | _ -> false)

(* [deriv t idx e] is d[e]/d[idx] as a closure, when [e] is affine
   in [idx] *within one innermost-loop instance*: a subexpression that
   never mentions [idx] is invariant while that loop runs (the body
   cannot write integers), whatever operators it contains, so only the
   [idx]-bearing spine must be built from +/-/negate and multiplication
   by an invariant factor. MIN/MAX/DIV over [idx] are not affine and
   disqualify the reference. *)
let rec deriv t idx (e : Expr.t) : (env -> int) option =
  if not (mentions idx e) then Some (fun _ -> 0)
  else
    match e with
    | Expr.Int _ -> Some (fun _ -> 0)
    | Expr.Var _ -> Some (fun _ -> 1) (* mentions idx, so it is idx *)
    | Expr.Neg a -> (
      match deriv t idx a with
      | Some f -> Some (fun env -> -f env)
      | None -> None)
    | Expr.Add (a, b) -> (
      match (deriv t idx a, deriv t idx b) with
      | Some fa, Some fb -> Some (fun env -> fa env + fb env)
      | _ -> None)
    | Expr.Sub (a, b) -> (
      match (deriv t idx a, deriv t idx b) with
      | Some fa, Some fb -> Some (fun env -> fa env - fb env)
      | _ -> None)
    | Expr.Mul (a, b) ->
      if not (mentions idx a) then
        match deriv t idx b with
        | Some db ->
          let fa = expr t a in
          Some (fun env -> fa env * db env)
        | None -> None
      else if not (mentions idx b) then
        match deriv t idx a with
        | Some da ->
          let fb = expr t b in
          Some (fun env -> da env * fb env)
        | None -> None
      else None
    | Expr.Min _ | Expr.Max _ | Expr.Div _ -> None

(* The flat element offset, rank-specialized so the per-access path is
   a pure arithmetic expression over preallocated subscript closures —
   the general rank folds through a tail-recursive helper bound outside
   the closure, so no list node, array or ref cell is allocated per
   access. *)
let offset t (r : Reference.t) : env -> int =
  let s = (geometry t r.Reference.array).strides in
  let n = List.length r.Reference.subs in
  let zero_sub = fun (_ : env) -> 0 in
  let fsubs = Array.make (max n 1) zero_sub in
  List.iteri (fun k e -> fsubs.(k) <- expr t e) r.Reference.subs;
  match n with
  | 0 -> zero_sub
  | 1 ->
    let f0 = fsubs.(0) and s0 = s.(0) in
    fun env -> (f0 env - 1) * s0
  | 2 ->
    let f0 = fsubs.(0) and s0 = s.(0) in
    let f1 = fsubs.(1) and s1 = s.(1) in
    fun env -> ((f0 env - 1) * s0) + ((f1 env - 1) * s1)
  | 3 ->
    let f0 = fsubs.(0) and s0 = s.(0) in
    let f1 = fsubs.(1) and s1 = s.(1) in
    let f2 = fsubs.(2) and s2 = s.(2) in
    fun env -> ((f0 env - 1) * s0) + ((f1 env - 1) * s1) + ((f2 env - 1) * s2)
  | _ ->
    let rec go k acc env =
      if k = n then acc else go (k + 1) (acc + ((fsubs.(k) env - 1) * s.(k))) env
    in
    fun env -> go 0 0 env

let address t (r : Reference.t) =
  let g = geometry t r.Reference.array in
  let offset = offset t r in
  let base = g.base and elem = g.elem and size = g.size in
  fun env ->
    let off = offset env in
    if off < 0 || off >= size then invalid_arg "index out of bounds";
    base + (off * elem)

let stride t ~idx ~step (r : Reference.t) =
  let g = geometry t r.Reference.array in
  let rec go k (subs : Expr.t list) =
    match subs with
    | [] -> Some (fun _ -> 0)
    | sub :: rest -> (
      match (deriv t idx sub, go (k + 1) rest) with
      | Some d, Some tail ->
        let sk = g.strides.(k) in
        Some (fun env -> (sk * d env) + tail env)
      | _ -> None)
  in
  match go 0 r.Reference.subs with
  | Some slope ->
    let bytes = step * g.elem in
    Some (fun env -> bytes * slope env)
  | None -> None

let trip ~lb ~ub ~step =
  if step > 0 then if lb > ub then 0 else ((ub - lb) / step) + 1
  else if lb < ub then 0
  else ((lb - ub) / -step) + 1

let loop t (h : Loop.header) ~env body =
  let islot = index_slot t h.Loop.index in
  let flb = expr t h.Loop.lb in
  let fub = expr t h.Loop.ub in
  let step = h.Loop.step in
  if step > 0 then (fun c ->
    let e = env c in
    let ub = fub e in
    let i = ref (flb e) in
    while !i <= ub do
      e.(islot) <- !i;
      body c;
      i := !i + step
    done)
  else fun c ->
    let e = env c in
    let ub = fub e in
    let i = ref (flb e) in
    while !i >= ub do
      e.(islot) <- !i;
      body c;
      i := !i + step
    done
