module M = Map.Make (String)

type t = { const : int; coeffs : int M.t }
(* Invariant: no zero coefficients stored. *)

let norm coeffs = M.filter (fun _ c -> c <> 0) coeffs
let of_const n = { const = n; coeffs = M.empty }

let add_t a b =
  {
    const = a.const + b.const;
    coeffs = norm (M.union (fun _ x y -> Some (x + y)) a.coeffs b.coeffs);
  }

let neg_t a = { const = -a.const; coeffs = M.map (fun c -> -c) a.coeffs }
let sub a b = add_t a (neg_t b)
let scale k a = { const = k * a.const; coeffs = norm (M.map (fun c -> k * c) a.coeffs) }

let rec of_expr (e : Expr.t) : t option =
  match e with
  | Int n -> Some (of_const n)
  | Var x -> Some { const = 0; coeffs = M.singleton x 1 }
  | Neg a -> Option.map neg_t (of_expr a)
  | Add (a, b) -> (
    match (of_expr a, of_expr b) with
    | Some a, Some b -> Some (add_t a b)
    | _, _ -> None)
  | Sub (a, b) -> (
    match (of_expr a, of_expr b) with
    | Some a, Some b -> Some (sub a b)
    | _, _ -> None)
  | Mul (a, b) -> (
    match (of_expr a, of_expr b) with
    | Some a, Some b -> (
      match (M.is_empty a.coeffs, M.is_empty b.coeffs) with
      | true, _ -> Some (scale a.const b)
      | _, true -> Some (scale b.const a)
      | false, false -> None)
    | _, _ -> None)
  | Div _ -> None
  | Min (a, b) | Max (a, b) -> (
    (* Affine only in the degenerate equal-operand case. *)
    match (of_expr a, of_expr b) with
    | Some a', Some b' when a'.const = b'.const && M.equal Int.equal a'.coeffs b'.coeffs ->
      Some a'
    | _, _ -> None)

let to_expr a =
  let terms =
    M.fold
      (fun x c acc ->
        let t =
          if c = 1 then Expr.Var x
          else if c = -1 then Expr.Neg (Var x)
          else Expr.Mul (Int c, Var x)
        in
        t :: acc)
      a.coeffs []
    |> List.rev
  in
  let base =
    match terms with
    | [] -> Expr.Int a.const
    | t :: rest ->
      let sum = List.fold_left (fun acc t -> Expr.Add (acc, t)) t rest in
      if a.const = 0 then sum
      else if a.const > 0 then Expr.Add (sum, Int a.const)
      else Expr.Sub (sum, Int (-a.const))
  in
  Expr.simplify base

let const a = a.const
let coeff a x = match M.find_opt x a.coeffs with None -> 0 | Some c -> c
let vars a = M.bindings a.coeffs |> List.map fst
let equal a b = a.const = b.const && M.equal Int.equal a.coeffs b.coeffs
let is_const a = if M.is_empty a.coeffs then Some a.const else None

let subst a x r =
  match M.find_opt x a.coeffs with
  | None -> a
  | Some c ->
    let without = { a with coeffs = M.remove x a.coeffs } in
    add_t without (scale c r)

(* Non-affine subtrees (MIN/MAX/DIV, products of variables) are replaced
   by opaque placeholder variables so the affine collector can cancel
   constants around them, then substituted back. *)
let rec normalize (e : Expr.t) : Expr.t =
  let opaque = Hashtbl.create 4 in
  let counter = ref 0 in
  let stash e' =
    incr counter;
    let name = Printf.sprintf "$opq%d" !counter in
    Hashtbl.replace opaque name e';
    Expr.Var name
  in
  let rec abstract (e : Expr.t) : Expr.t =
    match e with
    | Expr.Int _ | Expr.Var _ -> e
    | Expr.Neg a -> Expr.Neg (abstract a)
    | Expr.Add (a, b) -> Expr.Add (abstract a, abstract b)
    | Expr.Sub (a, b) -> Expr.Sub (abstract a, abstract b)
    | Expr.Mul (a, b) -> (
      let e' = Expr.Mul (abstract a, abstract b) in
      match of_expr e' with Some _ -> e' | None -> stash e')
    | Expr.Min (a, b) ->
      stash (Expr.simplify (Expr.Min (normalize a, normalize b)))
    | Expr.Max (a, b) ->
      stash (Expr.simplify (Expr.Max (normalize a, normalize b)))
    | Expr.Div (a, b) ->
      stash (Expr.simplify (Expr.Div (normalize a, normalize b)))
  in
  let abstracted = abstract e in
  let collected =
    match of_expr abstracted with
    | Some a -> to_expr a
    | None -> Expr.simplify abstracted
  in
  Hashtbl.fold (fun name e' acc -> Expr.subst acc name e') opaque collected
