type t =
  | Int of int
  | Var of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Min of t * t
  | Max of t * t
  | Div of t * t

let rec equal a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.( = ) x y
  | Var x, Var y -> String.equal x y
  | Neg x, Neg y -> equal x y
  | Add (x1, x2), Add (y1, y2)
  | Sub (x1, x2), Sub (y1, y2)
  | Mul (x1, x2), Mul (y1, y2)
  | Min (x1, x2), Min (y1, y2)
  | Max (x1, x2), Max (y1, y2)
  | Div (x1, x2), Div (y1, y2) ->
    equal x1 y1 && equal x2 y2
  | (Int _ | Var _ | Neg _ | Add _ | Sub _ | Mul _ | Min _ | Max _ | Div _), _
    ->
    false

let vars e =
  let module S = Set.Make (String) in
  let rec go acc = function
    | Int _ -> acc
    | Var x -> S.add x acc
    | Neg a -> go acc a
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Min (a, b) | Max (a, b)
    | Div (a, b) ->
      go (go acc a) b
  in
  S.elements (go S.empty e)

let rec subst e x r =
  match e with
  | Int _ -> e
  | Var y -> if String.equal y x then r else e
  | Neg a -> Neg (subst a x r)
  | Add (a, b) -> Add (subst a x r, subst b x r)
  | Sub (a, b) -> Sub (subst a x r, subst b x r)
  | Mul (a, b) -> Mul (subst a x r, subst b x r)
  | Min (a, b) -> Min (subst a x r, subst b x r)
  | Max (a, b) -> Max (subst a x r, subst b x r)
  | Div (a, b) -> Div (subst a x r, subst b x r)

let rec eval e env =
  match e with
  | Int n -> n
  | Var x -> env x
  | Neg a -> Stdlib.( ~- ) (eval a env)
  | Add (a, b) -> Stdlib.( + ) (eval a env) (eval b env)
  | Sub (a, b) -> Stdlib.( - ) (eval a env) (eval b env)
  | Mul (a, b) -> Stdlib.( * ) (eval a env) (eval b env)
  | Min (a, b) -> Stdlib.min (eval a env) (eval b env)
  | Max (a, b) -> Stdlib.max (eval a env) (eval b env)
  | Div (a, b) ->
    let d = eval b env in
    if d = 0 then invalid_arg "Expr.eval: division by zero" else eval a env / d

let rec to_poly = function
  | Int n -> Poly.int n
  | Var x -> Poly.var x
  | Neg a -> Poly.neg (to_poly a)
  | Add (a, b) -> Poly.add (to_poly a) (to_poly b)
  | Sub (a, b) -> Poly.sub (to_poly a) (to_poly b)
  | Mul (a, b) -> Poly.mul (to_poly a) (to_poly b)
  (* Approximate by the common-case operand (tiled bounds). *)
  | Min (a, _) -> to_poly a
  | Max (a, _) -> to_poly a
  | Div (a, b) -> (
    (* Exact only for constant divisors. *)
    match b with
    | Int k when k <> 0 -> Poly.div_rat (to_poly a) (Rat.of_int k)
    | _ -> to_poly a)

(* Structural constant folding, applied bottom-up. *)
let rec simplify e =
  match e with
  | Int _ | Var _ -> e
  | Neg a -> (
    match simplify a with
    | Int n -> Int (Stdlib.( ~- ) n)
    | Neg b -> b
    | a -> Neg a)
  | Add (a, b) -> (
    match (simplify a, simplify b) with
    | Int x, Int y -> Int (Stdlib.( + ) x y)
    | Int 0, b -> b
    | a, Int 0 -> a
    | a, Int y when y < 0 -> Sub (a, Int (Stdlib.( ~- ) y))
    | a, b -> Add (a, b))
  | Sub (a, b) -> (
    match (simplify a, simplify b) with
    | Int x, Int y -> Int (Stdlib.( - ) x y)
    | a, Int 0 -> a
    | a, Int y when y < 0 -> Add (a, Int (Stdlib.( ~- ) y))
    | a, b -> Sub (a, b))
  | Mul (a, b) -> (
    match (simplify a, simplify b) with
    | Int x, Int y -> Int (Stdlib.( * ) x y)
    | Int 0, _ | _, Int 0 -> Int 0
    | Int 1, b -> b
    | a, Int 1 -> a
    | a, b -> Mul (a, b))
  | Min (a, b) -> (
    match (simplify a, simplify b) with
    | Int x, Int y -> Int (Stdlib.min x y)
    | a, b -> if equal a b then a else Min (a, b))
  | Max (a, b) -> (
    match (simplify a, simplify b) with
    | Int x, Int y -> Int (Stdlib.max x y)
    | a, b -> if equal a b then a else Max (a, b))
  | Div (a, b) -> (
    match (simplify a, simplify b) with
    | Int x, Int y when y <> 0 -> Int (x / y)
    | a, Int 1 -> a
    | a, b -> Div (a, b))

let rec pp ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Var x -> Format.fprintf ppf "%s" x
  | Neg a -> Format.fprintf ppf "-%a" pp_atom a
  | Add (a, b) -> Format.fprintf ppf "%a+%a" pp a pp_mul_atom b
  | Sub (a, b) -> Format.fprintf ppf "%a-%a" pp a pp_atom b
  | Mul (a, b) -> Format.fprintf ppf "%a*%a" pp_atom a pp_atom b
  | Min (a, b) -> Format.fprintf ppf "MIN(%a, %a)" pp a pp b
  | Max (a, b) -> Format.fprintf ppf "MAX(%a, %a)" pp a pp b
  | Div (a, b) -> Format.fprintf ppf "%a/%a" pp_atom a pp_atom b

(* Right operand of [+] needs parentheses only if it is itself additive
   with a leading negation; keep it simple and wrap negations. *)
and pp_mul_atom ppf e =
  match e with
  | Neg _ -> Format.fprintf ppf "(%a)" pp e
  | Int _ | Var _ | Add _ | Sub _ | Mul _ | Min _ | Max _ | Div _ -> pp ppf e

and pp_atom ppf e =
  match e with
  | Int n when n >= 0 -> pp ppf e
  | Var _ | Min _ | Max _ -> pp ppf e
  | Int _ | Neg _ | Add _ | Sub _ | Mul _ | Div _ ->
    Format.fprintf ppf "(%a)" pp e

let to_string e = Format.asprintf "%a" pp e
