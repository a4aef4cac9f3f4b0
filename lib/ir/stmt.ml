type unop = Fneg | Sqrt | Abs | Exp | Sin | Cos
type binop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax

type rexpr =
  | Const of float
  | Scalar of string
  | Iexpr of Expr.t
  | Load of Reference.t
  | Unop of unop * rexpr
  | Binop of binop * rexpr * rexpr

type lhs = Store of Reference.t | Scalar_set of string
type t = { label : string; lhs : lhs; rhs : rexpr }

let assign ?(label = "") r e = { label; lhs = Store r; rhs = e }
let scalar_assign ?(label = "") x e = { label; lhs = Scalar_set x; rhs = e }

let writes s = match s.lhs with Store r -> [ r ] | Scalar_set _ -> []

let rec reads_of = function
  | Const _ | Scalar _ | Iexpr _ -> []
  | Load r -> [ r ]
  | Unop (_, a) -> reads_of a
  | Binop (_, a, b) -> reads_of a @ reads_of b

let reads s = reads_of s.rhs

let refs s =
  List.map (fun r -> (r, `Write)) (writes s)
  @ List.map (fun r -> (r, `Read)) (reads s)

let rec vars_of = function
  | Const _ | Scalar _ -> []
  | Iexpr e -> Expr.vars e
  | Load r -> List.concat_map Expr.vars r.subs
  | Unop (_, a) -> vars_of a
  | Binop (_, a, b) -> vars_of a @ vars_of b

let vars s =
  List.concat_map (fun (r : Reference.t) -> List.concat_map Expr.vars r.subs)
    (writes s)
  @ vars_of s.rhs

let rec scalars_of = function
  | Const _ | Iexpr _ | Load _ -> []
  | Scalar x -> [ x ]
  | Unop (_, a) -> scalars_of a
  | Binop (_, a, b) -> scalars_of a @ scalars_of b

let scalars_read s = scalars_of s.rhs
let scalars_written s = match s.lhs with Scalar_set x -> [ x ] | Store _ -> []

let rec map_iexpr f = function
  | (Const _ | Scalar _) as e -> e
  | Iexpr e -> Iexpr (f e)
  | Load r -> Load { r with subs = List.map f r.subs }
  | Unop (op, a) -> Unop (op, map_iexpr f a)
  | Binop (op, a, b) -> Binop (op, map_iexpr f a, map_iexpr f b)

let subst_index s x e =
  let f i = Expr.subst i x e in
  let lhs =
    match s.lhs with
    | Store r -> Store { r with subs = List.map f r.subs }
    | l -> l
  in
  { s with lhs; rhs = map_iexpr f s.rhs }

let rename_index s x y = subst_index s x (Expr.Var y)

let unop_name = function
  | Fneg -> "-"
  | Sqrt -> "SQRT"
  | Abs -> "ABS"
  | Exp -> "EXP"
  | Sin -> "SIN"
  | Cos -> "COS"

let binop_sym = function
  | Fadd -> "+"
  | Fsub -> "-"
  | Fmul -> "*"
  | Fdiv -> "/"
  | Fmin -> "MIN"
  | Fmax -> "MAX"

let prec = function Fadd | Fsub -> 1 | Fmul | Fdiv -> 2 | Fmin | Fmax -> 3

let rec pp_rexpr ppf = function
  | Const c ->
    if Float.is_integer c && Float.abs c < 1e15 then
      Format.fprintf ppf "%.1f" c
    else Format.fprintf ppf "%g" c
  | Scalar x -> Format.fprintf ppf "%s" x
  | Iexpr e -> Expr.pp ppf e
  | Load r -> Reference.pp ppf r
  | Unop (Fneg, a) -> Format.fprintf ppf "-%a" pp_atom a
  | Unop (op, a) -> Format.fprintf ppf "%s(%a)" (unop_name op) pp_rexpr a
  | Binop ((Fmin | Fmax) as op, a, b) ->
    Format.fprintf ppf "%s(%a, %a)" (binop_sym op) pp_rexpr a pp_rexpr b
  | Binop (op, a, b) ->
    let right_prec =
      match op with
      | Fsub | Fdiv -> prec op + 1
      | Fadd | Fmul | Fmin | Fmax -> prec op
    in
    Format.fprintf ppf "%a %s %a"
      (pp_operand (prec op))
      a (binop_sym op) (pp_operand right_prec) b

and pp_atom ppf e =
  match e with
  | Const _ | Scalar _ | Load _ -> pp_rexpr ppf e
  | Iexpr _ | Unop _ | Binop _ -> Format.fprintf ppf "(%a)" pp_rexpr e

(* Parenthesise a child whose operator binds looser than required; the
   right operand of [-] and [/] requires strictly tighter binding. *)
and pp_operand min_prec ppf e =
  match e with
  | Binop (((Fadd | Fsub | Fmul | Fdiv) as op), _, _) when prec op < min_prec
    ->
    Format.fprintf ppf "(%a)" pp_rexpr e
  | Const _ | Scalar _ | Iexpr _ | Load _ | Unop _ | Binop _ ->
    pp_rexpr ppf e

let pp ppf s =
  match s.lhs with
  | Store r -> Format.fprintf ppf "%a = %a" Reference.pp r pp_rexpr s.rhs
  | Scalar_set x -> Format.fprintf ppf "%s = %a" x pp_rexpr s.rhs
