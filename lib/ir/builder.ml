let i n = Expr.Int n
let v x = Expr.Var x
let ( +$ ) a b = Expr.Add (a, b)
let ( -$ ) a b = Expr.Sub (a, b)
let ( *$ ) a b = Expr.Mul (a, b)
let r name subs = Reference.make name subs
let ld name subs = Stmt.Load (Reference.make name subs)
let sc x = Stmt.Scalar x
let f c = Stmt.Const c
let ( +! ) a b = Stmt.Binop (Fadd, a, b)
let ( -! ) a b = Stmt.Binop (Fsub, a, b)
let ( *! ) a b = Stmt.Binop (Fmul, a, b)
let ( /! ) a b = Stmt.Binop (Fdiv, a, b)
let sqrt_ a = Stmt.Unop (Sqrt, a)
let asn ?label ref e = Loop.Stmt (Stmt.assign ?label ref e)
let sasn ?label x e = Loop.Stmt (Stmt.scalar_assign ?label x e)
let do_ ?step index lb ub body = Loop.Loop (Loop.loop ?step index lb ub body)

let program name ?(params = []) ~arrays body =
  let decls = List.map (fun (name, extents) -> Decl.make name extents) arrays in
  let p = Program.make ~name ~params decls body in
  match Program.validate p with
  | Ok () -> p
  | Error msg -> invalid_arg (Printf.sprintf "Builder.program %s: %s" name msg)
