(* Random program generation.

   Safety is enforced structurally rather than checked after the fact:

   - Index values: every loop bound is built so the index stays in
     [1, N].  Lower bounds are Int 1/2, an outer index, or
     MAX(1, outer-2); upper bounds are N, N-1, N/2, an outer index, or
     MIN(N, outer+2); reversed loops run N..1.  We track a conservative
     per-index lower bound so negative subscript offsets (I-c) are only
     emitted when c < lower bound.
   - Extents: every array dimension is N+2, so subscripts I, I+1, I+2,
     N+1-I and small constants are always in range.
   - Scalars: only scalars assigned at top level (before any loop) are
     ever read; loop bodies may re-assign them (reductions) but never
     introduce fresh ones, since a loop's range can be empty at run
     time (e.g. DO J = I, N/2) and Exec faults on unset scalars.
   - Values: multiplication and division always pair a subexpression
     with a small constant, and EXP is never emitted, so magnitudes
     grow geometrically with small ratios instead of squaring. *)

type ctx = {
  rng : Rng.t;
  mutable budget : int;
  mutable scalars : string list; (* initialised at top level, readable *)
  arrays : (string * int) list; (* name, rank *)
}

let index_names = [| "I"; "J"; "K" |]
let scalar_pool = [ "S"; "T"; "C" ]
let consts = [ 0.25; 0.5; 0.75; 1.0; 1.5; 2.0; 3.0 ]
let mul_consts = [ 0.25; 0.5; 0.75; 1.25 ]

(* env is innermost-first [(index, conservative lower bound); ...];
   upper bounds are always <= N by construction. *)

let gen_sub ctx env =
  let g = ctx.rng in
  if env = [] then Expr.Int (Rng.range g 1 3)
  else
    let i, lo = Rng.pick g env in
    Rng.weighted g
      ([
         (6, Expr.Var i);
         (2, Expr.Add (Var i, Int (Rng.range g 1 2)));
         (1, Expr.Int (Rng.range g 1 3));
         (1, Expr.Sub (Add (Var "N", Int 1), Var i));
       ]
      @ if lo >= 2 then [ (2, Expr.Sub (Var i, Int (Rng.range g 1 (lo - 1)))) ]
        else [])

let gen_load ctx env =
  let g = ctx.rng in
  let name, rank = Rng.pick g ctx.arrays in
  Stmt.Load (Reference.make name (List.init rank (fun _ -> gen_sub ctx env)))

let rec gen_rexpr ctx env fuel =
  let g = ctx.rng in
  let atom () =
    Rng.weighted g
      ([
         (6, `Load);
         (2, `Const);
       ]
      @ (if ctx.scalars <> [] then [ (2, `Scalar) ] else [])
      @ if env <> [] then [ (1, `Iexpr) ] else [])
    |> function
    | `Load -> gen_load ctx env
    | `Const -> Stmt.Const (Rng.pick g consts)
    | `Scalar -> Stmt.Scalar (Rng.pick g ctx.scalars)
    | `Iexpr -> Stmt.Iexpr (Expr.Var (fst (Rng.pick g env)))
  in
  if fuel <= 0 then atom ()
  else
    match
      Rng.weighted g
        [ (4, `Atom); (5, `Addsub); (2, `Mul); (1, `Div); (2, `Minmax);
          (1, `Unop) ]
    with
    | `Atom -> atom ()
    | `Addsub ->
      let op = if Rng.bool g then Stmt.Fadd else Stmt.Fsub in
      Stmt.Binop (op, gen_rexpr ctx env (fuel - 1), gen_rexpr ctx env (fuel - 1))
    | `Mul ->
      Stmt.Binop
        (Stmt.Fmul, gen_rexpr ctx env (fuel - 1),
         Stmt.Const (Rng.pick g mul_consts))
    | `Div ->
      Stmt.Binop
        (Stmt.Fdiv, gen_rexpr ctx env (fuel - 1),
         Stmt.Const (if Rng.bool g then 2.0 else 4.0))
    | `Minmax ->
      let op = if Rng.bool g then Stmt.Fmin else Stmt.Fmax in
      Stmt.Binop (op, gen_rexpr ctx env (fuel - 1), gen_rexpr ctx env (fuel - 1))
    | `Unop ->
      let op = Rng.pick g [ Stmt.Fneg; Stmt.Sqrt; Stmt.Abs ] in
      Stmt.Unop (op, gen_rexpr ctx env (fuel - 1))

let gen_stmt ctx env =
  let g = ctx.rng in
  ctx.budget <- ctx.budget - 1;
  let rhs = gen_rexpr ctx env (Rng.range g 1 3) in
  if ctx.scalars <> [] && Rng.chance g 0.15 then
    (* Reduction-style update of an already-initialised scalar. *)
    let s = Rng.pick g ctx.scalars in
    let rhs =
      if Rng.chance g 0.7 then Stmt.Binop (Stmt.Fadd, Stmt.Scalar s, rhs)
      else rhs
    in
    Stmt.scalar_assign s rhs
  else
    let name, rank = Rng.pick g ctx.arrays in
    let r = Reference.make name (List.init rank (fun _ -> gen_sub ctx env)) in
    Stmt.assign r rhs

(* Lower bound implied by a bound expression, given outer bounds. *)
let gen_header ctx env depth =
  let g = ctx.rng in
  let index = index_names.(depth) in
  let outer = if env = [] then None else Some (Rng.pick g env) in
  if Rng.chance g 0.15 then
    (* Reversed loop: DO I = N, 1, -1. *)
    let lo = Rng.range g 1 2 in
    ({ Loop.index; lb = Var "N"; ub = Int lo; step = -1 }, lo)
  else
    let lb, lb_lo =
      Rng.weighted g
        ([
           (5, (Expr.Int 1, 1));
           (2, (Expr.Int 2, 2));
         ]
        @
        match outer with
        | None -> []
        | Some (o, o_lo) ->
          [
            (2, (Expr.Var o, o_lo));
            (1, (Expr.Max (Int 1, Sub (Var o, Int 2)), 1));
          ])
    in
    let ub =
      Rng.weighted g
        ([
           (5, Expr.Var "N");
           (2, Expr.Sub (Var "N", Int 1));
           (1, Expr.Div (Var "N", Int 2));
         ]
        @
        match outer with
        | None -> []
        | Some (o, _) ->
          [ (1, Expr.Var o); (1, Expr.Min (Var "N", Add (Var o, Int 2))) ])
    in
    let step = if Rng.chance g 0.12 then 2 else 1 in
    ({ Loop.index; lb; ub; step }, lb_lo)

let rec gen_loop ctx env depth =
  let g = ctx.rng in
  ctx.budget <- ctx.budget - 1;
  let header, lo = gen_header ctx env depth in
  let env' = (header.Loop.index, lo) :: env in
  let body = ref [] in
  let push n = body := n :: !body in
  (* Leading statements make the nest imperfect. *)
  if depth < 2 && Rng.chance g 0.2 && ctx.budget > 3 then
    push (Loop.Stmt (gen_stmt ctx env'));
  if depth < 2 && ctx.budget > 2 && Rng.chance g 0.6 then begin
    push (Loop.Loop (gen_loop ctx env' (depth + 1)));
    (* Occasionally a second inner loop at the same depth (fusion and
       distribution candidates). *)
    if ctx.budget > 2 && Rng.chance g 0.3 then
      push (Loop.Loop (gen_loop ctx env' (depth + 1)))
  end;
  let stmts = Rng.range g (if !body = [] then 1 else 0) 2 in
  for _ = 1 to stmts do
    push (Loop.Stmt (gen_stmt ctx env'))
  done;
  { Loop.header; body = List.rev !body }

let array_pool = [ "A"; "B"; "D"; "E"; "U"; "V" ]

let generate ~seed ~index ~size =
  let g = Rng.derive seed index in
  let n = Rng.range g 6 10 in
  let n_arrays = Rng.range g 2 4 in
  let arrays =
    List.init n_arrays (fun k ->
        let rank = Rng.weighted g [ (3, 1); (4, 2); (2, 3) ] in
        (List.nth array_pool k, rank))
  in
  let ctx = { rng = g; budget = max 4 size; scalars = []; arrays } in
  let decls =
    List.map
      (fun (name, rank) ->
        let extent () =
          if Rng.chance g 0.8 then Expr.Add (Var "N", Int 2)
          else Expr.Int (n + 2)
        in
        Decl.make name (List.init rank (fun _ -> extent ())))
      arrays
  in
  (* Top-level scalar initialisations: the only way a scalar becomes
     readable, since loop ranges may be empty at run time. *)
  let n_scalars = Rng.range g 0 2 in
  let inits =
    List.init n_scalars (fun k ->
        let s = List.nth scalar_pool k in
        let rhs =
          if ctx.scalars = [] || Rng.chance g 0.7 then
            Stmt.Const (Rng.pick g consts)
          else gen_rexpr ctx [] 1
        in
        ctx.scalars <- ctx.scalars @ [ s ];
        Loop.Stmt (Stmt.scalar_assign s rhs))
  in
  ctx.budget <- ctx.budget - n_scalars;
  let nests = ref [] in
  let first = ref true in
  while !first || ctx.budget > 2 do
    first := false;
    if Rng.chance g 0.08 then
      nests := Loop.Stmt (gen_stmt ctx []) :: !nests
    else nests := Loop.Loop (gen_loop ctx [] 0) :: !nests
  done;
  let body = inits @ List.rev !nests in
  let name = Printf.sprintf "FZ%d_%d" (seed land 0x7FFFFFFF) index in
  let p = Program.make ~name ~params:[ ("N", n) ] decls body in
  (match Program.validate p with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Gen.generate: invalid program: %s" e));
  p
