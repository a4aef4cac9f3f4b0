type result = {
  arrays : (string * float array) list;
  ops : int;
  accesses : int;
  iterations : int;
}

type ctx = {
  ienv : Intcode.env;
  scalars : float array;
  fstack : float array;  (** expression evaluation slots, see compile_rexpr *)
  mutable ops : int;
  mutable accesses : int;
  mutable iterations : int;
}

let ienv c = c.ienv

let run ?(observer = Exec.null_observer) ?(init = Exec.default_init) ?params
    (p : Program.t) =
  let ic = Intcode.prepare ?params p in
  let data = Hashtbl.create 16 in
  List.iter
    (fun (d : Decl.t) ->
      let name = d.Decl.name in
      Hashtbl.replace data name
        (Array.init (Intcode.geometry ic name).Intcode.size (init name)))
    p.Program.decls;
  let sslots = Hashtbl.create 16 in
  let scalar_slot x =
    match Hashtbl.find_opt sslots x with
    | Some i -> i
    | None ->
      let i = Hashtbl.length sslots in
      Hashtbl.replace sslots x i;
      i
  in
  (* A reference as its data array, offset closure and the byte address
     of its element 0. *)
  let compile_access (r : Reference.t) =
    let arr = Hashtbl.find data r.Reference.array in
    let g = Intcode.geometry ic r.Reference.array in
    (arr, Intcode.offset ic r, g.Intcode.base, g.Intcode.elem)
  in
  (* Expression evaluation is a stack machine over the preallocated
     [ctx.fstack]: every node stores its value into a destination slot
     and the closures return [unit], so no boxed float ever crosses an
     indirect call — a [ctx -> float] closure would box its result on
     every invocation, which dominated the interpreter's per-access
     allocation. Slot [dst] holds the node's value; a binop evaluates
     its left child into [dst] and its right into [dst + 1], so the
     stack depth is the expression tree's right-spine depth. *)
  let fdepth = ref 1 in
  let rec compile_rexpr label ~dst (e : Stmt.rexpr) : ctx -> unit =
    if dst >= !fdepth then fdepth := dst + 1;
    match e with
    | Stmt.Const v -> fun c -> c.fstack.(dst) <- v
    | Stmt.Scalar x ->
      let i = scalar_slot x in
      fun c -> c.fstack.(dst) <- c.scalars.(i)
    | Stmt.Iexpr ie ->
      let f = Intcode.expr ic ie in
      fun c -> c.fstack.(dst) <- float_of_int (f c.ienv)
    | Stmt.Load r ->
      let arr, offset, base, elem = compile_access r in
      fun c ->
        let off = offset c.ienv in
        c.accesses <- c.accesses + 1;
        observer.Exec.on_access ~label ~addr:(base + (off * elem)) ~write:false;
        c.fstack.(dst) <- Array.get arr off
    | Stmt.Unop (op, a) -> (
      let fa = compile_rexpr label ~dst a in
      (* Direct primitive applications on the slot, not a [g] closure:
         an unknown call returning float would box. *)
      match op with
      | Stmt.Fneg ->
        fun c ->
          fa c;
          c.ops <- c.ops + 1;
          c.fstack.(dst) <- Float.neg c.fstack.(dst)
      | Stmt.Sqrt ->
        fun c ->
          fa c;
          c.ops <- c.ops + 1;
          c.fstack.(dst) <- Float.sqrt (Float.abs c.fstack.(dst))
      | Stmt.Abs ->
        fun c ->
          fa c;
          c.ops <- c.ops + 1;
          c.fstack.(dst) <- Float.abs c.fstack.(dst)
      | Stmt.Exp ->
        fun c ->
          fa c;
          c.ops <- c.ops + 1;
          c.fstack.(dst) <- Float.exp c.fstack.(dst)
      | Stmt.Sin ->
        fun c ->
          fa c;
          c.ops <- c.ops + 1;
          c.fstack.(dst) <- Float.sin c.fstack.(dst)
      | Stmt.Cos ->
        fun c ->
          fa c;
          c.ops <- c.ops + 1;
          c.fstack.(dst) <- Float.cos c.fstack.(dst))
    | Stmt.Binop (op, a, b) -> (
      let fa = compile_rexpr label ~dst a in
      let fb = compile_rexpr label ~dst:(dst + 1) b in
      match op with
      | Stmt.Fadd ->
        fun c ->
          fa c;
          fb c;
          c.ops <- c.ops + 1;
          c.fstack.(dst) <- c.fstack.(dst) +. c.fstack.(dst + 1)
      | Stmt.Fsub ->
        fun c ->
          fa c;
          fb c;
          c.ops <- c.ops + 1;
          c.fstack.(dst) <- c.fstack.(dst) -. c.fstack.(dst + 1)
      | Stmt.Fmul ->
        fun c ->
          fa c;
          fb c;
          c.ops <- c.ops + 1;
          c.fstack.(dst) <- c.fstack.(dst) *. c.fstack.(dst + 1)
      | Stmt.Fdiv ->
        fun c ->
          fa c;
          fb c;
          c.ops <- c.ops + 1;
          c.fstack.(dst) <- c.fstack.(dst) /. c.fstack.(dst + 1)
      | Stmt.Fmin ->
        fun c ->
          fa c;
          fb c;
          c.ops <- c.ops + 1;
          c.fstack.(dst) <- Float.min c.fstack.(dst) c.fstack.(dst + 1)
      | Stmt.Fmax ->
        fun c ->
          fa c;
          fb c;
          c.ops <- c.ops + 1;
          c.fstack.(dst) <- Float.max c.fstack.(dst) c.fstack.(dst + 1))
  in
  let compile_stmt (st : Stmt.t) : ctx -> unit =
    let label = st.Stmt.label in
    let rhs = compile_rexpr label ~dst:0 st.Stmt.rhs in
    match st.Stmt.lhs with
    | Stmt.Store r ->
      let arr, offset, base, elem = compile_access r in
      fun c ->
        c.iterations <- c.iterations + 1;
        observer.Exec.on_stmt ~label;
        rhs c;
        let off = offset c.ienv in
        c.accesses <- c.accesses + 1;
        observer.Exec.on_access ~label ~addr:(base + (off * elem)) ~write:true;
        Array.set arr off c.fstack.(0)
    | Stmt.Scalar_set x ->
      let i = scalar_slot x in
      fun c ->
        c.iterations <- c.iterations + 1;
        observer.Exec.on_stmt ~label;
        rhs c;
        c.scalars.(i) <- c.fstack.(0)
  in
  let rec compile_block (b : Loop.block) : ctx -> unit =
    let fns =
      List.map
        (function
          | Loop.Stmt st -> compile_stmt st
          | Loop.Loop l ->
            Intcode.loop ic l.Loop.header ~env:ienv (compile_block l.Loop.body))
        b
    in
    match fns with
    | [ f ] -> f
    | [ f; g ] -> fun c -> f c; g c
    | fns -> fun c -> List.iter (fun f -> f c) fns
  in
  let main = compile_block p.Program.body in
  let ctx =
    {
      ienv = Intcode.env ic;
      scalars = Array.make (max 1 (Hashtbl.length sslots)) 0.0;
      fstack = Array.make !fdepth 0.0;
      ops = 0;
      accesses = 0;
      iterations = 0;
    }
  in
  main ctx;
  {
    arrays =
      List.map
        (fun (d : Decl.t) -> (d.Decl.name, Hashtbl.find data d.Decl.name))
        p.Program.decls;
    ops = ctx.ops;
    accesses = ctx.accesses;
    iterations = ctx.iterations;
  }
