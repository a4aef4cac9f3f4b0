module Chunk = Locality_cachesim.Chunk

type result = {
  ops : int;
  accesses : int;
  iterations : int;
}

type ctx = {
  env : Intcode.env;
  mutable ops : int;
  mutable accesses : int;
  mutable iterations : int;
}

let env c = c.env

(* What one statement instance does that can be observed without its
   values, in the order [Exec] evaluates them: the array
   references (loads left to right, then the store) and the right-hand
   side integer expressions that can raise, i.e. divide. *)
type event =
  | Access of Reference.t * bool  (* reference, write *)
  | Eval of Expr.t

let events (st : Stmt.t) =
  let rec rhs (e : Stmt.rexpr) =
    match e with
    | Stmt.Const _ | Stmt.Scalar _ -> []
    | Stmt.Iexpr ie -> if Intcode.has_div ie then [ Eval ie ] else []
    | Stmt.Load r -> [ Access (r, false) ]
    | Stmt.Unop (_, a) -> rhs a
    | Stmt.Binop (_, a, b) -> rhs a @ rhs b
  in
  rhs st.Stmt.rhs
  @
  match st.Stmt.lhs with
  | Stmt.Store r -> [ Access (r, true) ]
  | Stmt.Scalar_set _ -> []

let refs_of evs =
  List.filter_map (function Access (r, w) -> Some (r, w) | Eval _ -> None) evs

(* Arithmetic operations one instance of the statement executes. *)
let rec op_count (e : Stmt.rexpr) =
  match e with
  | Stmt.Const _ | Stmt.Scalar _ | Stmt.Iexpr _ | Stmt.Load _ -> 0
  | Stmt.Unop (_, a) -> 1 + op_count a
  | Stmt.Binop (_, a, b) -> 1 + op_count a + op_count b

let seq = function
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ f; g ] -> fun c -> f c; g c
  | fns -> fun c -> List.iter (fun f -> f c) fns

(* The straight-line statements of a loop body, if that is all it is. *)
let rec straight_line (b : Loop.block) =
  match b with
  | [] -> Some []
  | Loop.Loop _ :: _ -> None
  | Loop.Stmt st :: rest -> Option.map (List.cons st) (straight_line rest)

let run ?params rb (p : Program.t) =
  let ic = Intcode.prepare ?params p in
  let address = Intcode.address ic in
  let check = function
    | Access (r, _) ->
      let addr = address r in
      fun e -> ignore (addr e)
    | Eval ie ->
      let f = Intcode.expr ic ie in
      fun e -> ignore (f e)
  in
  (* Labels are interned at compile time, in program order, for every
     statement that touches an array. *)
  let label_of (st : Stmt.t) evs =
    match refs_of evs with
    | [] -> 0
    | _ :: _ -> Trace.run_intern rb st.Stmt.label
  in
  (* Per-access path: every event of every instance, each access
     appended as a record. *)
  let compile_stmt (st : Stmt.t) : ctx -> unit =
    let evs = events st in
    let label = label_of st evs in
    let nops = op_count st.Stmt.rhs in
    let body =
      seq
        (List.map
           (function
             | Access (r, write) ->
               let addr = address r in
               fun c ->
                 let a = addr c.env in
                 c.accesses <- c.accesses + 1;
                 Trace.run_record rb ~label ~addr:a ~write
             | Eval _ as ev ->
               let f = check ev in
               fun c -> f c.env)
           evs)
    in
    fun c ->
      c.iterations <- c.iterations + 1;
      c.ops <- c.ops + nops;
      body c
  in
  let rec compile_block (b : Loop.block) = seq (List.map compile_node b)
  and compile_node = function
    | Loop.Stmt st -> compile_stmt st
    | Loop.Loop l -> (
      match compile_group l with
      | Some f -> f
      | None -> Intcode.loop ic l.Loop.header ~env (compile_block l.Loop.body))
  (* An innermost loop with straight-line body whose references all
     advance by a loop-invariant byte stride: one strided-run group per
     instance, bases and strides taken at the first iteration. Replaying
     the group round-robin reproduces the per-iteration interleaving.
     The body is not entered: with its references affine in the index,
     checking every offset at both ends checks them all. A right-hand
     side that divides is evaluated (with every offset, in order) at
     each iteration first, so the first error is the one the
     per-access path would raise. *)
  and compile_group (l : Loop.t) =
    let h = l.Loop.header in
    let idx = h.Loop.index and step = h.Loop.step in
    match straight_line l.Loop.body with
    | None -> None
    | Some stmts -> (
      let evs = List.map events stmts in
      let refs =
        List.concat
          (List.map2
             (fun st evs ->
               let label = label_of st evs in
               List.map (fun (r, write) -> (label, r, write)) (refs_of evs))
             stmts evs)
      in
      let rec strides = function
        | [] -> Some []
        | (_, r, _) :: rest -> (
          match Intcode.stride ic ~idx ~step r with
          | None -> None
          | Some f -> Option.map (List.cons f) (strides rest))
      in
      match strides refs with
      | None -> None
      | Some stride_fns ->
        let packed =
          Array.of_list
            (List.map
               (fun (label, _, write) -> Chunk.pack ~addr:0 ~write ~label)
               refs)
        in
        let n = Array.length packed in
        let addrs = Array.of_list (List.map (fun (_, r, _) -> address r) refs) in
        let stride_fns = Array.of_list stride_fns in
        let evs = List.concat evs in
        let divides = List.exists (function Eval _ -> true | Access _ -> false) evs in
        let check_all = seq (List.map check evs) in
        let nstmts = List.length stmts in
        let nops =
          List.fold_left (fun acc (st : Stmt.t) -> acc + op_count st.Stmt.rhs) 0 stmts
        in
        let islot = Intcode.index_slot ic idx in
        let flb = Intcode.expr ic h.Loop.lb and fub = Intcode.expr ic h.Loop.ub in
        (* Scratch reused across instances: one compiled loop never
           re-enters itself (no recursion, one ctx per run). *)
        let bases = Array.make (max n 1) 0 in
        let strides_rt = Array.make (max n 1) 0 in
        Some
          (fun c ->
            let e = c.env in
            let ub = fub e in
            let lb = flb e in
            let trip = Intcode.trip ~lb ~ub ~step in
            if trip > 0 then begin
              if divides then
                for t = 0 to trip - 1 do
                  e.(islot) <- lb + (t * step);
                  check_all e
                done;
              e.(islot) <- lb;
              for j = 0 to n - 1 do
                bases.(j) <- addrs.(j) e;
                strides_rt.(j) <- stride_fns.(j) e
              done;
              e.(islot) <- lb + ((trip - 1) * step);
              for j = 0 to n - 1 do
                ignore (addrs.(j) e)
              done;
              Trace.run_group rb ~trip ~packed ~bases ~strides:strides_rt n;
              c.iterations <- c.iterations + (trip * nstmts);
              c.accesses <- c.accesses + (trip * n);
              c.ops <- c.ops + (trip * nops)
            end))
  in
  let main = compile_block p.Program.body in
  let ctx = { env = Intcode.env ic; ops = 0; accesses = 0; iterations = 0 } in
  main ctx;
  Trace.run_flush rb;
  { ops = ctx.ops; accesses = ctx.accesses; iterations = ctx.iterations }
