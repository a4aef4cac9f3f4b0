module Layout = Locality_cachesim.Layout
module Chunk = Locality_cachesim.Chunk

type result = {
  arrays : (string * float array) list;
  ops : int;
  accesses : int;
  iterations : int;
}

type ctx = {
  ienv : int array;  (** loop indices and parameters by slot *)
  scalars : float array;
  fstack : float array;  (** expression evaluation slots, see compile_rexpr *)
  mutable ops : int;
  mutable accesses : int;
  mutable iterations : int;
}

(* Slot allocation for integer variables (params + indices) and scalars.
   The table alone carries the name-to-slot mapping; nothing needs the
   names back in order. *)
type slots = { tbl : (string, int) Hashtbl.t }

let new_slots () = { tbl = Hashtbl.create 16 }

let slot_of s name =
  match Hashtbl.find_opt s.tbl name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length s.tbl in
    Hashtbl.replace s.tbl name i;
    i

let rec compile_expr slots (e : Expr.t) : ctx -> int =
  match e with
  | Expr.Int n -> fun _ -> n
  | Expr.Var x ->
    let i = slot_of slots x in
    fun c -> c.ienv.(i)
  | Expr.Neg a ->
    let fa = compile_expr slots a in
    fun c -> -fa c
  | Expr.Add (a, b) ->
    let fa = compile_expr slots a and fb = compile_expr slots b in
    fun c -> fa c + fb c
  | Expr.Sub (a, b) ->
    let fa = compile_expr slots a and fb = compile_expr slots b in
    fun c -> fa c - fb c
  | Expr.Mul (a, b) ->
    let fa = compile_expr slots a and fb = compile_expr slots b in
    fun c -> fa c * fb c
  | Expr.Min (a, b) ->
    let fa = compile_expr slots a and fb = compile_expr slots b in
    fun c -> min (fa c) (fb c)
  | Expr.Max (a, b) ->
    let fa = compile_expr slots a and fb = compile_expr slots b in
    fun c -> max (fa c) (fb c)
  | Expr.Div (a, b) ->
    let fa = compile_expr slots a and fb = compile_expr slots b in
    fun c ->
      let d = fb c in
      if d = 0 then invalid_arg "Fastexec: division by zero" else fa c / d

let rec mentions x (e : Expr.t) =
  match e with
  | Expr.Int _ -> false
  | Expr.Var y -> String.equal x y
  | Expr.Neg a -> mentions x a
  | Expr.Add (a, b)
  | Expr.Sub (a, b)
  | Expr.Mul (a, b)
  | Expr.Min (a, b)
  | Expr.Max (a, b)
  | Expr.Div (a, b) -> mentions x a || mentions x b

(* [deriv slots idx e] is d[e]/d[idx] as a closure, when [e] is affine
   in [idx] *within one innermost-loop instance*: a subexpression that
   never mentions [idx] is invariant while that loop runs (the body
   cannot write integers), whatever operators it contains, so only the
   [idx]-bearing spine must be built from +/-/negate and multiplication
   by an invariant factor. MIN/MAX/DIV over [idx] are not affine and
   disqualify the reference. *)
let rec deriv slots idx (e : Expr.t) : (ctx -> int) option =
  if not (mentions idx e) then Some (fun _ -> 0)
  else
    match e with
    | Expr.Int _ -> Some (fun _ -> 0)
    | Expr.Var _ -> Some (fun _ -> 1) (* mentions idx, so it is idx *)
    | Expr.Neg a -> (
      match deriv slots idx a with
      | Some f -> Some (fun c -> -f c)
      | None -> None)
    | Expr.Add (a, b) -> (
      match (deriv slots idx a, deriv slots idx b) with
      | Some fa, Some fb -> Some (fun c -> fa c + fb c)
      | _ -> None)
    | Expr.Sub (a, b) -> (
      match (deriv slots idx a, deriv slots idx b) with
      | Some fa, Some fb -> Some (fun c -> fa c - fb c)
      | _ -> None)
    | Expr.Mul (a, b) ->
      if not (mentions idx a) then
        match deriv slots idx b with
        | Some db ->
          let fa = compile_expr slots a in
          Some (fun c -> fa c * db c)
        | None -> None
      else if not (mentions idx b) then
        match deriv slots idx a with
        | Some da ->
          let fb = compile_expr slots b in
          Some (fun c -> da c * fb c)
        | None -> None
      else None
    | Expr.Min _ | Expr.Max _ | Expr.Div _ -> None

(* How the compiled program reports array accesses: not at all, through
   the per-access observer closure, or appended to a run-compressed
   trace buffer (which interns label ids once at compile time, so the
   hot path is a couple of array stores — and qualifying innermost
   loops emit one group descriptor per instance instead of touching
   the buffer per access at all). *)
type mode =
  | Silent
  | Observe of Exec.observer
  | Runbuf of Trace.runbuf

(* References of one statement in execution order: loads left-to-right
   as [compile_rexpr] evaluates them, then the store. *)
let stmt_refs_in_order (st : Stmt.t) =
  let rec loads (e : Stmt.rexpr) =
    match e with
    | Stmt.Const _ | Stmt.Scalar _ | Stmt.Iexpr _ -> []
    | Stmt.Load r -> [ (st.Stmt.label, r, false) ]
    | Stmt.Unop (_, a) -> loads a
    | Stmt.Binop (_, a, b) -> loads a @ loads b
  in
  loads st.Stmt.rhs
  @ (match st.Stmt.lhs with
    | Stmt.Store r -> [ (st.Stmt.label, r, true) ]
    | Stmt.Scalar_set _ -> [])

let exec ~mode ?(init = Exec.default_init) ?params (p : Program.t) =
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
  let data = Hashtbl.create 16 in
  List.iter
    (fun (d : Decl.t) ->
      let n = Layout.size_elements layout d.Decl.name in
      Hashtbl.replace data d.Decl.name (Array.init n (init d.Decl.name)))
    p.Program.decls;
  let slots = new_slots () in
  let sslots = new_slots () in
  List.iter (fun (x, _) -> ignore (slot_of slots x)) params;
  (* Per-array strides (column-major) and base addresses. *)
  let layout_strides = Hashtbl.create 16 in
  List.iter
    (fun (d : Decl.t) ->
      let exts = List.map (fun e -> Expr.eval e param) d.Decl.extents in
      let n = List.length exts in
      let s = Array.make n 1 in
      List.iteri (fun k e -> if k < n - 1 then s.(k + 1) <- s.(k) * e) exts;
      let base = Layout.address layout d.Decl.name (Array.make n 1) in
      let elem = Layout.elem_size layout d.Decl.name in
      Hashtbl.replace layout_strides d.Decl.name (s, base, elem))
    p.Program.decls;
  (* Compile a reference into an (offset, address) pair of closures.
     The offset closure is rank-specialized so the per-access path is a
     pure arithmetic expression over preallocated subscript closures —
     the general rank folds through a tail-recursive helper bound
     outside the closure, so no list node, array or ref cell is
     allocated per access. *)
  let zero_sub = fun (_ : ctx) -> 0 in
  let compile_access (r : Reference.t) =
    let arr = Hashtbl.find data r.Reference.array in
    let s, base, elem = Hashtbl.find layout_strides r.Reference.array in
    let n = List.length r.Reference.subs in
    let fsubs = Array.make (max n 1) zero_sub in
    List.iteri (fun k e -> fsubs.(k) <- compile_expr slots e) r.Reference.subs;
    let offset =
      match n with
      | 0 -> zero_sub
      | 1 ->
        let f0 = fsubs.(0) and s0 = s.(0) in
        fun c -> (f0 c - 1) * s0
      | 2 ->
        let f0 = fsubs.(0) and s0 = s.(0) in
        let f1 = fsubs.(1) and s1 = s.(1) in
        fun c -> ((f0 c - 1) * s0) + ((f1 c - 1) * s1)
      | 3 ->
        let f0 = fsubs.(0) and s0 = s.(0) in
        let f1 = fsubs.(1) and s1 = s.(1) in
        let f2 = fsubs.(2) and s2 = s.(2) in
        fun c -> ((f0 c - 1) * s0) + ((f1 c - 1) * s1) + ((f2 c - 1) * s2)
      | _ ->
        let rec go k acc c =
          if k = n then acc else go (k + 1) (acc + ((fsubs.(k) c - 1) * s.(k))) c
        in
        fun c -> go 0 0 c
    in
    (arr, offset, base, elem)
  in
  (* Byte stride per loop iteration of a reference, as a loop-invariant
     closure — when every subscript is affine in [idx]. *)
  let compile_stride ~idx ~step (r : Reference.t) =
    let s, _, elem = Hashtbl.find layout_strides r.Reference.array in
    let rec go k (subs : Expr.t list) =
      match subs with
      | [] -> Some (fun _ -> 0)
      | sub :: rest -> (
        match (deriv slots idx sub, go (k + 1) rest) with
        | Some d, Some tail ->
          let sk = s.(k) in
          Some (fun c -> (sk * d c) + tail c)
        | _ -> None)
    in
    match go 0 r.Reference.subs with
    | Some slope -> Some (fun c -> step * elem * slope c)
    | None -> None
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
  let rec compile_rexpr mode label ~dst (e : Stmt.rexpr) : ctx -> unit =
    if dst >= !fdepth then fdepth := dst + 1;
    match e with
    | Stmt.Const v -> fun c -> c.fstack.(dst) <- v
    | Stmt.Scalar x ->
      let i = slot_of sslots x in
      fun c -> c.fstack.(dst) <- c.scalars.(i)
    | Stmt.Iexpr ie ->
      let f = compile_expr slots ie in
      fun c -> c.fstack.(dst) <- float_of_int (f c)
    | Stmt.Load r -> (
      let arr, offset, base, elem = compile_access r in
      match mode with
      | Observe observer ->
        fun c ->
          let off = offset c in
          c.accesses <- c.accesses + 1;
          observer.Exec.on_access ~label ~addr:(base + (off * elem))
            ~write:false;
          c.fstack.(dst) <- Array.get arr off
      | Runbuf rb ->
        let lid = Trace.run_intern rb label in
        fun c ->
          let off = offset c in
          c.accesses <- c.accesses + 1;
          Trace.run_record rb ~label:lid ~addr:(base + (off * elem))
            ~write:false;
          c.fstack.(dst) <- Array.get arr off
      | Silent ->
        fun c ->
          c.accesses <- c.accesses + 1;
          c.fstack.(dst) <- Array.get arr (offset c))
    | Stmt.Unop (op, a) -> (
      let fa = compile_rexpr mode label ~dst a in
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
      let fa = compile_rexpr mode label ~dst a in
      let fb = compile_rexpr mode label ~dst:(dst + 1) b in
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
  let compile_stmt mode (st : Stmt.t) : ctx -> unit =
    let label = st.Stmt.label in
    let rhs = compile_rexpr mode label ~dst:0 st.Stmt.rhs in
    match st.Stmt.lhs with
    | Stmt.Store r -> (
      let arr, offset, base, elem = compile_access r in
      match mode with
      | Observe observer ->
        fun c ->
          c.iterations <- c.iterations + 1;
          observer.Exec.on_stmt ~label;
          rhs c;
          let off = offset c in
          c.accesses <- c.accesses + 1;
          observer.Exec.on_access ~label ~addr:(base + (off * elem))
            ~write:true;
          Array.set arr off c.fstack.(0)
      | Runbuf rb ->
        let lid = Trace.run_intern rb label in
        fun c ->
          c.iterations <- c.iterations + 1;
          rhs c;
          let off = offset c in
          c.accesses <- c.accesses + 1;
          Trace.run_record rb ~label:lid ~addr:(base + (off * elem))
            ~write:true;
          Array.set arr off c.fstack.(0)
      | Silent ->
        fun c ->
          c.iterations <- c.iterations + 1;
          rhs c;
          c.accesses <- c.accesses + 1;
          Array.set arr (offset c) c.fstack.(0))
    | Stmt.Scalar_set x -> (
      let i = slot_of sslots x in
      match mode with
      | Observe observer ->
        fun c ->
          c.iterations <- c.iterations + 1;
          observer.Exec.on_stmt ~label;
          rhs c;
          c.scalars.(i) <- c.fstack.(0)
      | Runbuf _ | Silent ->
        fun c ->
          c.iterations <- c.iterations + 1;
          rhs c;
          c.scalars.(i) <- c.fstack.(0))
  in
  let rec compile_block mode (b : Loop.block) : ctx -> unit =
    let fns =
      List.map
        (function
          | Loop.Stmt st -> compile_stmt mode st
          | Loop.Loop l -> compile_loop mode l)
        b
    in
    match fns with
    | [ f ] -> f
    | [ f; g ] -> fun c -> f c; g c
    | fns -> fun c -> List.iter (fun f -> f c) fns
  and compile_loop mode (l : Loop.t) : ctx -> unit =
    match mode with
    | Runbuf rb -> (
      match compile_run_loop rb l with
      | Some f -> f
      | None -> compile_loop_plain mode l)
    | Silent | Observe _ -> compile_loop_plain mode l
  and compile_loop_plain mode (l : Loop.t) : ctx -> unit =
    let h = l.Loop.header in
    let islot = slot_of slots h.Loop.index in
    let flb = compile_expr slots h.Loop.lb in
    let fub = compile_expr slots h.Loop.ub in
    let step = h.Loop.step in
    let body = compile_block mode l.Loop.body in
    if step > 0 then (fun c ->
      let ub = fub c in
      let i = ref (flb c) in
      while !i <= ub do
        c.ienv.(islot) <- !i;
        body c;
        i := !i + step
      done)
    else fun c ->
      let ub = fub c in
      let i = ref (flb c) in
      while !i >= ub do
        c.ienv.(islot) <- !i;
        body c;
        i := !i + step
      done
  (* An innermost loop (straight-line body, no inner control flow) whose
     references all advance by a loop-invariant byte stride compresses
     to one strided-run group per loop instance: the group descriptor is
     emitted at loop entry (base addresses and strides evaluated with
     the index at its lower bound), and the body then runs with silent
     accesses — replaying the group round-robin reproduces the exact
     per-iteration interleaving an observer would have seen. *)
  and compile_run_loop rb (l : Loop.t) : (ctx -> unit) option =
    let h = l.Loop.header in
    let idx = h.Loop.index in
    let step = h.Loop.step in
    if
      not
        (List.for_all
           (function Loop.Stmt _ -> true | Loop.Loop _ -> false)
           l.Loop.body)
    then None
    else begin
      let refs =
        List.concat_map
          (function
            | Loop.Stmt st -> stmt_refs_in_order st
            | Loop.Loop _ -> assert false)
          l.Loop.body
      in
      (* One pass straight into flat preallocated arrays — no Option
         triple list, no Array.of_list temporaries. *)
      let n = List.length refs in
      let packed = Array.make (max n 1) 0 in
      let addr_fns = Array.make (max n 1) zero_sub in
      let stride_fns = Array.make (max n 1) zero_sub in
      let qualifies = ref true in
      List.iteri
        (fun j (label, r, write) ->
          if !qualifies then
            match compile_stride ~idx ~step r with
            | Some stride_fn ->
              let _, offset, base, elem = compile_access r in
              packed.(j) <-
                Chunk.pack ~addr:0 ~write ~label:(Trace.run_intern rb label);
              addr_fns.(j) <- (fun c -> base + (offset c * elem));
              stride_fns.(j) <- stride_fn
            | None -> qualifies := false)
        refs;
      if not !qualifies then None
      else begin
        (* Scratch reused across instances: one compiled loop never
           re-enters itself (no recursion, one ctx per run). *)
        let bases = Array.make (max n 1) 0 in
        let strides_rt = Array.make (max n 1) 0 in
        let islot = slot_of slots idx in
        let flb = compile_expr slots h.Loop.lb in
        let fub = compile_expr slots h.Loop.ub in
        let body = compile_block Silent l.Loop.body in
        Some
          (fun c ->
            let lb = flb c in
            let ub = fub c in
            let trip =
              if step > 0 then if lb > ub then 0 else ((ub - lb) / step) + 1
              else if lb < ub then 0
              else ((lb - ub) / -step) + 1
            in
            if trip > 0 then begin
              if n > 0 then begin
                c.ienv.(islot) <- lb;
                for j = 0 to n - 1 do
                  bases.(j) <- addr_fns.(j) c;
                  strides_rt.(j) <- stride_fns.(j) c
                done;
                Trace.run_group rb ~trip ~packed ~bases ~strides:strides_rt n
              end;
              if step > 0 then begin
                let i = ref lb in
                while !i <= ub do
                  c.ienv.(islot) <- !i;
                  body c;
                  i := !i + step
                done
              end
              else begin
                let i = ref lb in
                while !i >= ub do
                  c.ienv.(islot) <- !i;
                  body c;
                  i := !i + step
                done
              end
            end)
      end
    end
  in
  let main = compile_block mode p.Program.body in
  (* Bound the slot count: compile touched every variable. *)
  let nints = max 1 (Hashtbl.length slots.tbl) in
  let nscal = max 1 (Hashtbl.length sslots.tbl) in
  let ctx =
    {
      ienv = Array.make nints 0;
      scalars = Array.make nscal 0.0;
      fstack = Array.make !fdepth 0.0;
      ops = 0;
      accesses = 0;
      iterations = 0;
    }
  in
  List.iter (fun (x, v) -> ctx.ienv.(Hashtbl.find slots.tbl x) <- v) params;
  main ctx;
  (match mode with
  | Runbuf rb -> Trace.run_flush rb
  | Observe _ | Silent -> ());
  {
    arrays =
      List.map
        (fun (d : Decl.t) -> (d.Decl.name, Hashtbl.find data d.Decl.name))
        p.Program.decls;
    ops = ctx.ops;
    accesses = ctx.accesses;
    iterations = ctx.iterations;
  }

let run ?(observer = Exec.null_observer) ?init ?params p =
  let mode =
    if observer == Exec.null_observer then Silent else Observe observer
  in
  exec ~mode ?init ?params p

let run_traced_runs ?init ?params rb p = exec ~mode:(Runbuf rb) ?init ?params p
