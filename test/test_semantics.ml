(* Semantic preservation: every transformation the compound algorithm
   performs must leave program results unchanged. Checked on the paper's
   kernels and on randomly generated loop nests (property test). *)

open Locality_ir
module C = Locality_core
module S = Locality_suite
module Exec = Locality_interp.Exec

let checkb = Alcotest.check Alcotest.bool

let equivalent_after_compound ?(tol = 1e-6) p =
  let p', _ = C.Compound.run_program ~cls:4 p in
  Exec.equivalent ~tol p p'

(* ------------------------------------------------------- fixed kernels *)

let matmul order n =
  let open Builder in
  let nn = v "N" in
  let body =
    asn
      (r "C" [ v "I"; v "J" ])
      (ld "C" [ v "I"; v "J" ] +! (ld "A" [ v "I"; v "K" ] *! ld "B" [ v "K"; v "J" ]))
  in
  let rec nest = function
    | [] -> body
    | x :: rest -> do_ (String.make 1 x) (i 1) nn [ nest rest ]
  in
  program ("mm" ^ order)
    ~params:[ ("N", n) ]
    ~arrays:[ ("A", [ nn; nn ]); ("B", [ nn; nn ]); ("C", [ nn; nn ]) ]
    [ nest (List.init (String.length order) (String.get order)) ]

let test_matmul_preserved () =
  List.iter
    (fun o ->
      checkb
        (Printf.sprintf "compound preserves matmul %s" o)
        true
        (equivalent_after_compound (matmul o 8)))
    [ "IJK"; "IKJ"; "JIK"; "JKI"; "KIJ"; "KJI" ]

let test_cholesky_preserved () =
  let open Builder in
  let nn = v "N" in
  let p =
    program "chol" ~params:[ ("N", 12) ] ~arrays:[ ("A", [ nn; nn ]) ]
      [
        do_ "K" (i 1) nn
          [
            asn (r "A" [ v "K"; v "K" ]) (sqrt_ (ld "A" [ v "K"; v "K" ]));
            do_ "I" (v "K" +$ i 1) nn
              [
                asn (r "A" [ v "I"; v "K" ])
                  (ld "A" [ v "I"; v "K" ] /! ld "A" [ v "K"; v "K" ]);
                do_ "J" (v "K" +$ i 1) (v "I")
                  [
                    asn (r "A" [ v "I"; v "J" ])
                      (ld "A" [ v "I"; v "J" ]
                      -! (ld "A" [ v "I"; v "K" ] *! ld "A" [ v "J"; v "K" ]));
                  ];
              ];
          ];
      ]
  in
  checkb "compound preserves cholesky" true (equivalent_after_compound p)

let test_adi_preserved () =
  let open Builder in
  let nn = v "N" in
  let p =
    program "adi" ~params:[ ("N", 12) ]
      ~arrays:[ ("X", [ nn; nn ]); ("A", [ nn; nn ]); ("B", [ nn; nn ]) ]
      [
        do_ "I" (i 2) nn
          [
            do_ "K" (i 1) nn
              [
                asn (r "X" [ v "I"; v "K" ])
                  (ld "X" [ v "I"; v "K" ]
                  -! (ld "X" [ v "I" -$ i 1; v "K" ] *! ld "A" [ v "I"; v "K" ]
                     /! ld "B" [ v "I" -$ i 1; v "K" ]));
              ];
            do_ "K" (i 1) nn
              [
                asn (r "B" [ v "I"; v "K" ])
                  (ld "B" [ v "I"; v "K" ]
                  -! (ld "A" [ v "I"; v "K" ] *! ld "A" [ v "I"; v "K" ]
                     /! ld "B" [ v "I" -$ i 1; v "K" ]));
              ];
          ];
      ]
  in
  checkb "compound preserves ADI" true (equivalent_after_compound p)

let test_reversal_preserved () =
  (* The stencil whose interchange requires reversal. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "stc" ~params:[ ("N", 12) ] ~arrays:[ ("A", [ nn; nn ]) ]
      [
        do_ "I" (i 2) nn
          [
            do_ "J" (i 1) (nn -$ i 1)
              [
                asn (r "A" [ v "I"; v "J" ])
                  (ld "A" [ v "I" -$ i 1; v "J" +$ i 1 ] +! f 1.0);
              ];
          ];
      ]
  in
  checkb "compound preserves reversal-enabled interchange" true
    (equivalent_after_compound p)

(* ------------------------------------------------ random program gen *)

(* Random 2-deep loop nests over four NxN arrays, with small constant
   subscript offsets and occasional transposed or imperfect structure.
   Bounds run 2..N-1 so offsets of +-1 stay in range. *)
let gen_program : Program.t QCheck.Gen.t =
  let open QCheck.Gen in
  let arrays = [ "A"; "B"; "C"; "D" ] in
  let offset = int_range (-1) 1 in
  let sub name off = Builder.(v name +$ i off) in
  let gen_ref =
    let* name = oneofl arrays in
    let* oi = offset and* oj = offset in
    let* transposed = bool in
    let subs =
      if transposed then [ sub "J" oj; sub "I" oi ] else [ sub "I" oi; sub "J" oj ]
    in
    return (Reference.make name subs)
  in
  let gen_stmt =
    let* lhs = gen_ref in
    let* r1 = gen_ref and* r2 = gen_ref in
    let* op =
      oneofl [ (fun a b -> Stmt.Binop (Stmt.Fadd, a, b));
               (fun a b -> Stmt.Binop (Stmt.Fmul, a, b)) ]
    in
    let* c = float_range 0.5 1.5 in
    return
      (Loop.Stmt
         (Stmt.assign lhs
            (Stmt.Binop (Stmt.Fadd, op (Stmt.Load r1) (Stmt.Load r2), Stmt.Const c))))
  in
  (* A statement legal at the I level: subscripts mention only I. *)
  let gen_stmt_outer =
    let* name = oneofl arrays in
    let* oi = offset in
    let* src = oneofl arrays in
    let* oi2 = offset in
    return
      (Loop.Stmt
         (Stmt.assign
            (Reference.make name [ sub "I" oi; Expr.Int 2 ])
            (Stmt.Binop
               ( Stmt.Fadd,
                 Stmt.Load (Reference.make src [ sub "I" oi2; Expr.Int 3 ]),
                 Stmt.Const 0.25 ))))
  in
  let* nstmts = int_range 1 3 in
  let* stmts = list_repeat nstmts gen_stmt in
  let* imperfect = bool in
  let* extra = gen_stmt_outer in
  let open Builder in
  let nn = v "N" in
  let inner = do_ "J" (i 2) (nn -$ i 1) stmts in
  let body = if imperfect then [ extra; inner ] else [ inner ] in
  let nest = do_ "I" (i 2) (nn -$ i 1) body in
  let* nnests = int_range 1 2 in
  let top =
    List.init nnests (fun k ->
        if k = 0 then nest
        else
          (* a second, compatible nest to exercise cross-nest fusion *)
          do_ "I" (i 2) (nn -$ i 1) [ do_ "J" (i 2) (nn -$ i 1) stmts ])
  in
  (* Rebuild with fresh labels to keep them unique across nests. *)
  let relabel =
    let n = ref 0 in
    let rec go = function
      | Loop.Stmt s ->
        incr n;
        Loop.Stmt { s with Stmt.label = Printf.sprintf "R%d" !n }
      | Loop.Loop l -> Loop.Loop { l with Loop.body = List.map go l.Loop.body }
    in
    go
  in
  return
    (program "rand" ~params:[ ("N", 9) ]
       ~arrays:(List.map (fun a -> (a, [ nn; nn ])) arrays)
       (List.map relabel top))

let print_program p = Pretty.program_to_string p

let prop_compound_preserves_semantics =
  QCheck.Test.make ~name:"compound preserves semantics (random nests)"
    ~count:300
    (QCheck.make ~print:print_program gen_program)
    (fun p ->
      let p', _ = C.Compound.run_program ~cls:4 p in
      Exec.equivalent ~tol:1e-6 p p')

let prop_compound_never_raises_cost =
  QCheck.Test.make ~name:"compound never increases LoopCost (random nests)"
    ~count:75
    (QCheck.make ~print:print_program gen_program)
    (fun p ->
      let _, stats = C.Compound.run_program ~cls:4 p in
      List.for_all
        (fun (s : C.Compound.nest_stat) ->
          Poly.compare_dominant s.C.Compound.cost_final s.C.Compound.cost_orig
          <= 0)
        stats.C.Compound.nests)

let prop_permute_preserves_semantics =
  QCheck.Test.make ~name:"permute preserves semantics (random nests)"
    ~count:150
    (QCheck.make ~print:print_program gen_program)
    (fun p ->
      let p' =
        Program.map_body
          (List.map (function
            | Loop.Loop l -> Loop.Loop (C.Permute.run ~cls:4 l).C.Permute.nest
            | n -> n))
          p
      in
      Exec.equivalent ~tol:1e-6 p p')

(* --------------------------------- triangular random generator ------ *)

(* Depth-2 nests whose inner bounds may be triangular in either
   direction, with small subscript offsets: stresses the triangular
   interchange machinery with shapes beyond the hand-written kernels. *)
let gen_triangular : Program.t QCheck.Gen.t =
  let open QCheck.Gen in
  let arrays = [ "A"; "B" ] in
  let offset = int_range (-1) 1 in
  let sub name off = Builder.(v name +$ i off) in
  let* shape = oneofl [ `Rect; `Lower; `Upper ] in
  let* name = oneofl arrays in
  let* src = oneofl arrays in
  let* oi = offset and* oj = offset in
  let* transposed = bool in
  let open Builder in
  let nn = v "N" in
  let mk_subs a b = if transposed then [ b; a ] else [ a; b ] in
  let stmt =
    asn ~label:"TR"
      (r name (mk_subs (sub "I" 0) (sub "J" 0)))
      (ld src (mk_subs (sub "I" oi) (sub "J" oj)) +! f 0.5)
  in
  let inner =
    match shape with
    | `Rect -> do_ "J" (i 2) (nn -$ i 1) [ stmt ]
    | `Lower -> do_ "J" (i 2) (v "I") [ stmt ]
    | `Upper -> do_ "J" (v "I") (nn -$ i 1) [ stmt ]
  in
  return
    (program "tri" ~params:[ ("N", 9) ]
       ~arrays:(List.map (fun a -> (a, [ nn; nn ])) arrays)
       [ do_ "I" (i 2) (nn -$ i 1) [ inner ] ])

let prop_triangular_compound =
  QCheck.Test.make ~name:"compound preserves semantics (triangular nests)"
    ~count:400
    (QCheck.make ~print:print_program gen_triangular)
    (fun p ->
      let p', _ = C.Compound.run_program ~cls:4 p in
      Exec.equivalent ~tol:1e-6 p p')

let prop_tiling_preserves_semantics =
  QCheck.Test.make ~name:"tiling preserves semantics (random tile sizes)"
    ~count:100
    (QCheck.pair (QCheck.make ~print:print_program gen_triangular)
       (QCheck.int_range 1 7))
    (fun (p, tile) ->
      match Program.top_loops p with
      | [ nest ] -> (
        let band =
          List.map
            (fun (h : Loop.header) -> h.Loop.index)
            (Loop.loops_on_spine nest)
        in
        match C.Tiling.tile ~sizes:tile nest ~band with
        | None -> true (* refusing is always safe *)
        | Some tiled ->
          Exec.equivalent ~tol:1e-9 p
            (Program.map_body (fun _ -> [ Loop.Loop tiled ]) p))
      | _ -> true)

let prop_strip_mine_preserves_semantics =
  QCheck.Test.make ~name:"strip-mining any loop preserves semantics"
    ~count:100
    (QCheck.pair (QCheck.make ~print:print_program gen_program)
       (QCheck.int_range 1 9))
    (fun (p, tile) ->
      let p' =
        Program.map_body
          (List.map (function
            | Loop.Loop l ->
              Loop.Loop
                (C.Tiling.strip_mine l ~loop:l.Loop.header.Loop.index ~tile)
            | n -> n))
          p
      in
      Exec.equivalent ~tol:1e-9 p p')

let prop_skew_preserves_semantics =
  QCheck.Test.make ~name:"skewing preserves semantics (random factors)"
    ~count:100
    (QCheck.pair (QCheck.make ~print:print_program gen_triangular)
       (QCheck.int_range 0 3))
    (fun (p, factor) ->
      match Program.top_loops p with
      | [ nest ] ->
        let skewed = C.Skewing.skew nest ~outer:"I" ~inner:"J" ~factor in
        Exec.equivalent ~tol:1e-9 p
          (Program.map_body (fun _ -> [ Loop.Loop skewed ]) p)
      | _ -> true)

let prop_reversal_preserves_semantics =
  QCheck.Test.make ~name:"reversal preserves semantics (random nests)"
    ~count:100
    (QCheck.make ~print:print_program gen_triangular)
    (fun p ->
      match Program.top_loops p with
      | [ nest ] ->
        (* Reversing the outer loop is a pure access-order change only
           when legal; here we only check the mirroring itself preserves
           the iteration set on a dependence-free copy: compare against
           running the reversed nest when the analyzer says it is legal. *)
        let deps =
          List.filter Locality_dep.Depend.is_true_dep
            (Locality_dep.Analysis.deps_in_nest nest)
        in
        if C.Legality.reversal_legal ~deps ~loop:"I" then
          let rev = C.Reversal.apply nest ~loop:"I" in
          Exec.equivalent ~tol:1e-6 p
            (Program.map_body (fun _ -> [ Loop.Loop rev ]) p)
        else true
      | _ -> true)

(* ------------------------------- random sibling nests for fusion ---- *)

(* 2-5 adjacent compatible nests over a shared array pool: exercises the
   fusion DAG (profitability, legality, intervening-dependence checks)
   and the final cross-nest fusion pass of Compound. *)
let gen_siblings : Program.t QCheck.Gen.t =
  let open QCheck.Gen in
  let arrays = [ "A"; "B"; "C" ] in
  let* k = int_range 2 5 in
  let* specs =
    list_repeat k
      (let* dst = oneofl arrays in
       let* src1 = oneofl arrays in
       let* src2 = oneofl arrays in
       let* off = int_range (-1) 1 in
       return (dst, src1, src2, off))
  in
  let open Builder in
  let nn = v "N" in
  let nests =
    List.mapi
      (fun idx (dst, src1, src2, off) ->
        let jj = Printf.sprintf "J%d" idx and ii = Printf.sprintf "I%d" idx in
        do_ jj (i 2) (nn -$ i 1)
          [
            do_ ii (i 2) (nn -$ i 1)
              [
                asn
                  ~label:(Printf.sprintf "F%d" idx)
                  (r dst [ v ii; v jj ])
                  (ld src1 [ v ii +$ i off; v jj ] +! ld src2 [ v ii; v jj ]);
              ];
          ])
      specs
  in
  return
    (program "sib" ~params:[ ("N", 9) ]
       ~arrays:(List.map (fun a -> (a, [ nn; nn ])) arrays)
       nests)

(* Depth-3 random nests over 3-D arrays: exercises multi-loop
   permutation search, 3-deep interchanges and the cost model at rank 3. *)
let gen_deep3 : Program.t QCheck.Gen.t =
  let open QCheck.Gen in
  let offset = int_range (-1) 1 in
  let sub name off = Builder.(v name +$ i off) in
  let* perm = oneofl [ [0;1;2]; [0;2;1]; [1;0;2]; [1;2;0]; [2;0;1]; [2;1;0] ] in
  let* oi = offset and* oj = offset and* ok = offset in
  let* use_b = bool in
  let open Builder in
  let nn = v "N" in
  let names = [| "I"; "J"; "K" |] in
  let order = List.map (fun k -> names.(k)) perm in
  let subs = [ sub "I" oi; sub "J" oj; sub "K" ok ] in
  let rhs =
    if use_b then ld "B3" subs +! ld "A3" [ v "I"; v "J"; v "K" ]
    else ld "A3" subs +! f 0.75
  in
  let body = [ asn ~label:"D3" (r "A3" [ v "I"; v "J"; v "K" ]) rhs ] in
  let rec nest = function
    | [] -> body
    | x :: rest -> [ do_ x (i 2) (nn -$ i 1) (nest rest) ]
  in
  return
    (program "deep3" ~params:[ ("N", 7) ]
       ~arrays:[ ("A3", [ nn; nn; nn ]); ("B3", [ nn; nn; nn ]) ]
       (nest order))

let prop_deep3_compound =
  QCheck.Test.make ~name:"compound preserves semantics (random 3-deep nests)"
    ~count:200
    (QCheck.make ~print:print_program gen_deep3)
    (fun p ->
      let p', _ = C.Compound.run_program ~cls:4 p in
      Exec.equivalent ~tol:1e-6 p p')

let prop_fusion_preserves_semantics =
  QCheck.Test.make ~name:"fuse_block preserves semantics (random siblings)"
    ~count:300
    (QCheck.make ~print:print_program gen_siblings)
    (fun p ->
      let res = C.Fusion.fuse_block ~cls:4 ~outer:[] p.Program.body in
      let p' = Program.map_body (fun _ -> res.C.Fusion.block) p in
      Exec.equivalent ~tol:1e-9 p p')

let prop_compound_preserves_siblings =
  QCheck.Test.make ~name:"compound preserves semantics (random siblings)"
    ~count:150
    (QCheck.make ~print:print_program gen_siblings)
    (fun p ->
      let p', _ = C.Compound.run_program ~cls:4 p in
      Exec.equivalent ~tol:1e-6 p p')

(* ----------------------------------------------- compound fixpoint --- *)

let fixpoint_after_one_pass p =
  let p1, _ = C.Compound.run_program ~cls:4 p in
  let p2, st2 = C.Compound.run_program ~cls:4 p1 in
  st2.C.Compound.fusions_applied = 0
  && st2.C.Compound.distributions = 0
  && List.for_all
       (fun (s : C.Compound.nest_stat) -> not s.C.Compound.permuted)
       st2.C.Compound.nests
  && Pretty.program_to_string p1 = Pretty.program_to_string p2

let test_compound_fixpoint_suite () =
  (* One pass of the compound algorithm must reach a fixpoint: a second
     pass finds nothing left to permute, fuse or distribute. *)
  List.iter
    (fun name ->
      match S.Programs.find name with
      | None -> Alcotest.fail ("unknown program " ^ name)
      | Some e ->
        Alcotest.check Alcotest.bool (name ^ " reaches fixpoint") true
          (fixpoint_after_one_pass (S.Programs.program_of ~n:10 e)))
    [ "arc2d"; "dnasa7"; "appsp"; "erlebacher"; "simple"; "wave" ]

let prop_compound_fixpoint =
  QCheck.Test.make ~name:"compound reaches fixpoint (random nests)" ~count:75
    (QCheck.make ~print:print_program gen_program)
    fixpoint_after_one_pass

let suite =
  [
    ("compound preserves matmul (6 orders)", `Quick, test_matmul_preserved);
    ("compound fixpoint on suite programs", `Quick, test_compound_fixpoint_suite);
    ("compound preserves cholesky", `Quick, test_cholesky_preserved);
    ("compound preserves ADI", `Quick, test_adi_preserved);
    ("compound preserves reversal case", `Quick, test_reversal_preserved);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_compound_preserves_semantics;
        prop_compound_never_raises_cost;
        prop_permute_preserves_semantics;
        prop_triangular_compound;
        prop_tiling_preserves_semantics;
        prop_strip_mine_preserves_semantics;
        prop_skew_preserves_semantics;
        prop_reversal_preserves_semantics;
        prop_fusion_preserves_semantics;
        prop_compound_preserves_siblings;
        prop_deep3_compound;
        prop_compound_fixpoint;
      ]
