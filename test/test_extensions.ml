(* Tests for the optional transformations beyond the compound algorithm:
   tiling (Section 6), skewing (implemented but unused, as in the paper),
   and scalar expansion (the distribution enabler of Section 5.1). *)

open Locality_ir
module C = Locality_core
module S = Locality_suite
module Exec = Locality_interp.Exec
module Measure = Locality_interp.Measure
module Machine = Locality_cachesim.Machine
module D = Locality_dep

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let replace_nest p nest' =
  Program.map_body (fun _ -> [ Loop.Loop nest' ]) p

(* --------------------------------------------------------- tiling ---- *)

let test_strip_mine_iterations () =
  (* Strip-mining must execute exactly the same iterations, including a
     ragged final tile. *)
  let open Builder in
  let p =
    program "sm" ~arrays:[ ("A", [ i 37 ]) ]
      [ do_ "I" (i 1) (i 37) [ asn (r "A" [ v "I" ]) (Stmt.Iexpr (v "I")) ] ]
  in
  let nest = List.hd (Program.top_loops p) in
  let tiled = C.Tiling.strip_mine nest ~loop:"I" ~tile:8 in
  let p' = replace_nest p tiled in
  let r = Exec.run p' in
  checki "same iteration count" 37 r.Exec.iterations;
  checkb "same results" true (Exec.equivalent p p')

let test_strip_mine_errors () =
  let open Builder in
  let p =
    program "sm2" ~arrays:[ ("A", [ i 8 ]) ]
      [ do_ "I" (i 1) (i 8) [ asn (r "A" [ v "I" ]) (f 0.0) ] ]
  in
  let nest = List.hd (Program.top_loops p) in
  Alcotest.check_raises "zero tile"
    (Invalid_argument "Tiling.strip_mine: tile <= 0") (fun () ->
      ignore (C.Tiling.strip_mine nest ~loop:"I" ~tile:0));
  Alcotest.check_raises "missing loop"
    (Invalid_argument "Tiling.strip_mine: loop not found") (fun () ->
      ignore (C.Tiling.strip_mine nest ~loop:"Z" ~tile:4))

let test_tile_matmul_semantics () =
  let p = S.Kernels.matmul ~order:"JKI" 24 in
  let nest = List.hd (Program.top_loops p) in
  match C.Tiling.tile ~sizes:5 nest ~band:[ "K"; "I" ] with
  | None -> Alcotest.fail "matmul band should tile"
  | Some tiled ->
    let p' = replace_nest p tiled in
    checkb "tiled matmul equivalent" true (Exec.equivalent p p');
    (* Spine: J, K_T, I_T, K, I *)
    let spine =
      List.map
        (fun (h : Loop.header) -> h.Loop.index)
        (Loop.loops_on_spine tiled)
    in
    checks "spine shape" "J K_T I_T K I" (String.concat " " spine)

let test_tile_auto_size_blocked_matmul () =
  (* End-to-end: choose a tile size for the i860 cache, block all three
     loops with it, and confirm both semantics and a hit-rate win. *)
  let module TS = Locality_cachesim.Tilesize in
  let n = 48 in
  let p = S.Kernels.matmul ~order:"JKI" n in
  let nest = List.hd (Program.top_loops p) in
  let v = TS.choose Machine.cache2 ~elem_size:8 ~stride:n in
  checkb "auto size conflict-free" true v.TS.conflict_free;
  match C.Tiling.tile ~sizes:v.TS.tile nest ~band:[ "J"; "K"; "I" ] with
  | None -> Alcotest.fail "blocked band should tile"
  | Some tiled ->
    let p' = replace_nest p tiled in
    checkb "auto-tiled matmul equivalent" true (Exec.equivalent p p');
    let before = Measure.measure ~config:Machine.cache2 p in
    let after = Measure.measure ~config:Machine.cache2 p' in
    checkb "auto tile improves hit rate" true
      (Measure.hit_rate after.Measure.whole
      > Measure.hit_rate before.Measure.whole)

let test_tile_improves_matmul_on_small_cache () =
  (* At N=48 the arrays overflow the 8KB cache. A(I,K) is loop-invariant
     with respect to J — exactly the long-term reuse the paper says
     tiling exists to capture — so the band is {J, K}. *)
  let n = 48 in
  let p = S.Kernels.matmul ~order:"JKI" n in
  let nest = List.hd (Program.top_loops p) in
  match C.Tiling.tile ~sizes:8 nest ~band:[ "J"; "K" ] with
  | None -> Alcotest.fail "should tile"
  | Some tiled ->
    let p' = replace_nest p tiled in
    let before = Measure.measure ~config:Machine.cache2 p in
    let after = Measure.measure ~config:Machine.cache2 p' in
    let rb = Measure.hit_rate before.Measure.whole in
    let ra = Measure.hit_rate after.Measure.whole in
    checkb (Printf.sprintf "tiling helps (%.2f%% -> %.2f%%)" rb ra) true
      (ra > rb)

let test_tile_illegal_band () =
  (* The fail2 stencil has a (1,-1) dependence: the band is not fully
     permutable, so tiling must refuse. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "nt" ~params:[ ("N", 12) ] ~arrays:[ ("A", [ nn; nn ]) ]
      [
        do_ "I" (i 2) (nn -$ i 1)
          [
            do_ "J" (i 2) (nn -$ i 1)
              [
                asn (r "A" [ v "I"; v "J" ])
                  (ld "A" [ v "I" -$ i 1; v "J" +$ i 1 ] +! f 1.0);
              ];
          ];
      ]
  in
  let nest = List.hd (Program.top_loops p) in
  checkb "refuses non-permutable band" true
    (C.Tiling.tile nest ~band:[ "I"; "J" ] = None)

let test_tile_recommend () =
  (* matmul JKI: B(K,J) is invariant w.r.t. I and C(I,J) w.r.t. K —
     long-term reuse sits on the non-innermost loops. *)
  let nest = List.hd (Program.top_loops (S.Kernels.matmul ~order:"JKI" 16)) in
  let rec_ = C.Tiling.recommend ~cls:4 nest in
  checkb "recommends K" true (List.mem "K" rec_);
  (* transpose: the outer loop carries the unit stride of one array. *)
  let tnest = List.hd (Program.top_loops (S.Kernels.transpose 16)) in
  checkb "recommends transpose outer" true (C.Tiling.recommend ~cls:4 tnest <> [])

let test_two_level_tiling_semantics () =
  let p = S.Kernels.matmul ~order:"JKI" 21 in
  let nest = List.hd (Program.top_loops p) in
  match C.Tiling.tile ~suffix:"_T2" ~sizes:9 nest ~band:[ "J"; "K" ] with
  | None -> Alcotest.fail "outer tiling failed"
  | Some t2 -> (
    match C.Tiling.tile ~check:false ~sizes:4 t2 ~band:[ "J"; "K" ] with
    | None -> Alcotest.fail "inner tiling failed"
    | Some t3 ->
      let p' = replace_nest p t3 in
      checkb "two-level tiled matmul equivalent" true (Exec.equivalent p p');
      (* 7 loops on the spine. *)
      checki "spine depth" 7 (List.length (Loop.loops_on_spine t3)))

let test_measure_hierarchy () =
  let p = S.Kernels.matmul ~order:"JKI" 32 in
  let r = Measure.measure_hierarchy p in
  checkb "L1 rate sane" true (r.Measure.l1_rate > 0.0 && r.Measure.l1_rate <= 100.0);
  checkb "amat at least 1 cycle" true (r.Measure.amat >= 1.0);
  (* A worse loop order must not get a better AMAT. *)
  let bad = Measure.measure_hierarchy (S.Kernels.matmul ~order:"IKJ" 32) in
  checkb "bad order has higher AMAT" true (bad.Measure.amat >= r.Measure.amat)

(* -------------------------------------------------------- skewing ---- *)

let skewable_stencil n =
  let open Builder in
  let nn = v "N" in
  program "skew" ~params:[ ("N", n) ] ~arrays:[ ("A", [ nn; nn ]) ]
    [
      do_ "I" (i 2) (nn -$ i 1)
        [
          do_ "J" (i 2) (nn -$ i 1)
            [
              asn (r "A" [ v "I"; v "J" ])
                (ld "A" [ v "I" -$ i 1; v "J" +$ i 1 ]
                +! ld "A" [ v "I"; v "J" -$ i 1 ]);
            ];
        ];
    ]

let test_skew_semantics () =
  let p = skewable_stencil 12 in
  let nest = List.hd (Program.top_loops p) in
  let skewed = C.Skewing.skew nest ~outer:"I" ~inner:"J" ~factor:1 in
  let p' = replace_nest p skewed in
  checkb "skewed program equivalent" true (Exec.equivalent p p')

let test_skew_straightens_dependences () =
  (* Skewing by 1 shifts the inner bounds by +I and rewrites the
     subscripts with J-I; the true dependences (1,-1) and (0,1) become
     (1,0) and (0,1). The skewed subscripts are coupled, so the analyzer
     keeps some conservative entries, but no exact distance may be
     negative, and the structure must be as expected. *)
  let p = skewable_stencil 12 in
  let nest = List.hd (Program.top_loops p) in
  let skewed = C.Skewing.skew nest ~outer:"I" ~inner:"J" ~factor:1 in
  let text = Pretty.block_to_string [ Loop.Loop skewed ] in
  checkb "shifted lower bound" true (contains text "DO J = 2+I");
  checkb "rewritten subscript" true (contains text "J-I");
  let deps =
    List.filter D.Depend.is_true_dep (D.Analysis.deps_in_nest skewed)
  in
  checkb "has deps" true (deps <> []);
  List.iter
    (fun (d : D.Depend.t) ->
      checkb
        (Format.asprintf "no negative exact distance: %a" D.Depend.pp d)
        true
        (List.for_all
           (fun e ->
             match e with D.Direction.Dist k -> k >= 0 | _ -> true)
           d.D.Depend.vec))
    deps

let test_skew_errors () =
  let p = skewable_stencil 8 in
  let nest = List.hd (Program.top_loops p) in
  Alcotest.check_raises "missing inner"
    (Invalid_argument "Skewing.skew: inner loop not found") (fun () ->
      ignore (C.Skewing.skew nest ~outer:"I" ~inner:"Z" ~factor:1))

(* --------------------------------------------------- unroll and jam -- *)

let test_unroll_and_jam_matmul () =
  (* N = 10, factor 3: exercises the remainder loop. *)
  List.iter
    (fun factor ->
      let p = S.Kernels.matmul ~order:"JKI" 10 in
      let nest = List.hd (Program.top_loops p) in
      match C.Unroll.unroll_and_jam nest ~loop:"K" ~factor with
      | None -> Alcotest.fail "matmul K should unroll-and-jam"
      | Some block ->
        let p' = Program.map_body (fun _ -> block) p in
        checkb
          (Printf.sprintf "unroll x%d preserves matmul" factor)
          true (Exec.equivalent p p'))
    [ 2; 3; 4 ]

let test_unroll_and_jam_outermost () =
  let p = S.Kernels.matmul ~order:"JKI" 9 in
  let nest = List.hd (Program.top_loops p) in
  match C.Unroll.unroll_and_jam nest ~loop:"J" ~factor:2 with
  | None -> Alcotest.fail "outermost J should unroll-and-jam"
  | Some block ->
    checki "main + remainder nests" 2 (List.length block);
    let p' = Program.map_body (fun _ -> block) p in
    checkb "outermost unroll preserves matmul" true (Exec.equivalent p p')

let test_unroll_and_jam_rejects_recurrence () =
  (* A(I,J) = A(I-1,J+1): interleaving I iterations at the inner level is
     illegal, so jamming I must be refused. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "uj" ~params:[ ("N", 10) ] ~arrays:[ ("A", [ nn; nn ]) ]
      [
        do_ "I" (i 2) (nn -$ i 1)
          [
            do_ "J" (i 2) (nn -$ i 1)
              [
                asn (r "A" [ v "I"; v "J" ])
                  (ld "A" [ v "I" -$ i 1; v "J" +$ i 1 ] +! f 1.0);
              ];
          ];
      ]
  in
  let nest = List.hd (Program.top_loops p) in
  checkb "refused" true (C.Unroll.unroll_and_jam nest ~loop:"I" ~factor:2 = None)

let test_unroll_and_jam_rejects_innermost () =
  let p = S.Kernels.matmul ~order:"JKI" 8 in
  let nest = List.hd (Program.top_loops p) in
  checkb "innermost refused" true
    (C.Unroll.unroll_and_jam nest ~loop:"I" ~factor:2 = None);
  checkb "factor 1 refused" true
    (C.Unroll.unroll_and_jam nest ~loop:"K" ~factor:1 = None)

let test_choose_factor_matmul () =
  (* The balance model: B(K,J+k) copies become scalars, A(I,K) is shared
     by all copies, only the C traffic scales — so more unrolling is
     always better until registers run out. *)
  let p = S.Kernels.matmul ~order:"JKI" 32 in
  let nest = List.hd (Program.top_loops p) in
  let base = C.Unroll.balance_of ~factor:1 nest in
  checki "base scalars" 1 base.C.Unroll.scalars;
  checkb "base mem 3/iter" true (Float.abs (base.C.Unroll.mem_per_orig_iter -. 3.0) < 1e-9);
  checkb "base flops 2/iter" true
    (Float.abs (base.C.Unroll.flops_per_orig_iter -. 2.0) < 1e-9);
  let best, options = C.Unroll.choose_factor nest ~loop:"J" in
  checki "all factors evaluated" 4 (List.length options);
  checki "largest admissible factor wins" 8 best.C.Unroll.factor;
  checkb "mem improves" true
    (best.C.Unroll.mem_per_orig_iter < base.C.Unroll.mem_per_orig_iter);
  let b4, _ = C.Unroll.choose_factor ~max_regs:4 nest ~loop:"J" in
  checki "register limit binds" 4 b4.C.Unroll.factor;
  let b0, _ = C.Unroll.choose_factor ~max_regs:0 nest ~loop:"J" in
  checki "no registers: stay at 1" 1 b0.C.Unroll.factor

let test_choose_factor_middle_loop () =
  (* IJK matmul, jamming the middle J loop: the main nest sits inside
     the outer I loop; map_main must locate it, the balance model must
     see the C accumulators turn into registers, and the whole rebuilt
     program must compute the same product. *)
  let n = 10 in
  let p = S.Kernels.matmul ~order:"IJK" n in
  let nest = List.hd (Program.top_loops p) in
  let best, _ = C.Unroll.choose_factor nest ~loop:"J" in
  checki "factor 8 under default budget" 8 best.C.Unroll.factor;
  checkb "accumulator balance" true
    (Float.abs (best.C.Unroll.mem_per_orig_iter -. (9.0 /. 8.0)) < 1e-9);
  match C.Unroll.unroll_and_jam nest ~loop:"J" ~factor:4 with
  | None -> Alcotest.fail "middle-loop jam should succeed"
  | Some block ->
    checkb "map_main locates the jammed nest" true
      (C.Unroll.map_main block ~loop:"J" ~factor:4 ~f:(fun main ->
           if main.Loop.header.Loop.step <> 4 then
             Alcotest.fail "main nest has the wrong step";
           main)
      <> None);
    (match C.Unroll.map_main block ~loop:"J" ~factor:4 ~f:(fun main ->
         (C.Scalar_replacement.apply main).C.Scalar_replacement.nest)
     with
    | None -> Alcotest.fail "map_main missed the main nest"
    | Some block' ->
      let p' = Program.map_body (fun _ -> block') p in
      checkb "jam + replace preserves matmul" true (Exec.equivalent p p'));
    checkb "map_main misses wrong factor" true
      (C.Unroll.map_main block ~loop:"J" ~factor:5 ~f:Fun.id = None)

let test_choose_factor_recurrence () =
  (* Jamming is illegal across the (1,-1) recurrence: only factor 1. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "rec" ~params:[ ("N", 10) ] ~arrays:[ ("A", [ nn; nn ]) ]
      [
        do_ "I" (i 2) (nn -$ i 1)
          [
            do_ "J" (i 2) (nn -$ i 1)
              [
                asn (r "A" [ v "I"; v "J" ])
                  (ld "A" [ v "I" -$ i 1; v "J" +$ i 1 ] +! f 1.0);
              ];
          ];
      ]
  in
  let nest = List.hd (Program.top_loops p) in
  let best, options = C.Unroll.choose_factor nest ~loop:"I" in
  checki "only the identity option" 1 (List.length options);
  checki "factor 1" 1 best.C.Unroll.factor

(* ---------------------------------------------- scalar replacement --- *)

let test_unroll_then_scalar_replacement () =
  (* The paper's step-3 pipeline: jam J by 4, then the four B(K,J+k)
     copies (plus nothing else) become scalars in the main nest. N = 10
     leaves a remainder nest, which must survive untouched. *)
  let n = 10 in
  let p = S.Kernels.matmul ~order:"JKI" n in
  let nest = List.hd (Program.top_loops p) in
  match C.Unroll.unroll_and_jam nest ~loop:"J" ~factor:4 with
  | None -> Alcotest.fail "matmul J should unroll-and-jam"
  | Some block -> (
    match block with
    | Loop.Loop main :: rest ->
      let sr = C.Scalar_replacement.apply main in
      checki "four B copies replaced" 4 sr.C.Scalar_replacement.replaced;
      let p' =
        Program.map_body
          (fun _ -> Loop.Loop sr.C.Scalar_replacement.nest :: rest)
          p
      in
      checkb "composition preserves matmul" true (Exec.equivalent p p')
    | _ -> Alcotest.fail "expected main nest first")

let test_scalar_replacement_matmul () =
  (* In JKI matmul, B(K,J) is invariant in the inner I loop: it hoists
     into a scalar, cutting one memory access per inner iteration. *)
  let n = 10 in
  let p = S.Kernels.matmul ~order:"JKI" n in
  let nest = List.hd (Program.top_loops p) in
  let r = C.Scalar_replacement.apply nest in
  checki "one reference replaced" 1 r.C.Scalar_replacement.replaced;
  let p' = replace_nest p r.C.Scalar_replacement.nest in
  checkb "semantics preserved" true (Exec.equivalent p p');
  let acc q = (Exec.run q).Exec.accesses in
  (* 4 accesses/iter -> 3 accesses/iter + one load per (J,K). *)
  checki "original accesses" (4 * n * n * n) (acc p);
  checki "replaced accesses" ((3 * n * n * n) + (n * n)) (acc p')

let test_scalar_replacement_written_ref () =
  (* A written invariant reference must be stored back after the loop. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "sr" ~params:[ ("N", 8) ]
      ~arrays:[ ("ACC", [ nn ]); ("V", [ nn; nn ]) ]
      [
        do_ "J" (i 1) nn
          [
            do_ "I" (i 1) nn
              [
                asn (r "ACC" [ v "J" ])
                  (ld "ACC" [ v "J" ] +! ld "V" [ v "I"; v "J" ]);
              ];
          ];
      ]
  in
  let nest = List.hd (Program.top_loops p) in
  let res = C.Scalar_replacement.apply nest in
  checki "accumulator replaced" 1 res.C.Scalar_replacement.replaced;
  let p' = replace_nest p res.C.Scalar_replacement.nest in
  checkb "reduction preserved" true (Exec.equivalent p p');
  (* ACC touched twice per (J) now instead of 2N times. *)
  let n = 8 in
  checki "accesses reduced"
    ((n * n) + (2 * n))
    (Exec.run p').Exec.accesses

let test_scalar_replacement_distinct_offsets () =
  (* W(1,J) and W(2,J) provably never alias: both replace, the written
     one with a store-back. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "sr2" ~params:[ ("N", 8) ]
      ~arrays:[ ("W", [ nn; nn ]) ]
      [
        do_ "J" (i 2) nn
          [
            do_ "I" (i 1) nn
              [
                asn (r "W" [ i 1; v "J" ])
                  (ld "W" [ i 2; v "J" ] +! ld "W" [ i 1; v "J" ]);
              ];
          ];
      ]
  in
  let nest = List.hd (Program.top_loops p) in
  let res = C.Scalar_replacement.apply nest in
  checki "both replaced" 2 res.C.Scalar_replacement.replaced;
  checkb "semantics" true
    (Exec.equivalent p (replace_nest p res.C.Scalar_replacement.nest))

let test_scalar_replacement_skips_may_alias () =
  (* W(M,J) versus W(1,J) where M is a parameter-like outer value: the
     difference is not a known constant, so nothing is replaced for that
     array. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "sr3" ~params:[ ("N", 8) ]
      ~arrays:[ ("W", [ nn; nn ]) ]
      [
        do_ "M" (i 1) nn
          [
            do_ "J" (i 2) nn
              [
                do_ "I" (i 1) nn
                  [
                    asn (r "W" [ v "M"; v "J" ])
                      (ld "W" [ i 1; v "J" ] +! f 1.0);
                  ];
              ];
          ];
      ]
  in
  let nest = List.hd (Program.top_loops p) in
  checki "possible alias blocks replacement" 0
    (C.Scalar_replacement.apply nest).C.Scalar_replacement.replaced

(* ----------------------------------------------------- parallelism --- *)

let test_parallel_matmul () =
  (* J and I (outermost and innermost) are DOALL, the K reduction is
     not. *)
  match C.Parallel.program_summary (S.Kernels.matmul ~order:"JKI" 12) with
  | [ r ] ->
    checki "3 loops" 3 r.C.Parallel.loops;
    checki "2 of 3 doall" 2 r.C.Parallel.doall;
    checkb "outer parallel" true r.C.Parallel.outer_parallel;
    checkb "inner parallel" false r.C.Parallel.inner_sequential
  | _ -> Alcotest.fail "expected one nest"

let test_parallel_simple_tradeoff () =
  (* The paper's Simple: vectorizable inner loop before, recurrence
     innermost after reordering for locality. *)
  let p = S.Kernels.simple_hydro 12 in
  let before = C.Parallel.program_summary p in
  checkb "inner loops parallel before" true
    (List.for_all (fun (r : C.Parallel.report) -> not r.C.Parallel.inner_sequential) before);
  let p', _ = C.Compound.run_program ~cls:4 p in
  let after = C.Parallel.program_summary p' in
  checkb "a recurrence moved innermost" true
    (List.exists (fun (r : C.Parallel.report) -> r.C.Parallel.inner_sequential) after)

let test_parallel_jacobi_all_doall () =
  match C.Parallel.program_summary (S.Kernels.jacobi2d 12) with
  | [ r ] ->
    checki "2 loops" 2 r.C.Parallel.loops;
    checki "both loops doall" 2 r.C.Parallel.doall
  | _ -> Alcotest.fail "expected one nest"

(* ----------------------------------------------- scalar expansion ---- *)

let temp_loop_program () =
  let open Builder in
  let nn = v "N" in
  program "sexp" ~params:[ ("N", 16) ]
    ~arrays:[ ("A", [ nn ]); ("B", [ nn ]); ("CC", [ nn ]) ]
    [
      do_ "I" (i 1) nn
        [
          sasn ~label:"T1" "t" (ld "A" [ v "I" ] *! f 0.5);
          asn ~label:"T2" (r "B" [ v "I" ]) (sc "t" +! f 1.0);
          asn ~label:"T3" (r "CC" [ v "I" ]) (sc "t" *! sc "t");
        ];
    ]

let test_expansion_candidates () =
  let p = temp_loop_program () in
  match C.Scalar_expansion.expand p ~loop:"I" ~scalar:"t" with
  | Error msg -> Alcotest.fail msg
  | Ok p' ->
    checkb "t is expanded into t_X" true
      (Program.decl p' "t_X" <> None)

let test_expansion_enables_distribution () =
  let p = temp_loop_program () in
  let nest = List.hd (Program.top_loops p) in
  (* Before: the scalar's anti-dependences tie everything together. *)
  checkb "blocked before" true
    (C.Distribution.partitions_at nest ~level:1 = None);
  match C.Scalar_expansion.expand p ~loop:"I" ~scalar:"t" with
  | Error msg -> Alcotest.fail msg
  | Ok p' ->
    let nest' = List.hd (Program.top_loops p') in
    (match C.Distribution.partitions_at nest' ~level:1 with
    | Some parts -> checki "three partitions after" 3 (List.length parts)
    | None -> Alcotest.fail "still blocked after expansion");
    (* And B/CC still receive the same values. *)
    let r = Exec.run p and r' = Exec.run p' in
    let b = List.assoc "B" r.Exec.arrays and b' = List.assoc "B" r'.Exec.arrays in
    Array.iteri
      (fun i x ->
        if Float.abs (x -. b'.(i)) > 1e-12 then Alcotest.fail "B differs")
      b

let test_expansion_rejects_escaping_scalar () =
  let open Builder in
  let nn = v "N" in
  let p =
    program "esc" ~params:[ ("N", 8) ] ~arrays:[ ("A", [ nn ]) ]
      [
        do_ "I" (i 1) nn [ sasn "t" (ld "A" [ v "I" ]) ];
        sasn "u" (sc "t" +! f 1.0);
      ]
  in
  match C.Scalar_expansion.expand p ~loop:"I" ~scalar:"t" with
  | Ok _ -> Alcotest.fail "expected escape rejection"
  | Error msg -> checkb "mentions escape" true (contains msg "escapes")

let test_expansion_rejects_use_before_def () =
  let open Builder in
  let nn = v "N" in
  let p =
    program "ubd" ~params:[ ("N", 8) ] ~arrays:[ ("A", [ nn ]) ]
      [
        do_ "I" (i 1) nn
          [
            asn (r "A" [ v "I" ]) (sc "t");
            sasn "t" (ld "A" [ v "I" ] +! f 1.0);
          ];
      ]
  in
  match C.Scalar_expansion.expand p ~loop:"I" ~scalar:"t" with
  | Ok _ -> Alcotest.fail "expected rejection (carried scalar)"
  | Error msg -> checkb "not expandable" true (contains msg "expandable")

let suite =
  [
    ("strip mine iterations", `Quick, test_strip_mine_iterations);
    ("strip mine errors", `Quick, test_strip_mine_errors);
    ("tile matmul semantics", `Quick, test_tile_matmul_semantics);
    ("tile improves small-cache matmul", `Quick, test_tile_improves_matmul_on_small_cache);
    ("tile refuses illegal band", `Quick, test_tile_illegal_band);
    ("tile recommendation", `Quick, test_tile_recommend);
    ("two-level tiling semantics", `Quick, test_two_level_tiling_semantics);
    ("auto tile size blocked matmul", `Quick, test_tile_auto_size_blocked_matmul);
    ("hierarchy measurement", `Quick, test_measure_hierarchy);
    ("skew preserves semantics", `Quick, test_skew_semantics);
    ("skew straightens dependences", `Quick, test_skew_straightens_dependences);
    ("skew errors", `Quick, test_skew_errors);
    ("unroll-and-jam matmul (with remainder)", `Quick, test_unroll_and_jam_matmul);
    ("unroll-and-jam outermost loop", `Quick, test_unroll_and_jam_outermost);
    ("unroll-and-jam rejects recurrence", `Quick, test_unroll_and_jam_rejects_recurrence);
    ("unroll-and-jam rejects innermost/factor", `Quick, test_unroll_and_jam_rejects_innermost);
    ("choose factor (balance)", `Quick, test_choose_factor_matmul);
    ("choose factor middle loop", `Quick, test_choose_factor_middle_loop);
    ("choose factor recurrence", `Quick, test_choose_factor_recurrence);
    ("unroll then scalar replacement", `Quick, test_unroll_then_scalar_replacement);
    ("scalar replacement matmul", `Quick, test_scalar_replacement_matmul);
    ("scalar replacement written ref", `Quick, test_scalar_replacement_written_ref);
    ("scalar replacement distinct offsets", `Quick, test_scalar_replacement_distinct_offsets);
    ("scalar replacement may-alias", `Quick, test_scalar_replacement_skips_may_alias);
    ("parallel loops in matmul", `Quick, test_parallel_matmul);
    ("parallelism trade-off in simple", `Quick, test_parallel_simple_tradeoff);
    ("jacobi fully parallel", `Quick, test_parallel_jacobi_all_doall);
    ("scalar expansion candidates", `Quick, test_expansion_candidates);
    ("expansion enables distribution", `Quick, test_expansion_enables_distribution);
    ("expansion rejects escaping scalar", `Quick, test_expansion_rejects_escaping_scalar);
    ("expansion rejects use-before-def", `Quick, test_expansion_rejects_use_before_def);
  ]
