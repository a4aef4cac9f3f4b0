(* Tests for the benchmark suite: each synthetic template must behave
   under the compound algorithm exactly as its name claims, the 35
   program reconstructions must be valid and transformable, and the
   hand-written kernels must compute the right numbers. *)

open Locality_ir
module C = Locality_core
module S = Locality_suite
module Exec = Locality_interp.Exec

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let stats_of spec =
  let p = S.Synth.generate ~n:10 spec in
  let _, st = C.Compound.run_program ~cls:4 p in
  st

let one_nest spec =
  match (stats_of spec).C.Compound.nests with
  | [ s ] -> s
  | l -> Alcotest.failf "expected one nest, got %d" (List.length l)

let z = S.Synth.zero "t"

let test_template_good2 () =
  let s = one_nest { z with S.Synth.good2 = 1 } in
  checkb "orig mem order" true s.C.Compound.orig_mem_order;
  checkb "untouched" false s.C.Compound.permuted

let test_template_perm2 () =
  let s = one_nest { z with S.Synth.perm2 = 1 } in
  checkb "not orig" false s.C.Compound.orig_mem_order;
  checkb "permuted" true s.C.Compound.permuted;
  checkb "final ok" true s.C.Compound.final_mem_order

let test_template_fail2 () =
  let s = one_nest { z with S.Synth.fail2 = 1 } in
  checkb "not orig" false s.C.Compound.orig_mem_order;
  checkb "still failing" false s.C.Compound.final_mem_order;
  checkb "inner not ok" false s.C.Compound.final_inner_ok

let test_template_good3 () =
  let s = one_nest { z with S.Synth.good3 = 1 } in
  checkb "orig mem order" true s.C.Compound.orig_mem_order;
  checki "depth" 3 s.C.Compound.nest_depth

let test_template_perm3 () =
  let s = one_nest { z with S.Synth.perm3 = 1 } in
  checkb "permuted" true s.C.Compound.permuted;
  checkb "final ok" true s.C.Compound.final_mem_order

let test_template_fail3 () =
  let s = one_nest { z with S.Synth.fail3 = 1 } in
  checkb "final inner not ok" false s.C.Compound.final_inner_ok

let test_template_inner3 () =
  let s = one_nest { z with S.Synth.inner3 = 1 } in
  checkb "not full memory order" false s.C.Compound.orig_mem_order;
  checkb "inner already ok" true s.C.Compound.orig_inner_ok;
  checkb "becomes memory order" true s.C.Compound.final_mem_order

let test_template_fail_inner3 () =
  let s = one_nest { z with S.Synth.fail_inner3 = 1 } in
  checkb "not full memory order" false s.C.Compound.orig_mem_order;
  checkb "inner already ok" true s.C.Compound.orig_inner_ok;
  checkb "stays blocked" false s.C.Compound.final_mem_order;
  checkb "inner stays ok" true s.C.Compound.final_inner_ok

let test_template_dist () =
  let st = stats_of { z with S.Synth.dist = 1 } in
  checki "one distribution" 1 st.C.Compound.distributions;
  checki "two partitions" 2 st.C.Compound.distribution_results

let test_template_reduction () =
  let s = one_nest { z with S.Synth.reductions = 1 } in
  checkb "orig mem order" true s.C.Compound.orig_mem_order

let test_template_complex () =
  let s = one_nest { z with S.Synth.complex = 1 } in
  checkb "not orig" false s.C.Compound.orig_mem_order;
  checkb "bounds block it" false s.C.Compound.final_mem_order

let test_template_fuse_pair () =
  let st = stats_of { z with S.Synth.fuse_pairs = 1 } in
  checki "two nests" 2 (List.length st.C.Compound.nests);
  checki "one fusion" 1 st.C.Compound.fusions_applied;
  checkb "candidates counted" true (st.C.Compound.fusion_candidates >= 2)

let test_templates_preserve_semantics () =
  let spec =
    {
      z with
      S.Synth.good2 = 1;
      perm2 = 1;
      fail2 = 1;
      good3 = 1;
      perm3 = 1;
      fail3 = 1;
      inner3 = 1;
      fail_inner3 = 1;
      fuse_pairs = 1;
      dist = 1;
      reductions = 1;
      complex = 1;
      singles = 2;
    }
  in
  let p = S.Synth.generate ~n:8 spec in
  let p', _ = C.Compound.run_program ~cls:4 p in
  checkb "all templates preserve semantics" true
    (Exec.equivalent ~tol:1e-6 p p')

(* Nests of two or more loops in the generated program. *)
let nests spec =
  Program.top_loops (S.Synth.generate spec)
  |> List.filter (fun l -> Loop.depth l >= 2)
  |> List.length

let test_spec_counters () =
  let spec = { z with S.Synth.good2 = 2; perm3 = 1; fuse_pairs = 1; singles = 3 } in
  checki "nests" 5 (nests spec);
  checki "loops" (4 + 3 + 4 + 3) (S.Synth.loops_of spec)

(* -------------------------------------------------------- programs --- *)

let test_programs_all_valid () =
  checki "35 programs" 35 (List.length S.Programs.all);
  List.iter
    (fun e ->
      let p = S.Programs.program_of ~n:6 e in
      match Program.validate p with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s invalid: %s" e.S.Programs.name msg)
    S.Programs.all

let test_programs_shapes () =
  (* Spot-check the derivation against the paper's Table-2 rows. *)
  let get name =
    match S.Programs.find name with
    | Some e -> e
    | None -> Alcotest.failf "missing program %s" name
  in
  let hydro = get "hydro2d" in
  checkb "hydro2d all in memory order" true
    (hydro.S.Programs.spec.S.Synth.fail2 = 0
    && hydro.S.Programs.spec.S.Synth.fail3 = 0
    && hydro.S.Programs.spec.S.Synth.perm2 = 0);
  let buk = get "buk" in
  checki "buk has no nests" 0 (nests buk.S.Programs.spec);
  let doduc = get "doduc" in
  checkb "doduc mostly fails" true
    (doduc.S.Programs.spec.S.Synth.fail2 + doduc.S.Programs.spec.S.Synth.fail3
    > nests doduc.S.Programs.spec / 2)

let test_program_semantics_sample () =
  List.iter
    (fun name ->
      match S.Programs.find name with
      | None -> Alcotest.failf "missing %s" name
      | Some e ->
        let p = S.Programs.program_of ~n:6 e in
        let p', _ = C.Compound.run_program ~cls:4 p in
        checkb (name ^ " preserved") true (Exec.equivalent ~tol:1e-6 p p'))
    [ "mdg"; "tomcatv"; "matrix300"; "linpackd"; "embar" ]

(* --------------------------------------------------------- kernels --- *)

let test_cholesky_factorises () =
  (* Interpreting the KIJ kernel on a diagonally dominant matrix must
     produce a lower-triangular factor with L * L^T = original (on the
     lower triangle). *)
  let n = 8 in
  let p = S.Kernels.cholesky ~form:`KIJ n in
  (* Initial matrix from the default init; make it s.p.d. by hand: the
     interpreter's default init is in [1,2), so A + n*I is dominant...
     instead run both loop forms and compare against each other and
     against a reference factorisation of the same initial matrix. *)
  let init name k =
    if name = "A" then
      let i = k mod n and j = k / n in
      if i = j then float_of_int (n + i) else 1.0 /. float_of_int (1 + abs (i - j))
    else Exec.default_init name k
  in
  let r_kij = Exec.run ~init p in
  let r_kji = Exec.run ~init (S.Kernels.cholesky ~form:`KJI n) in
  let a_kij = List.assoc "A" r_kij.Exec.arrays in
  let a_kji = List.assoc "A" r_kji.Exec.arrays in
  (* The two forms walk different elements above the diagonal; compare
     the lower triangle only, where the factor lives. *)
  for j = 0 to n - 1 do
    for i = j to n - 1 do
      let x = a_kij.((j * n) + i) and y = a_kji.((j * n) + i) in
      if Float.abs (x -. y) > 1e-9 then
        Alcotest.failf "KIJ/KJI disagree at (%d,%d): %f vs %f" i j x y
    done
  done;
  (* Reference: straightforward Cholesky of the same initial matrix. *)
  let a = Array.init (n * n) (init "A") in
  for k = 0 to n - 1 do
    a.((k * n) + k) <- Float.sqrt a.((k * n) + k);
    for i = k + 1 to n - 1 do
      a.((k * n) + i) <- a.((k * n) + i) /. a.((k * n) + k)
    done;
    for j = k + 1 to n - 1 do
      for i = j to n - 1 do
        a.((j * n) + i) <- a.((j * n) + i) -. (a.((k * n) + i) *. a.((k * n) + j))
      done
    done
  done;
  for j = 0 to n - 1 do
    for i = j to n - 1 do
      let x = a.((j * n) + i) and y = a_kij.((j * n) + i) in
      if Float.abs (x -. y) > 1e-9 then
        Alcotest.failf "kernel vs reference at (%d,%d): %f vs %f" i j x y
    done
  done

let test_kernels_transformable () =
  (* Every kernel must go through Compound unchanged in meaning, and the
     strided ones must get strictly cheaper. *)
  List.iter
    (fun (name, mk) ->
      let p = mk 10 in
      let p', stats = C.Compound.run_program ~cls:4 p in
      checkb (name ^ " preserved") true (Exec.equivalent ~tol:1e-5 p p');
      if List.mem name [ "matmul"; "vpenta"; "simple"; "jacobi2d"; "gmtry" ]
      then begin
        let improved =
          List.exists
            (fun (s : C.Compound.nest_stat) ->
              Poly.compare_dominant s.C.Compound.cost_final
                s.C.Compound.cost_orig
              < 0)
            stats.C.Compound.nests
        in
        checkb (name ^ " improved") true improved
      end)
    S.Kernels.all

let test_gmtry_reaches_memory_order () =
  let p = S.Kernels.gmtry 12 in
  let nest = List.hd (Program.top_loops p) in
  let o = C.Permute.run ~cls:4 nest in
  checkb "permuted" true (o.C.Permute.status = C.Permute.Permuted);
  Alcotest.check (Alcotest.list Alcotest.string) "KJI achieved"
    [ "K"; "J"; "I" ] o.C.Permute.achieved

let spine_orders p =
  List.map
    (fun nest ->
      String.concat ""
        (List.map
           (fun (h : Loop.header) -> h.Loop.index)
           (Loop.loops_on_spine nest)))
    (Program.top_loops p)

(* Golden transformed shapes: regression guard for the whole pipeline. *)
let test_golden_orders () =
  let check_orders name p expected =
    let p', _ = C.Compound.run_program ~cls:4 p in
    Alcotest.check (Alcotest.list Alcotest.string) name expected (spine_orders p')
  in
  check_orders "matmul IJK -> JKI" (S.Kernels.matmul ~order:"IJK" 12) [ "JKI" ];
  check_orders "adi fuses to KI" (S.Kernels.adi_fragment 12) [ "KI" ];
  check_orders "gmtry -> KJI" (S.Kernels.gmtry 12) [ "KJI" ];
  check_orders "vpenta -> IJ" (S.Kernels.vpenta 12) [ "IJ" ];
  (* Both sweeps interchange to M-outer and then fuse (they share P, Q
     and RHO): a single nest remains. *)
  check_orders "simple -> one fused ML nest" (S.Kernels.simple_hydro 12)
    [ "ML" ];
  check_orders "jacobi2d -> JI" (S.Kernels.jacobi2d 12) [ "JI" ];
  check_orders "btrix -> KJM" (S.Kernels.btrix 12) [ "KJM" ];
  (* cholesky: distribution leaves one K nest with inner pieces. *)
  let p', _ = C.Compound.run_program ~cls:4 (S.Kernels.cholesky 12) in
  (match Program.top_loops p' with
  | [ nest ] -> Alcotest.check Alcotest.string "cholesky outer" "K" nest.Loop.header.Loop.index
  | _ -> Alcotest.fail "cholesky should stay one top nest")

let test_shallow_water_fuses () =
  let p = S.Kernels.shallow_water 12 in
  let p', st = C.Compound.run_program ~cls:4 p in
  checkb "fusion happened" true (st.C.Compound.fusions_applied >= 1);
  checkb "semantics" true (Exec.equivalent p p')

let test_erlebacher_compound_fuses () =
  (* Compound on the distributed version permutes the F sweep into its
     memory order and fuses the compatible G/UX sweeps — two nests
     remain, semantics intact. *)
  let p = S.Kernels.erlebacher_distributed 8 in
  let p', st = C.Compound.run_program ~cls:4 p in
  checkb "some fusion" true (st.C.Compound.fusions_applied >= 1);
  checki "two top nests" 2 (List.length (Program.top_loops p'));
  checkb "semantics" true (Exec.equivalent p p')

let test_erlebacher_versions_agree () =
  let n = 8 in
  checkb "hand == distributed" true
    (Exec.equivalent (S.Kernels.erlebacher_hand n) (S.Kernels.erlebacher_distributed n));
  checkb "distributed == fused" true
    (Exec.equivalent (S.Kernels.erlebacher_distributed n) (S.Kernels.erlebacher_fused n))

let test_adi_versions_agree () =
  checkb "adi == adi_fused" true
    (Exec.equivalent (S.Kernels.adi_fragment 10) (S.Kernels.adi_fused 10))

let test_lu_factorises () =
  (* The LU kernel must produce the textbook in-place LU factors of the
     same (diagonally dominant) initial matrix, and the transformed
     program must reach the column-oriented (J,I) update order. *)
  let n = 8 in
  let init name k =
    if name = "A" then
      let i = k mod n and j = k / n in
      if i = j then float_of_int (n + i)
      else 1.0 /. float_of_int (1 + abs (i - j))
    else Exec.default_init name k
  in
  let p = S.Kernels.lu n in
  let got = List.assoc "A" (Exec.run ~init p).Exec.arrays in
  (* Reference LU (column-major, 0-based). *)
  let a = Array.init (n * n) (init "A") in
  for k = 0 to n - 2 do
    for i = k + 1 to n - 1 do
      a.((k * n) + i) <- a.((k * n) + i) /. a.((k * n) + k)
    done;
    for j = k + 1 to n - 1 do
      for i = k + 1 to n - 1 do
        a.((j * n) + i) <- a.((j * n) + i) -. (a.((k * n) + i) *. a.((j * n) + k))
      done
    done
  done;
  Array.iteri
    (fun k x ->
      if Float.abs (x -. got.(k)) > 1e-9 then
        Alcotest.failf "LU mismatch at %d: %f vs %f" k x got.(k))
    a;
  let p', _ = C.Compound.run_program ~cls:4 p in
  checkb "semantics preserved" true (Exec.equivalent ~tol:1e-9 p p');
  (* The update nest's loops must now run J outer, I inner. *)
  let text = Pretty.program_to_string p' in
  let contains sub =
    let m = String.length sub and l = String.length text in
    let rec go i = i + m <= l && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  checkb "column-oriented update" true
    (contains "DO J = K+1, N" && contains "DO I = K+1, N")

let suite =
  [
    ("template good2", `Quick, test_template_good2);
    ("template perm2", `Quick, test_template_perm2);
    ("template fail2", `Quick, test_template_fail2);
    ("template good3", `Quick, test_template_good3);
    ("template perm3", `Quick, test_template_perm3);
    ("template fail3", `Quick, test_template_fail3);
    ("template inner3", `Quick, test_template_inner3);
    ("template fail_inner3", `Quick, test_template_fail_inner3);
    ("template dist", `Quick, test_template_dist);
    ("template reduction", `Quick, test_template_reduction);
    ("template complex bounds", `Quick, test_template_complex);
    ("template fuse pair", `Quick, test_template_fuse_pair);
    ("all templates preserve semantics", `Quick, test_templates_preserve_semantics);
    ("spec counters", `Quick, test_spec_counters);
    ("35 programs valid", `Quick, test_programs_all_valid);
    ("program shapes from Table 2", `Quick, test_programs_shapes);
    ("program semantics (sample)", `Quick, test_program_semantics_sample);
    ("cholesky kernels factorise", `Quick, test_cholesky_factorises);
    ("lu factorises + column order", `Quick, test_lu_factorises);
    ("all kernels transformable", `Quick, test_kernels_transformable);
    ("gmtry reaches KJI", `Quick, test_gmtry_reaches_memory_order);
    ("golden transformed orders", `Quick, test_golden_orders);
    ("shallow water fuses", `Quick, test_shallow_water_fuses);
    ("erlebacher compound fuses", `Quick, test_erlebacher_compound_fuses);
    ("erlebacher versions agree", `Quick, test_erlebacher_versions_agree);
    ("adi versions agree", `Quick, test_adi_versions_agree);
  ]
