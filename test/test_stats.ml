(* Tests for the statistics and reporting layer: Table 2 rows, the
   performance tables, Table 5 access properties, the figures, and the
   report renderer. *)

module C = Locality_core
module S = Locality_suite
module St = Locality_stats

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A small, fast row set shared by the tests. *)
let rows =
  lazy
    (List.filter_map
       (fun name ->
         Option.map (St.Table2.compute_row ~n:8) (S.Programs.find name))
       [ "arc2d"; "hydro2d"; "mdg"; "buk"; "tomcatv" ])

(* A malformed measured-row list (wrong machine count) must raise a
   typed error naming the caller and the offending program, not trip an
   anonymous assertion. *)
let test_two_machine_rows () =
  let a, b =
    St.Perf.two_machine_rows ~where:"test" ~program:"synthetic" [ 1; 2 ]
  in
  checki "fst" 1 a;
  checki "snd" 2 b;
  let raised_with msg f =
    match f () with
    | exception Invalid_argument m -> contains m msg
    | _ -> false
  in
  checkb "short list names program" true
    (raised_with "\"synthetic\"" (fun () ->
         St.Perf.two_machine_rows ~where:"test" ~program:"synthetic" [ 1 ]));
  checkb "long list names caller" true
    (raised_with "Perf.table4_rows" (fun () ->
         St.Perf.two_machine_rows ~where:"Perf.table4_rows"
           ~program:"synthetic" [ 1; 2; 3 ]));
  checkb "reports count" true
    (raised_with "got 3" (fun () ->
         St.Perf.two_machine_rows ~where:"test" ~program:"synthetic"
           [ 1; 2; 3 ]))

(* ---------------------------------------------------------- report --- *)

let test_report_render () =
  let s =
    St.Report.render ~title:"T" ~note:"n"
      [ St.Report.Left ]
      [ "a"; "bb" ]
      [ [ "x"; "1" ]; [ "yyy"; "22" ] ]
  in
  checkb "has title" true (contains s "== T ==");
  checkb "aligned" true (contains s "yyy  22");
  checkb "separator" true (contains s "---")

let test_report_histogram () =
  let s =
    St.Report.histogram ~title:"H" ~buckets:[ ("a", 2); ("b", 4) ] ~total:6
  in
  checkb "scaled bars" true (contains s "####");
  checkb "total" true (contains s "total: 6")

(* ---------------------------------------------------------- table2 --- *)

let test_table2_row_consistency () =
  List.iter
    (fun (r : St.Table2.row) ->
      checki
        (r.St.Table2.entry.S.Programs.name ^ " partition")
        r.St.Table2.nests
        (r.St.Table2.orig + r.St.Table2.perm + r.St.Table2.fail);
      checki
        (r.St.Table2.entry.S.Programs.name ^ " inner partition")
        r.St.Table2.nests
        (r.St.Table2.inner_orig + r.St.Table2.inner_perm + r.St.Table2.inner_fail);
      checkb "ratio final >= 1" true (r.St.Table2.ratio_final >= 0.999);
      checkb "ideal >= final" true
        (r.St.Table2.ratio_ideal >= r.St.Table2.ratio_final -. 1e-9))
    (Lazy.force rows)

let test_table2_loops_counted () =
  match S.Programs.find "mdg" with
  | None -> Alcotest.fail "mdg missing"
  | Some e ->
    let p = S.Programs.program_of ~n:8 e in
    checki "count_loops matches generator" (S.Synth.loops_of e.S.Programs.spec)
      (St.Table2.count_loops p)

let test_table2_render () =
  let s = St.Table2.render (Lazy.force rows) in
  checkb "has program" true (contains s "arc2d");
  checkb "has totals" true (contains s "totals")

let test_pct () =
  checkf "pct" 50.0 (St.Table2.pct 1 2);
  checkf "pct zero" 0.0 (St.Table2.pct 1 0)

(* ------------------------------------------------------ perf tables --- *)

let test_table4_rows () =
  let hit_rows = St.Perf.table4_rows ~n:8 (Lazy.force rows) in
  (* buk has no nests and is dropped. *)
  checki "buk dropped" 4 (List.length hit_rows);
  List.iter
    (fun (h : St.Perf.hit_row) ->
      checkb (h.St.Perf.name ^ " whole1 sane") true
        (h.St.Perf.whole1_orig >= 0.0 && h.St.Perf.whole1_orig <= 100.0);
      checkb
        (h.St.Perf.name ^ " transformed never worse (cache1 whole)")
        true
        (h.St.Perf.whole1_final >= h.St.Perf.whole1_orig -. 0.5))
    hit_rows

let test_table1_renders () =
  let s = St.Perf.table1 ~n:12 () in
  checkb "three versions" true
    (contains s "Hand coded" && contains s "Fused")

let test_table3_rows () =
  let rows = St.Perf.table3_rows ~n:24 () in
  checkb "has rows" true (List.length rows >= 8);
  List.iter
    (fun (r : St.Perf.perf_row) ->
      checkb (r.St.Perf.name ^ " speedup1 not a slowdown") true
        (r.St.Perf.speedup >= 0.95);
      checkb (r.St.Perf.name ^ " speedup2 not a slowdown") true
        (r.St.Perf.speedup2 >= 0.95))
    rows

(* -------------------------------------------------------- table5 ----- *)

let test_access_stats_matmul () =
  let p = S.Kernels.matmul ~order:"JKI" 16 in
  let st = C.Access_stats.of_program ~cls:4 p in
  (* Groups: C (unit), A (unit), B (invariant) w.r.t. inner I. *)
  let total f =
    f st.C.Access_stats.inv + f st.C.Access_stats.unit_ + f st.C.Access_stats.none
  in
  checki "3 groups" 3 (total (fun c -> c.C.Access_stats.groups));
  checki "1 invariant" 1 st.C.Access_stats.inv.C.Access_stats.groups;
  checki "2 unit" 2 st.C.Access_stats.unit_.C.Access_stats.groups;
  (* C appears twice textually. *)
  checki "refs total" 4 (total (fun c -> c.C.Access_stats.refs))

let test_access_stats_ideal_vs_actual () =
  (* The worst matmul order classifies everything as no-reuse until the
     ideal view re-evaluates with I innermost. *)
  let p = S.Kernels.matmul ~order:"IKJ" 16 in
  let actual = C.Access_stats.of_program ~which:`Actual ~cls:4 p in
  let ideal = C.Access_stats.of_program ~which:`Ideal ~cls:4 p in
  checkb "actual has fewer unit groups" true
    (actual.C.Access_stats.unit_.C.Access_stats.groups
    < ideal.C.Access_stats.unit_.C.Access_stats.groups)

let test_table5_renders () =
  let s = St.Table5.render_for (Lazy.force rows) in
  checkb "has all-programs row" true (contains s "all programs");
  checkb "has versions" true (contains s "ideal")

(* -------------------------------------------------------- figures ---- *)

let test_fig2_contents () =
  let s = St.Figures.fig2 ~n_sim:16 () in
  checkb "symbolic table" true (contains s "2N^3 + N^2");
  checkb "ranking present" true (contains s "JKI");
  checkb "measured table" true (contains s "cache2(s)")

let test_fig3_contents () =
  let s = St.Figures.fig3 ~n:12 () in
  checkb "profitability" true (contains s "fusion weight");
  checkb "transformed shown" true (contains s "DO K = 1, N")

let test_fig7_contents () =
  let s = St.Figures.fig7 ~n_sim:16 () in
  checkb "cost table" true (contains s "A(J,K)");
  checkb "interchanged output" true (contains s "DO I = J, N")

let test_fig8_buckets () =
  let s = St.Figures.fig8 (Lazy.force rows) in
  checkb "original histogram" true (contains s "original");
  checkb "transformed histogram" true (contains s "transformed");
  (* 4 programs with nests (buk excluded) *)
  checkb "total 4" true (contains s "total: 4")

let test_csv_export () =
  let s2 = St.Csv.table2 (Lazy.force rows) in
  checkb "header row" true (contains s2 "program,group,lines");
  checkb "program present" true (contains s2 "arc2d,Perfect");
  checkb "escaping" true
    (St.Csv.escape "a,b" = "\"a,b\"" && St.Csv.escape "plain" = "plain"
    && St.Csv.escape "say \"hi\"" = "\"say \"\"hi\"\"\"");
  let lines = String.split_on_char '\n' (String.trim s2) in
  checki "one line per program + header" (List.length (Lazy.force rows) + 1)
    (List.length lines)

let test_fig2_ranking_monotone () =
  (* The simulated times on cache2 must follow the predicted ranking:
     {JKI,KJI} < {JIK,IJK} < {KIJ,IKJ}. *)
  let time order =
    let p = S.Kernels.matmul ~order 64 in
    let r =
      Locality_interp.Measure.measure
        ~config:Locality_cachesim.Machine.cache2 p
    in
    r.Locality_interp.Measure.seconds
  in
  let best = Float.max (time "JKI") (time "KJI") in
  let mid_lo = Float.min (time "JIK") (time "IJK") in
  let mid_hi = Float.max (time "JIK") (time "IJK") in
  let worst = Float.min (time "KIJ") (time "IKJ") in
  checkb "best group < middle group" true (best < mid_lo);
  checkb "middle group < worst group" true (mid_hi < worst)

let test_ablation_smoke () =
  List.iter
    (fun (name, f) ->
      let s = f () in
      checkb (name ^ " non-empty") true (String.length s > 80))
    [
      ("transforms", fun () -> St.Ablation.transforms ~n:16 ());
      ("tiling", fun () -> St.Ablation.tiling ~n:24 ());
      ("cls", St.Ablation.cls_sensitivity);
      ("multilevel", fun () -> St.Ablation.multilevel ~n:24 ());
      ("parallelism", St.Ablation.parallelism);
    ]

let test_table2_headline_totals () =
  (* The reproduction's headline claim, pinned: across the 35 synthetic
     programs the compiler leaves 69% of nests in memory order, permutes
     11% and fails 20% (paper: 69/11/20); the inner loop is right
     originally in 74% and wrong finally in 17% (paper: 74/.../15); 45
     fusions and 17 distributions yielding 34 nests. The totals are
     size-independent (the cost model is symbolic), so n=6 is enough. *)
  let rows = St.Table2.compute ~n:6 () in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  checki "programs" 35 (List.length rows);
  checki "nests" 711 (sum (fun r -> r.St.Table2.nests));
  checki "originally in memory order" 488 (sum (fun r -> r.St.Table2.orig));
  checki "permuted into memory order" 81 (sum (fun r -> r.St.Table2.perm));
  checki "failed" 142 (sum (fun r -> r.St.Table2.fail));
  checki "inner originally ok" 526 (sum (fun r -> r.St.Table2.inner_orig));
  checki "inner permuted" 66 (sum (fun r -> r.St.Table2.inner_perm));
  checki "inner failed" 119 (sum (fun r -> r.St.Table2.inner_fail));
  checki "fusions applied" 45 (sum (fun r -> r.St.Table2.fusions));
  checki "distributions" 17 (sum (fun r -> r.St.Table2.dist));
  checki "distribution results" 34 (sum (fun r -> r.St.Table2.dist_results))

(* The reuse ablation, byte for byte: mean distance and fully
   associative prediction from the exact sampler profile. *)
let test_ablation_reuse_pinned () =
  Alcotest.(check string)
    "reuse ablation at N=16"
    (String.concat ""
       [
         "== Ablation: reuse-distance profiles of matmul orders (N=16) ==\n";
         "Mean reuse distance explains the ranking; the fully-associative        prediction upper-bounds the simulated 2-way cache2 rate (the gap        is conflict misses).\n";
         "Order  MeanDist  FA-LRU pred%  2-way sim%\n";
         "-----  --------  ------------  ----------\n";
         "JKI           6        100.00      100.00\n";
         "KJI           8        100.00      100.00\n";
         "JIK          10        100.00      100.00\n";
         "IJK          13        100.00      100.00\n";
         "KIJ          20        100.00      100.00\n";
         "IKJ          22        100.00      100.00\n";
       ])
    (St.Ablation.reuse_profile ~n:16 ())

let suite =
  [
    ("csv export", `Quick, test_csv_export);
    ("table2 headline totals", `Quick, test_table2_headline_totals);
    ("fig2 measured ranking monotone", `Quick, test_fig2_ranking_monotone);
    ("ablations render", `Quick, test_ablation_smoke);
    ("report render", `Quick, test_report_render);
    ("two machine rows typed error", `Quick, test_two_machine_rows);
    ("report histogram", `Quick, test_report_histogram);
    ("table2 row consistency", `Quick, test_table2_row_consistency);
    ("table2 loop counting", `Quick, test_table2_loops_counted);
    ("table2 renders", `Quick, test_table2_render);
    ("pct helper", `Quick, test_pct);
    ("table4 rows", `Quick, test_table4_rows);
    ("table1 renders", `Quick, test_table1_renders);
    ("table3 no slowdowns", `Quick, test_table3_rows);
    ("access stats matmul", `Quick, test_access_stats_matmul);
    ("access stats ideal vs actual", `Quick, test_access_stats_ideal_vs_actual);
    ("table5 renders", `Quick, test_table5_renders);
    ("fig2 contents", `Quick, test_fig2_contents);
    ("fig3 contents", `Quick, test_fig3_contents);
    ("fig7 contents", `Quick, test_fig7_contents);
    ("fig8 buckets", `Quick, test_fig8_buckets);
    ("reuse ablation pinned", `Quick, test_ablation_reuse_pinned);
  ]
