module C = Locality_core
module S = Locality_suite
module D = Locality_driver.Driver
module Settings = Locality_driver.Settings
module Measure = Locality_interp.Measure
module Machine = Locality_cachesim.Machine

(* Measure a fixed program as-is on some geometries, via the pipeline
   driver. *)
let keep_runs settings name program machines =
  let r =
    D.run_exn
      (Settings.config settings ~transform:D.Keep ~machines
         (D.Source_program { name; program }))
  in
  List.map (fun m -> m.D.original_run) r.D.measured

let cost_table ~title nest candidates =
  let table = C.Loopcost.group_cost_table ~nest ~cls:4 ~candidates in
  let rows =
    List.map
      (fun ((g : C.Refgroup.group), costs) ->
        Reference.to_string g.C.Refgroup.rep.C.Refgroup.ref_
        :: List.map (fun (_, c) -> Poly.to_string c) costs)
      table
  in
  let totals =
    "total"
    :: List.map
         (fun cand ->
           Poly.to_string (C.Loopcost.loop_cost ~nest ~cls:4 cand))
         candidates
  in
  Report.render ~title [ Report.Left ]
    ("RefGroup" :: candidates)
    (rows @ [ totals ])

let fig2 ?(settings = Settings.default ()) ?(n_sim = 64) () =
  let buf = Buffer.create 4096 in
  let nest = List.hd (Program.top_loops (S.Kernels.matmul ~order:"JKI" 64)) in
  Buffer.add_string buf
    (cost_table ~title:"Figure 2: Matrix Multiply LoopCost (cls = 4)" nest
       [ "J"; "K"; "I" ]);
  (* Ranking: LoopCost of the innermost loop of each order. *)
  let ranked =
    List.map
      (fun order ->
        let inner = String.make 1 order.[2] in
        (order, C.Loopcost.loop_cost ~nest ~cls:4 inner))
      S.Kernels.matmul_orders
  in
  Buffer.add_string buf "\nPredicted ranking (innermost-loop cost, best first):\n";
  List.iter
    (fun (order, c) ->
      Buffer.add_string buf (Printf.sprintf "  %s: %s\n" order (Poly.to_string c)))
    ranked;
  (* Simulated execution times for every order: each order is
     interpreted once and its trace replayed on both cache geometries,
     with the orders simulated in parallel. *)
  let rows =
    Locality_par.Pool.map ~jobs:settings.Settings.jobs
      (fun order ->
        let r1, r2 =
          Perf.two_machine_rows ~where:"Figures.fig2"
            ~program:("matmul-" ^ order)
            (keep_runs settings ("matmul-" ^ order)
               (S.Kernels.matmul ~order n_sim)
               [ Machine.cache1; Machine.cache2 ])
        in
        [
          order;
          Printf.sprintf "%.4f" r1.Measure.seconds;
          Report.fmt_pct (Measure.hit_rate ~exclude_cold:false r1.Measure.whole);
          Printf.sprintf "%.4f" r2.Measure.seconds;
          Report.fmt_pct (Measure.hit_rate ~exclude_cold:false r2.Measure.whole);
        ])
      S.Kernels.matmul_orders
  in
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    (Report.render
       ~title:
         (Printf.sprintf
            "Figure 2 (measured): matmul N=%d, all orders, modelled time"
            n_sim)
       ~note:"Orders listed in the paper's predicted best-to-worst ranking."
       [ Report.Left ]
       [ "Order"; "cache1(s)"; "hit1%"; "cache2(s)"; "hit2%" ]
       rows);
  Buffer.contents buf

let fig3 ?(settings = Settings.default ()) ?(n = 48) () =
  let buf = Buffer.create 4096 in
  let adi = S.Kernels.adi_fragment 64 in
  let outer = List.hd (Program.top_loops adi) in
  (match Loop.inner_loops outer with
  | [ k1; k2 ] ->
    let fused = C.Fusion.fuse_to_depth k1 k2 ~depth:1 in
    let unfused_cost name l =
      Printf.sprintf "  LoopCost(K | %s) = %s\n" name
        (Poly.to_string (C.Loopcost.loop_cost ~nest:l ~cls:4 "K"))
    in
    Buffer.add_string buf "== Figure 3: ADI loop fusion profitability (cls = 4) ==\n";
    Buffer.add_string buf (unfused_cost "S1 nest" k1);
    Buffer.add_string buf (unfused_cost "S2 nest" k2);
    Buffer.add_string buf
      (Printf.sprintf "  LoopCost(K | fused) = %s\n"
         (Poly.to_string (C.Loopcost.loop_cost ~nest:fused ~cls:4 "K")));
    Buffer.add_string buf
      (Printf.sprintf "  fusion weight (unfused - fused, best orders) = %s\n"
         (Poly.to_string
            (C.Fusion.weight ~cls:4 ~outer:[ outer.Loop.header ] k1 k2 ~depth:1)))
  | _ -> ());
  let transformed, _ = C.Compound.run_program ~cls:4 adi in
  Buffer.add_string buf "\nTransformed program (fused + interchanged):\n";
  Buffer.add_string buf (Pretty.program_to_string transformed);
  Buffer.add_string buf "\n\nMeasured (cache2 model):\n";
  let one name p =
    List.hd (keep_runs settings name p [ Machine.cache2 ])
  in
  let r_orig = one "adi-fragment" (S.Kernels.adi_fragment n) in
  let r_fused = one "adi-fused" (S.Kernels.adi_fused n) in
  Buffer.add_string buf
    (Printf.sprintf "  original: %.4fs (hit %.2f%%)  fused+interchanged: %.4fs (hit %.2f%%)\n"
       r_orig.Measure.seconds
       (Measure.hit_rate ~exclude_cold:false r_orig.Measure.whole)
       r_fused.Measure.seconds
       (Measure.hit_rate ~exclude_cold:false r_fused.Measure.whole));
  Buffer.contents buf

let fig7 ?(settings = Settings.default ()) ?(n_sim = 64) () =
  let buf = Buffer.create 4096 in
  let nest = List.hd (Program.top_loops (S.Kernels.cholesky 64)) in
  Buffer.add_string buf
    (cost_table ~title:"Figure 7: Cholesky LoopCost (cls = 4)" nest
       [ "K"; "J"; "I" ]);
  let transformed, _ =
    C.Compound.run_program ~cls:4 (S.Kernels.cholesky 64)
  in
  Buffer.add_string buf
    "\nTransformed (distribution + triangular interchange):\n";
  Buffer.add_string buf (Pretty.program_to_string transformed);
  let sp, r1, r2 =
    let r =
      D.run_exn
        (Settings.config settings ~cls:4
           ~machines:[ Machine.cache2 ]
           (D.Source_program
              { name = "cholesky"; program = S.Kernels.cholesky n_sim }))
    in
    let m = List.hd r.D.measured in
    (m.D.speedup, m.D.original_run, m.D.transformed_run)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "\n\nMeasured (cache2 model, N=%d): original %.4fs, transformed %.4fs, speedup %.2f\n"
       n_sim r1.Measure.seconds r2.Measure.seconds sp);
  Buffer.contents buf

let bucket_labels =
  [ "0-50%"; "50-60%"; "60-70%"; "70-80%"; "80-90%"; "90-100%" ]

let bucket_of p =
  if p < 50.0 then 0
  else if p < 60.0 then 1
  else if p < 70.0 then 2
  else if p < 80.0 then 3
  else if p < 90.0 then 4
  else 5

let histogram_of rows ~title f =
  let counts_orig = Array.make 6 0 and counts_final = Array.make 6 0 in
  let counted = ref 0 in
  List.iter
    (fun (r : Table2.row) ->
      if r.Table2.nests > 0 then begin
        incr counted;
        let po, pf = f r in
        counts_orig.(bucket_of po) <- counts_orig.(bucket_of po) + 1;
        counts_final.(bucket_of pf) <- counts_final.(bucket_of pf) + 1
      end)
    rows;
  Report.histogram ~title:(title ^ " — original")
    ~buckets:(List.mapi (fun i l -> (l, counts_orig.(i))) bucket_labels)
    ~total:!counted
  ^ "\n"
  ^ Report.histogram ~title:(title ^ " — transformed")
      ~buckets:(List.mapi (fun i l -> (l, counts_final.(i))) bucket_labels)
      ~total:!counted

let fig8 rows =
  histogram_of rows
    ~title:"Figure 8: programs by % of nests in memory order"
    (fun r ->
      ( Table2.pct r.Table2.orig r.Table2.nests,
        Table2.pct (r.Table2.orig + r.Table2.perm) r.Table2.nests ))

let fig9 rows =
  histogram_of rows
    ~title:"Figure 9: programs by % of inner loops in memory order"
    (fun r ->
      ( Table2.pct r.Table2.inner_orig r.Table2.nests,
        Table2.pct (r.Table2.inner_orig + r.Table2.inner_perm) r.Table2.nests ))
