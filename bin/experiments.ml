(* The paper's evaluation as a registry of experiments: every table and
   figure (see DESIGN.md's experiment index), the ablations, and the
   trace, allocation and model probes. [memoria bench] selects from it;
   experiments are independent string-producing jobs, so they run on the
   domain pool and print in registry order. *)

module Stats = Locality_stats
module Pool = Locality_par.Pool
module Obs = Locality_obs.Obs
module Measure = Locality_interp.Measure
module Settings = Locality_driver.Settings

(* The measurement walker's and the exact simulator's hot paths are
   supposed to be allocation-free: walk a kernel into a discarding sink,
   then replay its captured chunks on both paper caches, and report the
   minor-heap words each access cost. Goes to stderr so the CI A/B diff
   of stdout across replay modes is unaffected; the residue is the
   per-run setup (closure compilation, chunk buffer, per-call optional
   arguments), amortised over ~10^6 accesses. *)
let alloc_probe () =
  let module Trace = Locality_interp.Trace in
  let module Walk = Locality_interp.Walk in
  let module Cache = Locality_cachesim.Cache in
  let module Machine = Locality_cachesim.Machine in
  let p = (List.assoc "matmul" Locality_suite.Kernels.all) 64 in
  let silent_run () =
    let rb = Trace.run_create ~sink:(fun _ -> ()) () in
    let w0 = Gc.minor_words () in
    ignore (Walk.run rb p);
    let w1 = Gc.minor_words () in
    (w1 -. w0, Trace.run_total rb)
  in
  ignore (silent_run ());
  let words, accesses = silent_run () in
  Printf.eprintf "alloc: %.4f minor words/access (%d accesses, matmul n=64, \
                  walker, silent sink)\n%!"
    (words /. float_of_int accesses)
    accesses;
  let rb, finish = Trace.run_capturing () in
  ignore (Walk.run rb p);
  let cap = finish () in
  let marked = Array.map (fun _ -> true) cap.Trace.run_trace_labels in
  let caches = List.map Cache.create [ Machine.cache1; Machine.cache2 ] in
  let region = Cache.fresh_region () and metrics = Cache.fresh_run_metrics () in
  let w0 = Gc.minor_words () in
  List.iter
    (fun c ->
      Trace.iter_run_chunks cap (fun rc ->
          Cache.simulate_runs c ~marked ~region ~metrics rc))
    caches;
  let words = Gc.minor_words () -. w0 in
  let accesses =
    List.fold_left (fun n c -> n + (Cache.stats c).Cache.accesses) 0 caches
  in
  Printf.eprintf "alloc: %.4f minor words/access (%d accesses, matmul n=64, \
                  simulator, cache1+cache2)\n%!"
    (words /. float_of_int accesses)
    accesses

(* Capture the Table 4 workload (both program versions per row, same N)
   and total the stream statistics; the ratio column is the compression
   against one word per access. The output does not depend on
   MEMORIA_REPLAY. *)
let tracestats rows =
  alloc_probe ();
  let tally =
    List.fold_left
      (fun acc (r : Stats.Table2.row) ->
        if r.Stats.Table2.nests = 0 then acc
        else
          let add (recs, words, groups) p =
            let cap = Measure.capture ~params:[ ("N", 32) ] p in
            let r', w', g' = Measure.trace_stats cap in
            (recs + r', words + w', groups + g')
          in
          add (add acc r.Stats.Table2.original) r.Stats.Table2.transformed)
      (0, 0, 0) rows
  in
  let line name (recs, words, groups) =
    Printf.sprintf "%-12s %14d %14d %10d %8.2fx" name recs words groups
      (float_of_int recs /. float_of_int words)
  in
  String.concat "\n"
    [
      "Trace capture statistics (Table 4 workload, N=32, both versions)";
      Printf.sprintf "%-12s %14s %14s %10s %8s" "mode" "records"
        "words stored" "groups" "ratio";
      line "runs" tally;
    ]

(* The closed-form analytic model against the simulator, whole-program,
   on the Table 4 workload: per-program class and miss rates, and an
   exact-mismatch total CI fails on (an exact claim must be
   simulator-equal). *)
let analytic_stats ~store rows =
  let module Analytic = Locality_analytic.Analytic in
  let module Report = Locality_stats.Report in
  let config = Locality_cachesim.Machine.cache1 in
  let params = [ ("N", 32) ] in
  let exact = ref 0 and approx = ref 0 and fallback = ref 0 in
  let mismatches = ref 0 in
  let reasons : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let rate acc miss =
    if acc = 0 then 0.0 else 100.0 *. float_of_int miss /. float_of_int acc
  in
  let side p =
    match Analytic.estimate ~params ~config p with
    | Error reason ->
      incr fallback;
      Hashtbl.replace reasons reason
        (1 + Option.value ~default:0 (Hashtbl.find_opt reasons reason));
      "fallback      -      -      -"
    | Ok est ->
      let sim = Measure.measure ~config ~params ~store p in
      let w = sim.Measure.whole in
      let sim_rate = rate w.Measure.accesses (w.Measure.accesses - w.Measure.hits) in
      let a = est.Analytic.e_whole in
      let ana_rate =
        rate a.Analytic.c_accesses (a.Analytic.c_accesses - a.Analytic.c_hits)
      in
      let cls =
        if est.Analytic.e_exact then begin
          incr exact;
          if
            w.Measure.accesses <> a.Analytic.c_accesses
            || w.Measure.hits <> a.Analytic.c_hits
            || w.Measure.cold <> a.Analytic.c_cold
            || sim.Measure.ops <> est.Analytic.e_ops
          then begin
            incr mismatches;
            "EXACT-MISMATCH"
          end
          else "exact"
        end
        else begin
          incr approx;
          "approx"
        end
      in
      Printf.sprintf "%-8s %6s %6s %6s" cls
        (Report.fmt_pct sim_rate) (Report.fmt_pct ana_rate)
        (Report.fmt_pct (Float.abs (ana_rate -. sim_rate)))
  in
  let body =
    List.filter_map
      (fun (r : Stats.Table2.row) ->
        if r.Stats.Table2.nests = 0 then None
        else
          Some
            (Printf.sprintf "%-10s %s   %s"
               r.Stats.Table2.entry.Locality_suite.Programs.name
               (side r.Stats.Table2.original)
               (side r.Stats.Table2.transformed)))
      rows
  in
  String.concat "\n"
    ([
       "Analytic model vs simulator (Table 4 workload, N=32, cache1, \
        whole-program miss rates)";
       Printf.sprintf "%-10s %-8s %6s %6s %6s   %-8s %6s %6s %6s" "program"
         "orig" "sim%" "ana%" "err" "trans" "sim%" "ana%" "err";
     ]
    @ body
    @ [
        Printf.sprintf
          "analytic classes: exact=%d approx=%d fallback=%d exact-mismatches=%d"
          !exact !approx !fallback !mismatches;
      ]
    @ (Hashtbl.fold (fun r n acc -> (r, n) :: acc) reasons []
      |> List.sort compare
      |> List.map (fun (r, n) -> Printf.sprintf "  fallback reason (%2d): %s" n r)
      ))

(* An experiment runs on its own or over Table 2's rows. The rows are
   computed once, by [run], before the fan-out: concurrent Lazy.force
   from several domains raises. *)
type experiment =
  | Alone of (unit -> string)
  | Over_rows of (Stats.Table2.row list -> string)

let registry ~settings ~scale : (string * experiment) list =
  let store = settings.Settings.store in
  [
    ("fig2", Alone (fun () -> Stats.Figures.fig2 ~settings ()));
    ("fig3", Alone (fun () -> Stats.Figures.fig3 ~settings ()));
    ("fig7", Alone (fun () -> Stats.Figures.fig7 ~settings ()));
    ("table1", Alone (fun () -> Stats.Perf.table1 ~settings ()));
    ("table2", Over_rows Stats.Table2.render);
    ("table3", Alone (fun () -> Stats.Perf.table3 ~settings ()));
    ("table4", Over_rows (Stats.Perf.table4 ~settings));
    ("table5", Over_rows Stats.Table5.render_for);
    ("fig8", Over_rows Stats.Figures.fig8);
    ("fig9", Over_rows Stats.Figures.fig9);
    ( "ablation-transforms",
      Alone (fun () -> Stats.Ablation.transforms ~settings ()) );
    ("ablation-tiling", Alone (fun () -> Stats.Ablation.tiling ~settings ()));
    ("ablation-reversal", Alone (fun () -> Stats.Ablation.reversal ()));
    ("ablation-cls", Alone (fun () -> Stats.Ablation.cls_sensitivity ()));
    ( "ablation-reuse",
      Alone (fun () -> Stats.Ablation.reuse_profile ~settings ()) );
    ( "ablation-multilevel",
      Alone (fun () -> Stats.Ablation.multilevel ~settings ()) );
    ("ablation-parallelism", Alone (fun () -> Stats.Ablation.parallelism ()));
    ( "ablation-interference",
      Alone (fun () -> Stats.Ablation.interference ~settings ()) );
    ("ablation-step3", Alone (fun () -> Stats.Ablation.step3 ~settings ()));
    ( "ablation-tilesize",
      Alone (fun () -> Stats.Ablation.tilesize ~settings ()) );
    ("tracestats", Over_rows tracestats);
    ("alloc", Alone (fun () -> alloc_probe (); "(see stderr)\n"));
    ("analytic", Over_rows (analytic_stats ~store));
    ( "scale",
      Alone (fun () -> Stats.Scale.render_scale ~settings ~factor:scale ()) );
    ("sampleerr", Over_rows (Stats.Scale.render_err ~settings));
  ]

let run ~jobs ~rows selected =
  let rows =
    let over_rows = function _, Over_rows _ -> true | _, Alone _ -> false in
    if List.exists over_rows selected then Lazy.force rows else []
  in
  let render = function Alone f -> f () | Over_rows f -> f rows in
  let rendered =
    Pool.map ~jobs
      (fun (name, e) ->
        (name, Obs.span ("experiment:" ^ name) (fun () -> render e)))
      selected
  in
  List.iter
    (fun (name, out) -> Printf.printf "\n##### %s #####\n\n%s%!" name out)
    rendered
