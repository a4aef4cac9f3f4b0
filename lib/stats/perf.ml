module S = Locality_suite
module D = Locality_driver.Driver
module Settings = Locality_driver.Settings
module Measure = Locality_interp.Measure
module Machine = Locality_cachesim.Machine

type perf_row = {
  name : string;
  seconds_orig : float;
  seconds_final : float;
  speedup : float;  (* cache1 *)
  speedup2 : float;  (* cache2 *)
}

module Pool = Locality_par.Pool

(* The driver returns one measured row per requested machine; these
   tables always ask for exactly cache1 and cache2. Anything else is a
   wiring error worth naming precisely. *)
let two_machine_rows ~where ~program = function
  | [ m1; m2 ] -> (m1, m2)
  | ms ->
    invalid_arg
      (Printf.sprintf
         "%s: program %S: expected 2 measured machine rows (cache1, cache2), \
          got %d"
         where program (List.length ms))

let table1 ?(settings = Settings.default ()) ?(n = 64) () =
  let versions =
    [
      ("Hand coded", S.Kernels.erlebacher_hand n);
      ("Distributed (memory order)", S.Kernels.erlebacher_distributed n);
      ("Fused", S.Kernels.erlebacher_fused n);
    ]
  in
  (* The hand version's stray nest is fixed by the compiler in the
     distributed version; the fused version is what Fuse produces. *)
  let rows =
    Pool.map ~jobs:settings.Settings.jobs
      (fun (label, p) ->
        let res =
          D.run_exn
            (Settings.config settings ~transform:D.Keep
               ~machines:[ Machine.cache1 ]
               (D.Source_program { name = label; program = p }))
        in
        let r = (List.hd res.D.measured).D.original_run in
        [
          label;
          Printf.sprintf "%.4f" r.Measure.seconds;
          Printf.sprintf "%.1f" (Measure.hit_rate r.Measure.whole);
        ])
      versions
  in
  Report.render
    ~title:"Table 1: Performance of Erlebacher (modelled seconds, cache1)"
    ~note:"Paper (RS/6000): Hand .390, Distributed .400, Fused .383 s."
    [ Report.Left ] [ "Version"; "Seconds"; "Hit%" ] rows

(* One compound run, one walk per program version feeding every cache
   geometry (and with a store, warm rows walk nothing at all). *)
let perf_of ~settings name (p : Program.t) =
  let r =
    D.run_exn
      (Settings.config settings
         ~machines:[ Machine.cache1; Machine.cache2 ]
         (D.Source_program { name; program = p }))
  in
  let m1, m2 =
    two_machine_rows ~where:"Perf.perf_of" ~program:name r.D.measured
  in
  {
    name;
    seconds_orig = m1.D.original_run.Measure.seconds;
    seconds_final = m1.D.transformed_run.Measure.seconds;
    speedup = m1.D.speedup;
    speedup2 = m2.D.speedup;
  }

let table3_rows ?(settings = Settings.default ()) ?(n = 128) () =
  let kernels =
    [
      ("arc2d (adi kernel)", S.Kernels.adi_fragment n);
      ("dnasa7 (gmtry)", S.Kernels.gmtry n);
      ("dnasa7 (vpenta)", S.Kernels.vpenta n);
      ("dnasa7 (mxm)", S.Kernels.matmul ~order:"IJK" n);
      ("cholesky", S.Kernels.cholesky n);
      ("lu", S.Kernels.lu (max 16 (n / 2)));
      ("simple", S.Kernels.simple_hydro n);
      ("jacobi2d", S.Kernels.jacobi2d n);
      ("dnasa7 (btrix)", S.Kernels.btrix (max 16 (n / 2)));
      ("swm256 (fragment)", S.Kernels.shallow_water n);
      ("transpose", S.Kernels.transpose n);
      ("erlebacher", S.Kernels.erlebacher_hand (max 16 (n / 2)));
      ( "wave (synthetic)",
        match S.Programs.find "wave" with
        | Some e -> S.Programs.program_of ~n:(max 16 (n / 3)) e
        | None -> S.Kernels.transpose n );
      ( "appsp (synthetic)",
        match S.Programs.find "appsp" with
        | Some e -> S.Programs.program_of ~n:(max 16 (n / 3)) e
        | None -> S.Kernels.transpose n );
    ]
  in
  Pool.map ~jobs:settings.Settings.jobs
    (fun (name, p) -> perf_of ~settings name p)
    kernels

let table3 ?settings () =
  let rows = table3_rows ?settings () in
  Report.render
    ~title:"Table 3: Performance Results (modelled seconds, cache1 machine)"
    ~note:
      "Speedup = original/transformed under the cycle model (ops + hits + \
       25-cycle miss penalty) on cache1 (RS/6000-like, 64KB) and cache2 \
       (i860-like, 8KB). At interpreter-feasible sizes the large cache1 \
       hides some effects the paper saw at full size; cache2 exposes \
       them. Paper: arc2d 2.15, gmtry 8.68, vpenta 1.29, simple 1.13."
    [ Report.Left ]
    [ "Program"; "Original(s)"; "Transformed(s)"; "Speedup1"; "Speedup2" ]
    (List.map
       (fun r ->
         [
           r.name;
           Printf.sprintf "%.4f" r.seconds_orig;
           Printf.sprintf "%.4f" r.seconds_final;
           Printf.sprintf "%.2f" r.speedup;
           Printf.sprintf "%.2f" r.speedup2;
         ])
       rows)

type hit_row = {
  name : string;
  opt1_orig : float;
  opt1_final : float;
  opt2_orig : float;
  opt2_final : float;
  whole1_orig : float;
  whole1_final : float;
  whole2_orig : float;
  whole2_final : float;
}

let table4_rows ?(settings = Settings.default ()) ?(n = 32)
    (rows : Table2.row list) =
  let rows =
    (* Each program version is interpreted once and its trace replayed
       on both geometries, rows in parallel; the optimizer already ran
       in Table 2, so its output rides in as a [Provided] transform. *)
    Pool.map ~jobs:settings.Settings.jobs
      (fun (r : Table2.row) ->
        if r.Table2.nests = 0 then None
        else begin
          let res =
            D.run_exn
              (Settings.config settings
                 ~params:[ ("N", n) ]
                 ~transform:
                   (D.Provided
                      {
                        transformed = r.Table2.transformed;
                        optimized_labels = r.Table2.optimized_labels;
                      })
                 ~machines:[ Machine.cache1; Machine.cache2 ]
                 ~use_labels:true
                 (D.Source_program
                    {
                      name = r.Table2.entry.S.Programs.name;
                      program = r.Table2.original;
                    }))
          in
          let m1, m2 =
            two_machine_rows ~where:"Perf.table4_rows"
              ~program:r.Table2.entry.S.Programs.name res.D.measured
          in
          let o1 = m1.D.original_run and f1 = m1.D.transformed_run in
          let o2 = m2.D.original_run and f2 = m2.D.transformed_run in
          Some
            {
              name = res.D.name;
              opt1_orig = Measure.hit_rate o1.Measure.optimized;
              opt1_final = Measure.hit_rate f1.Measure.optimized;
              opt2_orig = Measure.hit_rate o2.Measure.optimized;
              opt2_final = Measure.hit_rate f2.Measure.optimized;
              whole1_orig = Measure.hit_rate o1.Measure.whole;
              whole1_final = Measure.hit_rate f1.Measure.whole;
              whole2_orig = Measure.hit_rate o2.Measure.whole;
              whole2_final = Measure.hit_rate f2.Measure.whole;
            }
        end)
      rows
  in
  List.filter_map Fun.id rows

let table4 ?settings rows =
  let hit_rows = table4_rows ?settings rows in
  Report.render
    ~title:"Table 4: Simulated Cache Hit Rates (cold misses excluded)"
    ~note:
      "cache1 = 64KB 4-way 128B lines (RS/6000); cache2 = 8KB 2-way 32B \
       lines (i860). Optimized = accesses in nests the compiler changed."
    [ Report.Left ]
    [
      "Program"; "Opt1 Orig"; "Opt1 Final"; "Opt2 Orig"; "Opt2 Final";
      "Whole1 Orig"; "Whole1 Final"; "Whole2 Orig"; "Whole2 Final";
    ]
    (List.map
       (fun r ->
         [
           r.name;
           Report.fmt_pct r.opt1_orig;
           Report.fmt_pct r.opt1_final;
           Report.fmt_pct r.opt2_orig;
           Report.fmt_pct r.opt2_final;
           Report.fmt_pct r.whole1_orig;
           Report.fmt_pct r.whole1_final;
           Report.fmt_pct r.whole2_orig;
           Report.fmt_pct r.whole2_final;
         ])
       hit_rows)
