module C = Locality_core
module S = Locality_suite
module D = Locality_driver.Driver
module Settings = Locality_driver.Settings
module Measure = Locality_interp.Measure
module Machine = Locality_cachesim.Machine

(* Permutation-only optimizer: run Permute on every top-level nest. *)
let permute_only ?(cls = 4) (p : Program.t) =
  Program.map_body
    (List.map (function
      | Loop.Loop l when Loop.depth l >= 2 ->
        Loop.Loop (C.Permute.run ~cls l).C.Permute.nest
      | n -> n))
    p

(* Permutation plus cross-nest fusion, but no distribution. *)
let permute_fuse ?(cls = 4) (p : Program.t) =
  let p = permute_only ~cls p in
  Program.map_body
    (fun b -> (C.Fusion.fuse_block ~cls ~outer:[] b).C.Fusion.block)
    p

(* The simulator under the caller's replay mode, rate and store. *)
let measure (s : Settings.t) ?config p =
  Measure.measure ?config ~mode:s.Settings.replay ~rate:s.Settings.sample_rate
    ~store:s.Settings.store p

let speed settings config p p' =
  let r =
    D.run_exn
      (Settings.config settings
         ~transform:(D.Provided { transformed = p'; optimized_labels = [] })
         ~machines:[ config ]
         (D.Source_program { name = "ablation"; program = p }))
  in
  (List.hd r.D.measured).D.speedup

let transforms ?(settings = Settings.default ()) ?(n = 48) () =
  let kernels =
    [
      ("adi (fuse enables perm)", S.Kernels.adi_fragment n);
      ("cholesky (needs dist)", S.Kernels.cholesky n);
      ("matmul IJK (perm alone)", S.Kernels.matmul ~order:"IJK" n);
      ("erlebacher (perm + fuse)", S.Kernels.erlebacher_hand (n / 2 * 2));
      ("simple (perm x2 + fuse)", S.Kernels.simple_hydro n);
    ]
  in
  let rows =
    List.map
      (fun (name, p) ->
        let cfg = Machine.cache2 in
        [
          name;
          Printf.sprintf "%.2f" (speed settings cfg p (permute_only p));
          Printf.sprintf "%.2f" (speed settings cfg p (permute_fuse p));
          Printf.sprintf "%.2f"
            (speed settings cfg p (fst (C.Compound.run_program ~cls:4 p)));
        ])
      kernels
  in
  Report.render
    ~title:"Ablation: contribution of each transformation (cache2 speedups)"
    ~note:
      "Permutation does most of the work (the paper's expectation); fusion \
       and distribution unlock the nests permutation alone cannot touch."
    [ Report.Left ]
    [ "Kernel"; "Permute"; "+Fusion"; "Compound" ]
    rows

let tiling ?(settings = Settings.default ()) ?(n = 64) () =
  let kernels =
    [
      ("matmul JKI, band {J,K}", S.Kernels.matmul ~order:"JKI" n, [ "J"; "K" ]);
      ("transpose, band {I,J}", S.Kernels.transpose n, [ "I"; "J" ]);
    ]
  in
  let rows =
    List.filter_map
      (fun (name, p, band) ->
        match Program.top_loops p with
        | [ nest ] ->
          let base = measure settings ~config:Machine.cache2 p in
          let rate_of tile =
            match C.Tiling.tile ~sizes:tile nest ~band with
            | None -> "-"
            | Some tiled ->
              let p' = Program.map_body (fun _ -> [ Loop.Loop tiled ]) p in
              let r = measure settings ~config:Machine.cache2 p' in
              Printf.sprintf "%.2f" (Measure.hit_rate r.Measure.whole)
          in
          Some
            ([
               name;
               Printf.sprintf "%.2f" (Measure.hit_rate base.Measure.whole);
             ]
            @ List.map rate_of [ 4; 8; 16; 32 ])
        | _ -> None)
      kernels
  in
  Report.render
    ~title:
      (Printf.sprintf
         "Ablation: tiling on top of memory order (cache2 hit %%, N=%d)" n)
    ~note:
      "Section 6: tiling captures the long-term reuse memory order leaves \
       on outer loops; transpose is the case reordering alone cannot help."
    [ Report.Left ]
    [ "Kernel"; "untiled"; "T=4"; "T=8"; "T=16"; "T=32" ]
    rows

let reversal () =
  let count_with try_reversal =
    List.fold_left
      (fun (ok, total) (e : S.Programs.entry) ->
        let p = S.Programs.program_of ~n:12 e in
        let _, st = C.Compound.run_program ~cls:4 ~try_reversal p in
        ( ok
          + List.length
              (List.filter
                 (fun (s : C.Compound.nest_stat) -> s.C.Compound.final_inner_ok)
                 st.C.Compound.nests),
          total + List.length st.C.Compound.nests ))
      (0, 0) S.Programs.all
  in
  let with_rev, total = count_with true in
  let without_rev, _ = count_with false in
  let reversed_used =
    (* Nests where reversal was actually applied. *)
    List.fold_left
      (fun acc (e : S.Programs.entry) ->
        let p = S.Programs.program_of ~n:12 e in
        let _, st = C.Compound.run_program ~cls:4 p in
        acc
        + List.length
            (List.filter
               (fun (s : C.Compound.nest_stat) -> s.C.Compound.reversed > 0)
               st.C.Compound.nests))
      0 S.Programs.all
  in
  Report.render
    ~title:"Ablation: loop reversal as an enabler"
    ~note:
      "The paper integrated reversal but found it never improved locality \
       on its suite; the synthetic suite reproduces that."
    [ Report.Left ]
    [ "Configuration"; "inner loops in memory order"; "of" ]
    [
      [ "with reversal"; string_of_int with_rev; string_of_int total ];
      [ "without reversal"; string_of_int without_rev; string_of_int total ];
      [ "nests where reversal applied"; string_of_int reversed_used; "" ];
    ]

let step3 ?(settings = Settings.default ()) () =
  let n = 64 in
  let p = S.Kernels.matmul ~order:"JKI" n in
  let nest = List.hd (Program.top_loops p) in
  let row label q =
    let r = measure settings ~config:Machine.cache2 q in
    let res =
      Locality_interp.Walk.run
        (Locality_interp.Trace.run_create ~sink:ignore ())
        q
    in
    [
      label;
      string_of_int res.Locality_interp.Walk.accesses;
      Printf.sprintf "%.2f"
        (float_of_int res.Locality_interp.Walk.accesses
        /. float_of_int res.Locality_interp.Walk.ops);
      Printf.sprintf "%.4f" r.Measure.seconds;
    ]
  in
  let rows = ref [ row "memory order (JKI)" p ] in
  (let sr = C.Scalar_replacement.apply nest in
   if sr.C.Scalar_replacement.replaced > 0 then
     rows :=
       !rows
       @ [
           row "+ scalar replacement"
             (Program.map_body
                (fun _ -> [ Loop.Loop sr.C.Scalar_replacement.nest ])
                p);
         ]);
  (match C.Unroll.unroll_and_jam nest ~loop:"J" ~factor:4 with
  | Some block -> (
    let pu = Program.map_body (fun _ -> block) p in
    rows := !rows @ [ row "+ unroll-and-jam J x4" pu ];
    (* scalar-replace the jammed main nest too *)
    match block with
    | Loop.Loop main :: rest ->
      let sr = C.Scalar_replacement.apply main in
      if sr.C.Scalar_replacement.replaced > 0 then
        rows :=
          !rows
          @ [
              row "+ both"
                (Program.map_body
                   (fun _ ->
                     Loop.Loop sr.C.Scalar_replacement.nest :: rest)
                   p);
            ]
    | _ -> ())
  | None -> ());
  (* The balance model's own pick, under a 16-register budget. *)
  (let best, _ = C.Unroll.choose_factor nest ~loop:"J" in
   if best.C.Unroll.factor >= 2 then
     match C.Unroll.unroll_and_jam nest ~loop:"J" ~factor:best.C.Unroll.factor with
     | Some (Loop.Loop main :: rest) ->
       let sr = C.Scalar_replacement.apply main in
       rows :=
         !rows
         @ [
             row
               (Printf.sprintf "+ both, balance-chosen u=%d (%d regs)"
                  best.C.Unroll.factor best.C.Unroll.scalars)
               (Program.map_body
                  (fun _ -> Loop.Loop sr.C.Scalar_replacement.nest :: rest)
                  p);
           ]
     | Some _ | None -> ());
  Report.render
    ~title:
      (Printf.sprintf
         "Ablation: step-3 preview — register reuse on matmul (N=%d)" n)
    ~note:
      "The paper's framework step 3 ([CCK90]): unroll-and-jam exposes
       cross-iteration reuse; scalar replacement keeps invariant
       references in registers; Unroll.choose_factor picks the factor by
       the static balance model. Accesses/FLOP is the register-pressure
       payoff; cache behaviour is unchanged by design."
    [ Report.Left ]
    [ "Version"; "Mem accesses"; "Acc/FLOP"; "Modelled(s) cache2" ]
    !rows

let interference ?(settings = Settings.default ()) () =
  let n = 128 in
  let p = S.Kernels.shallow_water n in
  let compound lim =
    D.run_exn
      (Settings.config settings ~cls:4
         ~transform:(D.Compound { try_reversal = None; interference_limit = lim })
         ~machines:[ Machine.cache1 ]
         (D.Source_program { name = "swm-fragment"; program = p }))
  in
  let unguarded = compound None and guarded = compound (Some 4) in
  let fused = unguarded.D.transformed
  and guarded = guarded.D.transformed in
  let row label q =
    let r = measure settings ~config:Machine.cache1 q in
    [
      label;
      Printf.sprintf "%.4f" r.Measure.seconds;
      Printf.sprintf "%.2f" (Measure.hit_rate r.Measure.whole);
    ]
  in
  Report.render
    ~title:
      (Printf.sprintf
         "Ablation: fusion interference guard (swm fragment, N=%d, cache1)" n)
    ~note:
      "Unguarded fusion merges six arrays into one body and conflicts in        the 4-way cache — the degradation mechanism the paper reports in        Section 5.5; limiting fused bodies to the associativity avoids it."
    [ Report.Left ]
    [ "Version"; "Modelled(s)"; "Hit%" ]
    [ row "original (3 nests)" p; row "fused (default)" fused;
      row "fusion with guard=4" guarded ]

let parallelism () =
  let rows =
    List.filter_map
      (fun (name, mk) ->
        let p = mk 16 in
        let p', _ = C.Compound.run_program ~cls:4 p in
        let sum reports =
          List.fold_left
            (fun (d, op, isq) (r : C.Parallel.report) ->
              ( d + r.C.Parallel.doall,
                op + (if r.C.Parallel.outer_parallel then 1 else 0),
                isq + if r.C.Parallel.inner_sequential then 1 else 0 ))
            (0, 0, 0) reports
        in
        let d0, op0, is0 = sum (C.Parallel.program_summary p) in
        let d1, op1, is1 = sum (C.Parallel.program_summary p') in
        Some
          [
            name;
            Printf.sprintf "%d -> %d" d0 d1;
            Printf.sprintf "%d -> %d" op0 op1;
            Printf.sprintf "%d -> %d" is0 is1;
          ])
      S.Kernels.all
  in
  Report.render
    ~title:"Ablation: locality transformations vs parallelism"
    ~note:
      "DOALL = loops carrying no true dependence; outer-par = nests whose        outermost loop is DOALL; inner-seq = nests whose innermost loop        carries a recurrence (the paper's Simple trade-off, recoverable        with unroll-and-jam)."
    [ Report.Left ]
    [ "Kernel"; "DOALL loops"; "outer-parallel nests"; "inner-sequential nests" ]
    rows

let multilevel ?(settings = Settings.default ()) ?(n = 96) () =
  let p = S.Kernels.matmul ~order:"JKI" n in
  let nest = List.hd (Program.top_loops p) in
  let measure label nest' =
    let p' = Program.map_body (fun _ -> [ Loop.Loop nest' ]) p in
    let r =
      Measure.measure_hierarchy ~mode:settings.Settings.replay
        ~store:settings.Settings.store p'
    in
    [
      label;
      Printf.sprintf "%.2f" r.Measure.l1_rate;
      Printf.sprintf "%.2f" r.Measure.l2_rate;
      Printf.sprintf "%.2f" r.Measure.amat;
    ]
  in
  let rows = ref [ measure "untiled (JKI)" nest ] in
  (match C.Tiling.tile ~sizes:8 nest ~band:[ "J"; "K" ] with
  | Some t1 ->
    rows := !rows @ [ measure "one level, 8x8" t1 ];
    (match C.Tiling.tile ~suffix:"_T2" ~sizes:32 nest ~band:[ "J"; "K" ] with
    | Some t2 -> (
      (* Tile the inner band of the L2 tiling again at the L1 size; the
         original band's permutability (established above) makes the
         second level legal. *)
      match C.Tiling.tile ~check:false ~sizes:8 t2 ~band:[ "J"; "K" ] with
      | Some t3 -> rows := !rows @ [ measure "two levels, 32 over 8" t3 ]
      | None -> ())
    | None -> ())
  | None -> ());
  Report.render
    ~title:
      (Printf.sprintf
         "Ablation: multi-level tiling on an L1+L2 hierarchy (matmul N=%d)" n)
    ~note:
      "The paper's framework note: higher degrees of tiling exploit        multi-level caches. AMAT model: L1 1 cycle, +8 for L2, +40 for        memory."
    [ Report.Left ]
    [ "Version"; "L1 hit%"; "L2 hit%"; "AMAT" ]
    !rows

let tilesize ?(settings = Settings.default ()) () =
  let module TS = Locality_cachesim.Tilesize in
  let cfg = Machine.cache2 in
  let sweep = [ 8; 16; 32 ] in
  let rows =
    List.map
      (fun n ->
        let p = S.Kernels.matmul ~order:"JKI" n in
        let nest = List.hd (Program.top_loops p) in
        (* Fully blocked matmul: each (J_T,K_T,I_T) works on T×T tiles
           of all three arrays, so the resident set is the square tile
           the LRW model prices. *)
        let rate tile =
          match C.Tiling.tile ~sizes:tile nest ~band:[ "J"; "K"; "I" ] with
          | None -> "-"
          | Some tiled ->
            let p' = Program.map_body (fun _ -> [ Loop.Loop tiled ]) p in
            let r = measure settings ~config:cfg p' in
            Printf.sprintf "%.2f" (Measure.hit_rate r.Measure.whole)
        in
        let base = measure settings ~config:cfg p in
        (* Column-major: the stride between consecutive columns is the
           leading dimension, N. *)
        let v = TS.choose cfg ~elem_size:8 ~stride:n in
        [
          string_of_int n;
          Printf.sprintf "%.2f" (Measure.hit_rate base.Measure.whole);
        ]
        @ List.map rate sweep
        @ [ Printf.sprintf "T=%d" v.TS.tile; rate v.TS.tile ])
      [ 60; 64; 96; 128 ]
  in
  Report.render
    ~title:
      "Ablation: automatic tile-size selection (blocked matmul, cache2 hit %)"
    ~note:
      "Tilesize.choose picks the largest self-interference-free tile        ([LRW91]'s criterion, exact set-mapping check, one way per set        reserved for the streaming references). Power-of-two N is the        pathological case: fixed sweep sizes conflict, the auto size        dodges them."
    [ Report.Left ]
    ([ "N"; "untiled" ]
    @ List.map (fun t -> Printf.sprintf "T=%d" t) sweep
    @ [ "auto"; "auto hit%" ])
    rows

let reuse_profile ?(settings = Settings.default ()) ?(n = 48) () =
  let module RP = Locality_interp.Reuse_profile in
  let module Sample = Locality_sample.Sample in
  let lines_i860 = Machine.cache2.Locality_cachesim.Cache.size_bytes / 32 in
  let rows =
    List.map
      (fun order ->
        let p = S.Kernels.matmul ~order n in
        let r = RP.profile ~line_bytes:32 p in
        let sim = measure settings ~config:Machine.cache2 p in
        [
          order;
          Printf.sprintf "%.0f" (Sample.mean_distance r);
          Printf.sprintf "%.2f" (Sample.predicted_hit_rate r ~lines:lines_i860);
          Printf.sprintf "%.2f" (Measure.hit_rate sim.Measure.whole);
        ])
      S.Kernels.matmul_orders
  in
  Report.render
    ~title:
      (Printf.sprintf
         "Ablation: reuse-distance profiles of matmul orders (N=%d)" n)
    ~note:
      "Mean reuse distance explains the ranking; the fully-associative        prediction upper-bounds the simulated 2-way cache2 rate (the gap        is conflict misses)."
    [ Report.Left ]
    [ "Order"; "MeanDist"; "FA-LRU pred%"; "2-way sim%" ]
    rows

let cls_sensitivity () =
  let kernels =
    [
      ("matmul", S.Kernels.matmul ~order:"IJK" 32);
      ("cholesky", S.Kernels.cholesky 32);
      ("transpose", S.Kernels.transpose 32);
      ("jacobi2d", S.Kernels.jacobi2d 32);
    ]
  in
  let rows =
    List.map
      (fun (name, p) ->
        let nest = List.hd (Program.top_loops p) in
        let order cls =
          String.concat "" (C.Memorder.order (C.Memorder.compute ~cls nest))
        in
        [ name; order 2; order 4; order 16 ])
      kernels
  in
  Report.render
    ~title:"Ablation: cache-line-size sensitivity of memory order"
    ~note:
      "The cost model's only machine parameter is cls; the chosen order is \
       stable across realistic line sizes (the paper's machine-independence \
       claim)."
    [ Report.Left ]
    [ "Kernel"; "cls=2"; "cls=4"; "cls=16" ]
    rows
