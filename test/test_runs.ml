(* The run-compressed trace format and its event-driven replay.
   Everything here is differential: run-level replay must be
   bit-identical — whole-cache and per-region, every stats field — to
   the reference simulator (one [Cache.access_full] per access, fed by
   the tree-walking interpreter's observer), on the hand-written
   kernels, on all 35 synthetic suite programs, and on adversarial fuzz
   streams mixing group descriptors with plain records. The measurement
   backend's batches are held to the same reference. *)

open Locality_ir
module Cache = Locality_cachesim.Cache
module Chunk = Locality_cachesim.Chunk
module Runchunk = Locality_cachesim.Runchunk
module Hierarchy = Locality_cachesim.Hierarchy
module Machine = Locality_cachesim.Machine
module Exec = Locality_interp.Exec
module Walk = Locality_interp.Walk
module Driver = Locality_driver.Driver
module Request = Locality_driver.Request
module Response = Locality_driver.Response
module Trace = Locality_interp.Trace
module Measure = Locality_interp.Measure
module Sample = Locality_sample.Sample
module Store = Locality_store.Store
module Obs = Locality_obs.Obs
module Summary = Locality_obs.Summary
module Kernels = Locality_suite.Kernels
module Programs = Locality_suite.Programs

let stats_pp ppf (s : Cache.stats) =
  Format.fprintf ppf
    "{accesses=%d; hits=%d; misses=%d; cold=%d; writes=%d; write_hits=%d; \
     writebacks=%d}"
    s.Cache.accesses s.Cache.hits s.Cache.misses s.Cache.cold_misses
    s.Cache.writes s.Cache.write_hits s.Cache.writebacks

let stats_t = Alcotest.testable stats_pp ( = )

let region_pp ppf (r : Cache.region) =
  Format.fprintf ppf "{accesses=%d; hits=%d; cold=%d}" r.Cache.r_accesses
    r.Cache.r_hits r.Cache.r_cold

let region_t =
  Alcotest.testable region_pp (fun a b ->
      a.Cache.r_accesses = b.Cache.r_accesses
      && a.Cache.r_hits = b.Cache.r_hits
      && a.Cache.r_cold = b.Cache.r_cold)

let direct_mapped =
  { Cache.name = "dm"; size_bytes = 1024; assoc = 1; line_bytes = 32 }

let small_assoc =
  { Cache.name = "sa4"; size_bytes = 4096; assoc = 4; line_bytes = 64 }

let eight_way =
  { Cache.name = "sa8"; size_bytes = 4096; assoc = 8; line_bytes = 32 }

(* Capture a program; a small chunk size forces flushes so chunk
   boundaries land mid-loop. *)
let capture ?params p =
  let rb, finish = Trace.run_capturing ~chunk_words:509 () in
  ignore (Walk.run ?params rb p);
  finish ()

(* Every access of [p], in order, from the reference interpreter. *)
let observed ?params p f =
  let observer = { Exec.on_access = f; on_stmt = (fun ~label:_ -> ()) } in
  ignore (Exec.run ?params ~observer p)

(* The reference: sequential [access_full] with a manual region tally,
   one cache per config, all fed by one pass of [feed], which calls its
   argument once per access. *)
let reference_replay configs ~marked feed =
  let sims =
    List.map (fun config -> (Cache.create config, Cache.fresh_region ())) configs
  in
  feed (fun ~label ~addr ~write ->
      let m = marked label in
      List.iter
        (fun (c, reg) ->
          let cls, _ = Cache.access_full c ~write addr in
          if m then begin
            reg.Cache.r_accesses <- reg.Cache.r_accesses + 1;
            match cls with
            | `Hit -> reg.Cache.r_hits <- reg.Cache.r_hits + 1
            | `Cold -> reg.Cache.r_cold <- reg.Cache.r_cold + 1
            | `Miss -> ()
          end)
        sims);
  List.map (fun (c, reg) -> (Cache.stats c, reg)) sims

(* Mark every other interned label, by name. *)
let alternate_names labels =
  List.filteri (fun i _ -> i mod 2 = 0) (Array.to_list labels)

let replay_capture config ~marked (cap : Trace.captured_runs) =
  let c = Cache.create config in
  let reg = Cache.fresh_region () in
  let metrics = Cache.fresh_run_metrics () in
  Trace.iter_run_chunks cap (fun rc ->
      Cache.simulate_runs c ~marked ~region:reg ~metrics rc);
  (Cache.stats c, reg, metrics)

let counts (m : Measure.region) =
  (m.Measure.accesses, m.Measure.hits, m.Measure.cold)

(* A measured run against the reference's stats and region tally. *)
let check_run where ~ops (s0, r0) (r : Measure.run) =
  Alcotest.(check (triple int int int))
    (where ^ ": whole")
    (s0.Cache.accesses, s0.Cache.hits, s0.Cache.cold_misses)
    (counts r.Measure.whole);
  Alcotest.(check (triple int int int))
    (where ^ ": optimized")
    (r0.Cache.r_accesses, r0.Cache.r_hits, r0.Cache.r_cold)
    (counts r.Measure.optimized);
  Alcotest.(check int) (where ^ ": ops") ops r.Measure.ops

let default_configs =
  [ Machine.cache1; Machine.cache2; direct_mapped; small_assoc ]

(* The capture replayed chunk by chunk, and the measurement backend's
   batch over the same configs, both against the reference. *)
let check_program ?params ?(configs = default_configs) name p =
  let cap = capture ?params p in
  let labels = cap.Trace.run_trace_labels in
  let names = alternate_names labels in
  let is_marked l = List.mem l names in
  let ops = (Exec.run ?params p).Exec.ops in
  let batch =
    (Measure.prepare ?params ~store:None p).Measure.runs
      (List.map
         (fun config -> Measure.query ~config ~optimized_labels:names ())
         configs)
  in
  List.iter2
    (fun (config, run) (s0, r0) ->
      let s2, r2, _ =
        replay_capture config ~marked:(Array.map is_marked labels) cap
      in
      let where = Printf.sprintf "%s on %s" name config.Cache.name in
      Alcotest.(check int)
        (where ^ ": logical record count")
        s0.Cache.accesses cap.Trace.run_records;
      Alcotest.check stats_t (where ^ ": stats") s0 s2;
      Alcotest.check region_t (where ^ ": region") r0 r2;
      check_run (where ^ ", measured") ~ops (s0, r0) run)
    (List.combine configs batch)
    (reference_replay configs ~marked:is_marked (observed ?params p))

let test_kernels_identical () =
  List.iter
    (fun (name, p) -> check_program name p)
    [
      ("matmul IJK", Kernels.matmul ~order:"IJK" 24);
      ("matmul JKI", Kernels.matmul ~order:"JKI" 24);
      ("erlebacher", Kernels.erlebacher_hand 12);
      ("transpose", Kernels.transpose 40);
      ("cholesky", Kernels.cholesky 24);
    ]

let test_suite_identical () =
  List.iter
    (fun (e : Programs.entry) ->
      check_program e.Programs.name (Programs.program_of ~n:10 e))
    Programs.all

(* Parameter overrides reach the walk: the suite's ocean at N=20. *)
let test_params_identical () =
  match Programs.find "ocean" with
  | None -> Alcotest.fail "suite program ocean missing"
  | Some e ->
    check_program ~params:[ ("N", 20) ]
      ~configs:[ Machine.cache2; direct_mapped ]
      "ocean N=20" (Programs.program_of e)

(* The two-level hierarchy as measured, against the reference fed one
   access at a time. *)
let test_hierarchy_identical () =
  List.iter
    (fun (name, p) ->
      let h = Hierarchy.create ~l1:Machine.cache2 ~l2:Machine.cache1 in
      observed p (fun ~label:_ ~addr ~write ->
          ignore (Hierarchy.access h ~write addr));
      Alcotest.(check bool) (name ^ ": measured = reference") true
        (Measure.measure_hierarchy ~store:None p
        = {
            Measure.l1_rate = Cache.hit_rate (Hierarchy.l1_stats h);
            l2_rate = Cache.hit_rate (Hierarchy.l2_stats h);
            amat = Hierarchy.amat h;
            hier_writebacks = Hierarchy.writebacks h;
          }))
    [
      ("matmul", Kernels.matmul ~order:"IJK" 24);
      ("lu", Kernels.lu 12);
      ("gmtry", Kernels.gmtry 12);
    ]

let test_measure_modes_identical () =
  (* The user-facing surface: Measure's exact paths — a backend's
     batch, and a capture replayed by hand — report the reference's
     numbers. *)
  let p = Kernels.erlebacher_hand 12 in
  let labels = [ "S1"; "S2" ] in
  let ops = (Exec.run p).Exec.ops in
  let configs = [ Machine.cache1; Machine.cache2 ] in
  let cap = Measure.capture p in
  List.iter2
    (fun config reference ->
      let where = "on " ^ config.Cache.name in
      check_run ("measure " ^ where) ~ops reference
        (Measure.measure ~config ~optimized_labels:labels p);
      check_run ("capture then replay " ^ where) ~ops reference
        (Measure.replay ~config ~optimized_labels:labels cap))
    configs
    (reference_replay configs ~marked:(fun l -> List.mem l labels) (observed p))

(* ------------------------------------------------ batch contract --- *)

(* Walks made by [f], counted from its [replay] spans. *)
let walks f =
  let r, events = Obs.collect f in
  let replay (s : Summary.span_row) = s.Summary.name = "replay" in
  ( r,
    match List.find_opt replay (Summary.of_events events).Summary.spans with
    | Some s -> s.Summary.count
    | None -> 0 )

let fresh_store () =
  let root = Filename.temp_file "memoria-runs-test" "" in
  Sys.remove root;
  Store.open_root root

(* A batch answers each query as it would be answered alone and as the
   reference does; its misses share one walk, and a warm batch makes
   none. *)
let test_batch_contract () =
  let p = Kernels.cholesky 16 in
  let names = alternate_names (capture p).Trace.run_trace_labels in
  let label_sets = [ []; names ] in
  let queries =
    List.concat_map
      (fun labels ->
        List.map
          (fun config -> Measure.query ~config ~optimized_labels:labels ())
          default_configs)
      label_sets
  in
  let batch, cold_walks =
    walks (fun () -> (Measure.prepare ~store:None p).Measure.runs queries)
  in
  Alcotest.(check int) "one walk for the whole batch" 1 cold_walks;
  let ops = (Exec.run p).Exec.ops in
  let references =
    List.concat_map
      (fun labels ->
        reference_replay default_configs
          ~marked:(fun l -> List.mem l labels)
          (observed p))
      label_sets
  in
  List.iter2
    (fun ((q : Measure.query), r) reference ->
      let where =
        Printf.sprintf "%s, %d labels" q.Measure.config.Cache.name
          (List.length q.Measure.labels)
      in
      Alcotest.(check bool) (where ^ ": batch = alone") true
        (r
        = Measure.replay_prepared ~config:q.Measure.config
            ~optimized_labels:q.Measure.labels
            (Measure.prepare ~store:None p));
      check_run where ~ops reference r)
    (List.combine queries batch)
    references;
  let st = fresh_store () in
  let backend () = Measure.prepare ~store:(Some st) p in
  ignore
    ((backend ()).Measure.runs (List.filteri (fun i _ -> i mod 2 = 0) queries));
  let half, half_walks = walks (fun () -> (backend ()).Measure.runs queries) in
  Alcotest.(check bool) "half-warm batch = cold batch" true (half = batch);
  Alcotest.(check int) "half-warm batch: one walk" 1 half_walks;
  let warm, warm_walks = walks (fun () -> (backend ()).Measure.runs queries) in
  Alcotest.(check bool) "warm batch = cold batch" true (warm = batch);
  Alcotest.(check int) "warm batch: no walk" 0 warm_walks

(* A walk's buffer is sized to the work: one cold batch on a small
   program — a trace of 48 stream words — allocates a few thousand
   major words (the chunk, the caches), not a 64 K-word chunk.
   [Gc.counters] rather than [Gc.quick_stat]: the latter folds this
   domain's direct major allocations in only at its next minor
   collection. *)
let test_batch_major_words () =
  let p = Locality_fuzz.Gen.generate ~seed:1 ~index:0 ~size:8 in
  let queries =
    List.map (fun config -> Measure.query ~config ()) default_configs
  in
  let batch () = (Measure.prepare ~store:None p).Measure.runs queries in
  ignore (batch ());
  let major_words () =
    let _, _, w = Gc.counters () in
    w
  in
  let w0 = major_words () in
  let runs = batch () in
  let words = major_words () -. w0 in
  Alcotest.(check bool) "the program has array traffic" true
    ((List.hd runs).Measure.whole.Measure.accesses > 0);
  if words >= 16_384. then
    Alcotest.failf "one batch allocated %.0f major words (< 16384)" words

(* ------------------------------------------------- run compression --- *)

let test_matmul_emits_groups () =
  let p = Kernels.matmul ~order:"IJK" 16 in
  let rb, finish = Trace.run_capturing () in
  ignore (Walk.run rb p);
  let cap = finish () in
  Alcotest.(check bool) "groups emitted" true (cap.Trace.run_groups > 0);
  Alcotest.(check bool) "stream smaller than records" true
    (cap.Trace.run_stream_words < cap.Trace.run_records)

let test_nonaffine_falls_back () =
  (* A subscript quadratic in the innermost index cannot be a strided
     run: no groups, but the expanded stream is still identical. *)
  let p =
    let open Builder in
    let n = v "N" in
    program "quad" ~params:[ ("N", 10) ]
      ~arrays:[ ("A", [ n *$ n ]) ]
      [
        do_ "I" (i 1) n
          [ asn (r "A" [ v "I" *$ v "I" ]) (ld "A" [ v "I" ] +! f 1.0) ];
      ]
  in
  let rb, finish = Trace.run_capturing () in
  ignore (Walk.run rb p);
  let cap = finish () in
  Alcotest.(check int) "no groups" 0 cap.Trace.run_groups;
  check_program "quad" p

let test_min_subscript_falls_back () =
  (* MIN over the loop index is not affine either. *)
  let p =
    let open Builder in
    let n = v "N" in
    program "clamped" ~params:[ ("N", 12) ]
      ~arrays:[ ("A", [ n ]); ("B", [ n ]) ]
      [
        do_ "I" (i 1) n
          [
            asn
              (r "A" [ Expr.Min (v "I" +$ i 3, n) ])
              (ld "B" [ v "I" ] +! f 1.0);
          ];
      ]
  in
  let rb, finish = Trace.run_capturing () in
  ignore (Walk.run rb p);
  let cap = finish () in
  Alcotest.(check int) "no groups" 0 cap.Trace.run_groups;
  check_program "clamped" p

let test_invariant_factor_qualifies () =
  (* A stride that is loop-invariant without being constant — J*8
     elements per step of I — still qualifies. *)
  let p =
    let open Builder in
    let n = v "N" in
    program "skewed" ~params:[ ("N", 12) ]
      ~arrays:[ ("A", [ n *$ n ]) ]
      [
        do_ "J" (i 1) n
          [
            do_ "I" (i 1) n
              [ asn (r "A" [ ((v "I" -$ i 1) *$ v "J") +$ i 1 ]) (f 2.0) ];
          ];
      ]
  in
  let rb, finish = Trace.run_capturing () in
  ignore (Walk.run rb p);
  let cap = finish () in
  Alcotest.(check bool) "groups emitted" true (cap.Trace.run_groups > 0);
  check_program "skewed" p

let test_downward_loop_qualifies () =
  let p =
    let open Builder in
    let n = v "N" in
    program "reversed" ~params:[ ("N", 20) ]
      ~arrays:[ ("A", [ n ]); ("B", [ n ]) ]
      [
        do_ ~step:(-1) "I" n (i 1)
          [ asn (r "A" [ v "I" ]) (ld "B" [ v "I" ] +! f 1.0) ];
      ]
  in
  let rb, finish = Trace.run_capturing () in
  ignore (Walk.run rb p);
  let cap = finish () in
  Alcotest.(check bool) "groups emitted" true (cap.Trace.run_groups > 0);
  check_program "reversed" p

(* ------------------------------------------------ walker contract --- *)

(* The address-only walker against the tree-walking interpreter, which
   shares no code with it: the expanded stream access for access
   (labels decoded through the walker's table), the label table itself
   — every statement that touches an array, in program order — and the
   counters. *)
let walker_agrees name p =
  let trace = ref [] in
  let observer =
    {
      Exec.on_access =
        (fun ~label ~addr ~write -> trace := (label, addr, write) :: !trace);
      on_stmt = (fun ~label:_ -> ());
    }
  in
  let er = Exec.run ~observer p in
  let rb, finish = Trace.run_capturing ~chunk_words:509 () in
  let wr = Walk.run rb p in
  let cap = finish () in
  let labels = cap.Trace.run_trace_labels in
  let expanded = ref [] in
  Trace.iter_runs cap (fun ~label ~addr ~write ->
      expanded := (labels.(label), addr, write) :: !expanded);
  let touching =
    List.fold_left
      (fun acc (st : Stmt.t) ->
        if Stmt.refs st = [] || List.mem st.Stmt.label acc then acc
        else acc @ [ st.Stmt.label ])
      []
      (Loop.block_statements p.Program.body)
  in
  let check what a b = Alcotest.(check int) (name ^ ": " ^ what) a b in
  Alcotest.(check bool) (name ^ ": stream") true (!expanded = !trace);
  Alcotest.(check (list string))
    (name ^ ": labels") touching (Array.to_list labels);
  check "ops" er.Exec.ops wr.Walk.ops;
  check "accesses" er.Exec.accesses wr.Walk.accesses;
  check "iterations" er.Exec.iterations wr.Walk.iterations;
  check "records" er.Exec.accesses cap.Trace.run_records

(* The kernels, then a downward loop over a scalar, zero-trip loops and
   MIN/MAX/DIV subscripts. *)
let test_walker_kernels () =
  List.iter (fun (name, mk) -> walker_agrees name (mk 12)) Kernels.all;
  let negative_step_scalar =
    let open Builder in
    program "fx" ~arrays:[ ("A", [ i 10 ]) ]
      [
        sasn "s" (f 3.0);
        do_ ~step:(-1) "I" (i 10) (i 1)
          [ asn (r "A" [ v "I" ]) (sc "s" *! Stmt.Iexpr (v "I")) ];
      ]
  in
  List.iter
    (fun p -> walker_agrees p.Program.name p)
    [ negative_step_scalar; Test_interp.zero_trip; Test_interp.min_max_div ]

let test_walker_suite () =
  List.iter
    (fun (e : Programs.entry) ->
      walker_agrees e.Programs.name (Programs.program_of ~n:10 e))
    Programs.all

let prop_walker_fuzz =
  QCheck.Test.make ~name:"fuzz: walker and interpreter agree" ~count:150
    QCheck.(pair small_nat (int_range 4 24))
    (fun (index, size) ->
      walker_agrees "fuzz" (Locality_fuzz.Gen.generate ~seed:11 ~index ~size);
      true)

(* The stream's shape is pinned: a walk of these programs emits
   exactly these records, words and groups. *)
let test_walker_stream_shape () =
  List.iter
    (fun (name, p, records, words, groups) ->
      let rb, finish = Trace.run_capturing () in
      ignore (Walk.run rb p);
      let cap = finish () in
      Alcotest.(check (triple int int int))
        (name ^ ": records, words, groups")
        (records, words, groups)
        (cap.Trace.run_records, cap.Trace.run_stream_words,
         cap.Trace.run_groups))
    [
      ("matmul 16", Kernels.matmul 16, 16384, 2304, 256);
      ("cholesky 16", Kernels.cholesky 16, 3112, 1472, 120);
    ]

(* The event-driven replay's work, pinned: groups replayed, event
   iterations, bulk-advanced iterations and same-set fallbacks, as
   [simulate_runs] counted them before its kernel was made
   allocation-free. In the kernels as written one reference of each
   inner loop crosses a line every iteration, so every iteration is an
   event, and matmul at n=32 on cache2 also falls back; the
   compound-optimized kernels stream and bulk-advance, and matmul at
   n=64 on cache2 falls back. Equal statistics reached with more (or
   fewer) lookups show here. *)
let test_replay_metrics_pinned () =
  let opt p = fst (Locality_core.Compound.run_program ~cls:4 p) in
  List.iter
    (fun (name, p, config, expected) ->
      let rb, finish = Trace.run_capturing () in
      ignore (Walk.run rb p);
      let _, _, m = replay_capture config ~marked:[||] (finish ()) in
      Alcotest.(check (list int))
        (Printf.sprintf "%s on %s: groups, boundaries, bulk, fallbacks" name
           config.Cache.name)
        expected
        Cache.[ m.m_groups; m.m_boundaries; m.m_bulk_iters; m.m_fallbacks ])
    [
      ("matmul 16", Kernels.matmul 16, Machine.cache1, [ 256; 4096; 0; 0 ]);
      ("matmul 16", Kernels.matmul 16, Machine.cache2, [ 256; 4096; 0; 0 ]);
      ("cholesky 16", Kernels.cholesky 16, Machine.cache1, [ 120; 680; 0; 0 ]);
      ("cholesky 16", Kernels.cholesky 16, Machine.cache2, [ 120; 680; 0; 0 ]);
      ( "matmul 32", Kernels.matmul 32, Machine.cache2,
        [ 1024; 32768; 0; 1008 ] );
      ( "optimized matmul 16", opt (Kernels.matmul 16), Machine.cache1,
        [ 256; 256; 3840; 0 ] );
      ( "optimized matmul 16", opt (Kernels.matmul 16), Machine.cache2,
        [ 256; 1024; 3072; 0 ] );
      ( "optimized cholesky 16", opt (Kernels.cholesky 16), Machine.cache1,
        [ 135; 135; 665; 0 ] );
      ( "optimized cholesky 16", opt (Kernels.cholesky 16), Machine.cache2,
        [ 135; 256; 544; 0 ] );
      ( "optimized matmul 64", opt (Kernels.matmul 64), Machine.cache2,
        [ 4096; 67072; 195072; 7648 ] );
    ]

(* [simulate_runs] allocates nothing per group: its scratch lives in the
   simulator. 10k groups, half streaming (event-driven path, with a
   stride-0 reference) and half striding a line or more every iteration
   (per-access path), must cost less than one minor word per group. *)
let test_replay_allocation_free () =
  let groups = 10_000 in
  let rc = Runchunk.create (groups * Runchunk.group_words ~nrefs:3) in
  let packed =
    Array.map
      (fun (write, label) -> Chunk.pack ~addr:0 ~write ~label)
      [| (false, 0); (true, 1); (false, 2) |]
  in
  for g = 0 to groups - 1 do
    let strides =
      if g mod 2 = 0 then [| 8; 0; -24 |] else [| 256; 1024; -512 |]
    in
    Runchunk.push_group rc ~trip:16 ~packed
      ~bases:[| g * 64; (1 lsl 22) + (g * 8); (1 lsl 23) + (g * 520) |]
      ~strides 3
  done;
  List.iter
    (fun config ->
      let c = Cache.create config in
      let region = Cache.fresh_region () in
      let metrics = Cache.fresh_run_metrics () in
      let marked = [| true; false; true |] in
      let w0 = Gc.minor_words () in
      Cache.simulate_runs c ~marked ~region ~metrics rc;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check int) "groups replayed" groups metrics.Cache.m_groups;
      if words >= float_of_int groups then
        Alcotest.failf "%s: %.0f minor words over %d groups" config.Cache.name
          words groups)
    [ Machine.cache1; Machine.cache2 ]

(* A right-hand side that divides keeps per-iteration evaluation, yet
   its loop still compresses to groups. *)
let test_walker_dividing_rhs () =
  let p =
    let open Builder in
    let n = v "N" in
    program "ramp" ~params:[ ("N", 16) ]
      ~arrays:[ ("A", [ n ]); ("B", [ n ]) ]
      [
        do_ "I" (i 1) n
          [
            asn (r "A" [ v "I" ])
              (ld "B" [ v "I" ] +! Stmt.Iexpr (Expr.Div (n, v "I")));
          ];
      ]
  in
  let rb, finish = Trace.run_capturing () in
  ignore (Walk.run rb p);
  Alcotest.(check int) "one group" 1 (finish ()).Trace.run_groups;
  walker_agrees "ramp" p

(* ---------------------------------------------------- error parity --- *)

(* Programs that fail at run time fail when measured too: [Exec.run]
   raises on each, and [Driver.run] reports, in every trace-walking
   mode, the walker's message — pinned bytes, since serve replies carry
   them. *)
let failing =
  let open Builder in
  let n = v "N" in
  let arrays = [ ("A", [ n ]); ("B", [ n ]); ("C", [ n ]) ] in
  let params = [ ("N", 16); ("Z", 0) ] in
  [
    (* B(I+1) leaves B only at I = N, in a loop that compresses. *)
    program "oob_group" ~params ~arrays
      [ do_ "I" (i 1) n [ asn (r "A" [ v "I" ]) (ld "B" [ v "I" +$ i 1 ]) ] ];
    (* The same, in a loop whose body holds a loop: per-access path. *)
    program "oob_plain" ~params ~arrays
      [
        do_ "I" (i 1) n
          [
            asn (r "A" [ v "I" ]) (ld "B" [ v "I" +$ i 1 ]);
            do_ "J" (i 1) n [ asn (r "C" [ v "J" ]) (ld "C" [ v "J" ]) ];
          ];
      ];
    program "div_bound" ~params ~arrays
      [
        do_ "I" (i 1) (Expr.Div (n, v "Z"))
          [ asn (r "A" [ v "I" ]) (ld "B" [ v "I" ]) ];
      ];
    program "div_subscript" ~params ~arrays
      [
        do_ "I" (i 1) n
          [ asn (r "A" [ v "I" ]) (ld "B" [ v "I" +$ Expr.Div (n, v "Z") ]) ];
      ];
    (* N / (N - I) divides by zero at the last iteration only. *)
    program "div_rhs" ~params ~arrays
      [
        do_ "I" (i 1) n
          [
            asn (r "A" [ v "I" ])
              (ld "B" [ v "I" ] +! Stmt.Iexpr (Expr.Div (n, n -$ v "I")));
          ];
      ];
  ]

let test_error_parity () =
  List.iter2
    (fun p expected ->
      let name = p.Program.name in
      (match Exec.run p with
      | _ -> Alcotest.failf "%s: the interpreter did not fail" name
      | exception Invalid_argument _ -> ());
      List.iter
        (fun replay ->
          let cfg =
            Driver.config ~transform:Driver.Keep ~machines:[ Machine.cache1 ]
              ~replay
              (Driver.Source_program { name; program = p })
          in
          match Driver.run cfg with
          | Ok _ -> Alcotest.failf "%s: measured without error" name
          | Error msg ->
            Alcotest.(check string)
              (Printf.sprintf "%s under %s" name (Measure.mode_to_string replay))
              expected msg)
        [ Measure.Runs; Measure.Sampled ])
    failing
    [
      {|oob_group: Invalid_argument("index out of bounds")|};
      {|oob_plain: Invalid_argument("index out of bounds")|};
      {|div_bound: Invalid_argument("Fastexec: division by zero")|};
      {|div_subscript: Invalid_argument("Fastexec: division by zero")|};
      {|div_rhs: Invalid_argument("Fastexec: division by zero")|};
    ]

(* The wire reply of a failing request, byte for byte. *)
let test_error_replies () =
  List.iter
    (fun (id, text, reply) ->
      let doc =
        Printf.sprintf
          {|{"schema_version":1,"id":%S,"source":{"kind":"text","name":%S,"text":%S},"machines":["cache1","cache2"]}|}
          id id text
      in
      let resp =
        match Request.of_json doc with
        | Error e -> Alcotest.failf "%s: %s" id e
        | Ok req -> (
          match Request.to_config req with
          | Error e -> Alcotest.failf "%s: %s" id e
          | Ok cfg -> Response.of_run ~id (Driver.run cfg))
      in
      Alcotest.(check string) id reply (Response.to_json resp))
    [
      ( "oobq",
        "PROGRAM oobq\nPARAMETER (N = 16)\nREAL A(N), B(N)\nDO I = 1, N\n\
        \  A(I) = B(I+1) + 1.0\nENDDO\nEND\n",
        {|{"schema_version":1,"id":"oobq","status":"error","error":"oobq: Invalid_argument(\"index out of bounds\")"}|}
      );
      ( "divs",
        "PROGRAM divs\nPARAMETER (N = 16)\nPARAMETER (Z = 0)\n\
         REAL A(N), B(N)\nDO I = 1, N\n  A(I) = B(I + N/Z) + 1.0\nENDDO\nEND\n",
        {|{"schema_version":1,"id":"divs","status":"error","error":"divs: Invalid_argument(\"Fastexec: division by zero\")"}|}
      );
    ]

(* --------------------------------------------------------- fuzzing --- *)

(* A fuzz stream is a list of items: plain records and strided-run
   groups. A reference's stride is zero, sub-line, exactly one line,
   between the 32- and 128-byte line sizes, or at least a 128-byte line,
   of either sign, so on every geometry tested a group can hold
   references that stay in their line beside ones that leave it every
   iteration. A mixed group draws one reference of each kind, plus up to
   two more, in random order. Bases keep every expanded address
   non-negative. *)
type fuzz_ref = { base : int; stride : int; fwrite : bool; flabel : int }
type fuzz_item =
  | Single of int * bool * int  (* addr, write, label *)
  | Group of int * fuzz_ref list  (* trip, refs *)

let gen_fuzz =
  let open QCheck.Gen in
  let gen_label = int_range 0 7 in
  let signed g =
    let* s = g in
    let* neg = bool in
    return (if neg then -s else s)
  in
  let stride_kinds =
    [
      return 0;
      signed (int_range 1 31);
      signed (oneofl [ 32; 64; 128 ]);
      signed (int_range 33 127);
      signed (int_range 129 600);
    ]
  in
  let gen_ref_with stride =
    let* base = int_range 16384 32767 in
    let* stride = stride in
    let* fwrite = bool in
    let* flabel = gen_label in
    return { base; stride; fwrite; flabel }
  in
  let gen_ref = gen_ref_with (oneof stride_kinds) in
  let gen_item =
    frequency
      [
        ( 1,
          let* addr = int_range 0 32767 in
          let* w = bool in
          let* l = gen_label in
          return (Single (addr, w, l)) );
        ( 2,
          let* trip = int_range 1 24 in
          let* refs = list_size (int_range 1 4) gen_ref in
          return (Group (trip, refs)) );
        ( 1,
          let* trip = int_range 1 24 in
          let* kinds = flatten_l (List.map gen_ref_with stride_kinds) in
          let* extra = list_size (int_range 0 2) gen_ref in
          let* refs = shuffle_l (kinds @ extra) in
          return (Group (trip, refs)) );
      ]
  in
  list_size (int_range 1 60) gen_item

(* Expand a fuzz stream to its access sequence. *)
let expand items =
  List.concat_map
    (function
      | Single (addr, w, l) -> [ (addr, w, l) ]
      | Group (trip, refs) ->
        List.concat_map
          (fun t ->
            List.map
              (fun fr -> (fr.base + (t * fr.stride), fr.fwrite, fr.flabel))
              refs)
          (List.init trip Fun.id))
    items

let marked = Array.init 8 (fun l -> l < 4)

(* The fuzz stream itself through run chunks and simulate_runs. *)
let runs_replay config items =
  let c = Cache.create config in
  let reg = Cache.fresh_region () in
  let metrics = Cache.fresh_run_metrics () in
  let rc = Runchunk.create 127 in
  let flush () =
    Cache.simulate_runs c ~marked ~region:reg ~metrics rc;
    Runchunk.reset rc
  in
  List.iter
    (function
      | Single (addr, w, l) ->
        if Runchunk.room rc = 0 then flush ();
        Runchunk.push_access rc (Chunk.pack ~addr ~write:w ~label:l)
      | Group (trip, refs) ->
        let n = List.length refs in
        if Runchunk.room rc < Runchunk.group_words ~nrefs:n then flush ();
        let packed =
          Array.of_list
            (List.map
               (fun fr -> Chunk.pack ~addr:0 ~write:fr.fwrite ~label:fr.flabel)
               refs)
        in
        let bases = Array.of_list (List.map (fun fr -> fr.base) refs) in
        let strides = Array.of_list (List.map (fun fr -> fr.stride) refs) in
        Runchunk.push_group rc ~trip ~packed ~bases ~strides n)
    items;
  flush ();
  (Cache.stats c, reg)

let prop_fuzz_all_paths_agree =
  QCheck.Test.make ~name:"fuzz: run and reference replay agree"
    ~count:300 (QCheck.make gen_fuzz) (fun items ->
      let accesses = expand items in
      let feed f =
        List.iter (fun (addr, write, label) -> f ~label ~addr ~write) accesses
      in
      let configs =
        [ direct_mapped; small_assoc; eight_way; Machine.cache1; Machine.cache2 ]
      in
      List.for_all2
        (fun config (s0, r0) ->
          let s2, r2 = runs_replay config items in
          s2 = s0
          && r2.Cache.r_accesses = r0.Cache.r_accesses
          && r2.Cache.r_hits = r0.Cache.r_hits
          && r2.Cache.r_cold = r0.Cache.r_cold)
        configs
        (reference_replay configs ~marked:(Array.get marked) feed))

let prop_runchunk_roundtrip =
  (* Runchunk.iter must expand groups round-robin in source order. *)
  QCheck.Test.make ~name:"fuzz: Runchunk.iter expands round-robin" ~count:200
    (QCheck.make gen_fuzz) (fun items ->
      let rc = Runchunk.create 65536 in
      List.iter
        (function
          | Single (addr, w, l) ->
            Runchunk.push_access rc (Chunk.pack ~addr ~write:w ~label:l)
          | Group (trip, refs) ->
            let n = List.length refs in
            let packed =
              Array.of_list
                (List.map
                   (fun fr ->
                     Chunk.pack ~addr:0 ~write:fr.fwrite ~label:fr.flabel)
                   refs)
            in
            let bases = Array.of_list (List.map (fun fr -> fr.base) refs) in
            let strides =
              Array.of_list (List.map (fun fr -> fr.stride) refs)
            in
            Runchunk.push_group rc ~trip ~packed ~bases ~strides n)
        items;
      let got = ref [] in
      Runchunk.iter rc (fun ~label ~addr ~write ->
          got := (addr, write, label) :: !got);
      List.rev !got = expand items
      && Runchunk.logical_records rc = List.length (expand items))

(* -------------------------------------------------------- hit rate --- *)

let test_hit_rate_all_cold () =
  (* A run whose accesses were all cold misses hit nothing: 0.0, not
     the misleading 100.0 the seed reported. No accesses at all is
     still vacuously 100.0. *)
  Alcotest.(check (float 1e-9))
    "all cold" 0.0
    (Cache.rate_of_counts ~accesses:5 ~hits:0 ~cold:5 ());
  Alcotest.(check (float 1e-9))
    "no accesses" 100.0
    (Cache.rate_of_counts ~accesses:0 ~hits:0 ~cold:0 ());
  Alcotest.(check (float 1e-9))
    "all cold, cold included" 0.0
    (Cache.rate_of_counts ~exclude_cold:false ~accesses:5 ~hits:0 ~cold:5 ());
  Alcotest.(check (float 1e-9))
    "measure agrees" 0.0
    (Measure.hit_rate { Measure.accesses = 4; hits = 0; cold = 4 });
  let c = Cache.create direct_mapped in
  for k = 0 to 9 do
    ignore (Cache.access c (k * 1024))
  done;
  Alcotest.(check (float 1e-9))
    "simulated all-cold run" 0.0
    (Cache.hit_rate (Cache.stats c));
  let s = Sample.create ~rate:1.0 ~max_tracked:max_int ~sets:1 ~line_bytes:32 () in
  for k = 0 to 9 do
    Sample.access s ~label:0 ~addr:(k * 1024)
  done;
  Alcotest.(check (float 1e-9))
    "reuse predictor agrees" 0.0
    (Sample.predicted_hit_rate (Sample.profile s ~labels:[| "L" |] ~ops:0)
       ~lines:4)

let suite =
  [
    Alcotest.test_case "kernels: runs replay identical" `Quick
      test_kernels_identical;
    Alcotest.test_case "all 35 programs: runs replay identical" `Slow
      test_suite_identical;
    Alcotest.test_case "hierarchy: runs replay identical" `Quick
      test_hierarchy_identical;
    Alcotest.test_case "measure: both modes identical" `Quick
      test_measure_modes_identical;
    Alcotest.test_case "matmul emits groups" `Quick test_matmul_emits_groups;
    Alcotest.test_case "non-affine subscript falls back" `Quick
      test_nonaffine_falls_back;
    Alcotest.test_case "min subscript falls back" `Quick
      test_min_subscript_falls_back;
    Alcotest.test_case "invariant-factor stride qualifies" `Quick
      test_invariant_factor_qualifies;
    Alcotest.test_case "downward loop qualifies" `Quick
      test_downward_loop_qualifies;
    Alcotest.test_case "hit rate of an all-cold run is 0" `Quick
      test_hit_rate_all_cold;
    Alcotest.test_case "walker: kernels agree with the interpreter" `Quick
      test_walker_kernels;
    Alcotest.test_case "walker: all 35 programs agree with the interpreter"
      `Slow test_walker_suite;
    Alcotest.test_case "walker: stream shape pinned" `Quick
      test_walker_stream_shape;
    Alcotest.test_case "walker: dividing right-hand side" `Quick
      test_walker_dividing_rhs;
    Alcotest.test_case "walker: run-time errors match the interpreter" `Quick
      test_error_parity;
    Alcotest.test_case "walker: failing request replies unchanged" `Quick
      test_error_replies;
    Alcotest.test_case "parameter overrides: runs identical" `Quick
      test_params_identical;
    Alcotest.test_case "batch: one walk, each query as if alone" `Quick
      test_batch_contract;
    Alcotest.test_case "replay: work metrics pinned" `Quick
      test_replay_metrics_pinned;
    Alcotest.test_case "batch: major words sized to the trace" `Quick
      test_batch_major_words;
    Alcotest.test_case "replay: no allocation per group" `Quick
      test_replay_allocation_free;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_fuzz_all_paths_agree; prop_runchunk_roundtrip; prop_walker_fuzz ]
