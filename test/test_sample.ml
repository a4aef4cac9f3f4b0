(* SHARDS sampled reuse-distance profiling (lib/sample), validated
   differentially against the exact simulator.

   The estimator tracks distances per cache set and, for sets > 1,
   samples whole sets (every line of a sampled set is tracked), so the
   W-way hit/miss verdict of each observation is exact and the only
   estimation error is across-set selection. Contracts under test:

   - at rate 1.0 with an unexceeded budget the estimate IS the
     simulator, on every geometry and for any hash seed;
   - the group-descriptor fast path is invisible: group-fed and
     per-access-fed profiles are structurally equal, including under
     threshold adaptation;
   - profiles are deterministic in (trace, rate, seed, budget);
   - at a practical sampling rate the miss-rate error stays within a
     loose bound on mid-size programs, for several seeds;
   - the Measure integration (MEMORIA_REPLAY=sample) reproduces exact
     runs at rate 1.0. *)

open Locality_ir
module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Measure = Locality_interp.Measure
module Trace = Locality_interp.Trace
module Walk = Locality_interp.Walk
module Sample = Locality_sample.Sample
module Kernels = Locality_suite.Kernels
module Programs = Locality_suite.Programs

let small_assoc =
  { Cache.name = "sa4"; size_bytes = 4096; assoc = 4; line_bytes = 64 }

let tiny_dm =
  { Cache.name = "dm"; size_bytes = 1024; assoc = 1; line_bytes = 32 }

let configs = [ Machine.cache1; Machine.cache2; small_assoc; tiny_dm ]
let sets_of (c : Cache.config) = c.size_bytes / (c.line_bytes * c.assoc)

let capture p =
  let rb, finish = Trace.run_capturing () in
  ignore (Walk.run rb p);
  finish ()

let build cap ~rate ?(seed = 0) ?(max_tracked = max_int) ~sets ~line_bytes
    ~grouped () =
  let s = Sample.create ~rate ~seed ~max_tracked ~sets ~line_bytes () in
  (if grouped then Trace.iter_run_chunks cap (Sample.consume_runchunk s)
   else
     Trace.iter_runs cap (fun ~label ~addr ~write ->
         ignore write;
         Sample.access s ~label ~addr));
  Sample.profile s ~labels:Trace.(cap.run_trace_labels) ~ops:0

let est_hits pf ~ways =
  let acc = ref 0.0 in
  Array.iteri
    (fun i _ -> acc := !acc +. Sample.hits_under pf i ~ways)
    pf.Sample.pf_labels;
  !acc

let simulate ~config p =
  (Measure.replay_prepared ~config
     (Measure.prepare ~mode:Measure.Runs ~store:None p))
    .Measure.whole

let programs =
  [
    ("matmul", Kernels.matmul 12);
    ("cholesky", Kernels.cholesky 12);
    ("adi", Kernels.adi_fragment 16);
    ("gmtry", Kernels.gmtry 12);
  ]

(* Rate 1.0: the set-sampling estimator must equal the simulator
   exactly — hits, cold and access counts — on all four geometries,
   whatever the seed. *)
let test_rate1_exact () =
  List.iter
    (fun (name, p) ->
      let cap = capture p in
      List.iter
        (fun config ->
          List.iter
            (fun seed ->
              let pf =
                build cap ~rate:1.0 ~seed ~sets:(sets_of config)
                  ~line_bytes:config.Cache.line_bytes ~grouped:true ()
              in
              let sim = simulate ~config p in
              let chk what est exact =
                Alcotest.(check (float 0.0))
                  (Printf.sprintf "%s on %s seed %d: %s" name
                     config.Cache.name seed what)
                  (float_of_int exact) est
              in
              chk "hits" (est_hits pf ~ways:config.Cache.assoc)
                sim.Measure.hits;
              chk "cold" (Sample.cold pf) sim.Measure.cold;
              chk "accesses"
                (float_of_int pf.Sample.pf_accesses)
                sim.Measure.accesses)
            [ 0; 1; 4 ])
        configs)
    programs

(* Group-fed and per-access-fed profiles must be structurally equal —
   also when a tiny budget forces threshold adaptation mid-trace, and
   in fully-associative (sets = 1, line-sampling) mode. *)
let test_group_equivalence () =
  List.iter
    (fun (name, p) ->
      let cap = capture p in
      List.iter
        (fun (rate, max_tracked, sets, line_bytes) ->
          let a =
            build cap ~rate ~max_tracked ~sets ~line_bytes ~grouped:true ()
          in
          let b =
            build cap ~rate ~max_tracked ~sets ~line_bytes ~grouped:false ()
          in
          Alcotest.(check bool)
            (Printf.sprintf
               "%s: group = per-access (rate=%g budget=%d sets=%d)" name rate
               max_tracked sets)
            true (a = b))
        [
          (1.0, 64, 128, 32);
          (1.0, max_int, 128, 128);
          (0.25, max_int, 128, 32);
          (0.25, 64, 1, 64);
          (0.5, max_int, 1, 32);
        ])
    programs

(* Profiles are a pure function of (trace, rate, seed, budget). *)
let test_determinism () =
  let _, p = List.hd programs in
  let cap = capture p in
  let mk seed =
    build cap ~rate:0.25 ~seed ~max_tracked:4096 ~sets:128 ~line_bytes:32
      ~grouped:true ()
  in
  Alcotest.(check bool) "same seed, same profile" true (mk 3 = mk 3);
  let pf = mk 0 in
  Alcotest.(check bool) "rate recorded" true
    (Float.abs (pf.Sample.pf_rate -. 0.25) < 0.01)

(* Sampling-noise regression: at rate 0.25 the whole-program miss-rate
   estimate stays within a few points of the simulator across the four
   geometries and five seeds. The programs are sized so their footprints
   spread across the cache sets — set sampling has nothing to observe in
   a set the program never touches, so tiny concentrated footprints are
   out of the estimator's regime (the exactness tests cover them at rate
   1.0 instead). Everything is deterministic, so the bound is a
   regression fence, not a statistical hope. *)
let test_error_bound () =
  let bound = 6.0 and mean_bound = 1.5 in
  let sum = ref 0.0 and n = ref 0 in
  List.iter
    (fun (name, p) ->
      let cap = capture p in
      List.iter
        (fun config ->
          let sim = simulate ~config p in
          let exact_rate =
            100.0
            *. float_of_int (sim.Measure.accesses - sim.Measure.hits)
            /. float_of_int sim.Measure.accesses
          in
          List.iter
            (fun seed ->
              let pf =
                build cap ~rate:0.25 ~seed ~sets:(sets_of config)
                  ~line_bytes:config.Cache.line_bytes ~grouped:true ()
              in
              let est =
                100.0
                *. (float_of_int pf.Sample.pf_accesses
                    -. est_hits pf ~ways:config.Cache.assoc)
                /. float_of_int pf.Sample.pf_accesses
              in
              let err = Float.abs (est -. exact_rate) in
              sum := !sum +. err;
              incr n;
              Alcotest.(check bool)
                (Printf.sprintf "%s on %s seed %d: err %.2fpt <= %.1fpt" name
                   config.Cache.name seed err bound)
                true (err <= bound))
            [ 0; 1; 2; 3; 4 ])
        configs)
    [
      ("matmul", Kernels.matmul 48);
      ("lu", Kernels.lu 48);
      ("adi", Kernels.adi_fragment 64);
      ("jacobi2d", Kernels.jacobi2d 48);
    ];
  let mean = !sum /. float_of_int !n in
  Alcotest.(check bool)
    (Printf.sprintf "mean err %.3fpt <= %.1fpt" mean mean_bound)
    true (mean <= mean_bound)

(* MEMORIA_REPLAY=sample through Measure: at rate 1.0 the sampled run
   record equals the exact one (counts, ops and modelled times), and
   the optimized-region split is preserved. *)
let test_measure_sampled () =
  List.iter
    (fun (e : Programs.entry) ->
      let p = Programs.program_of ~n:8 e in
      let labels =
        let rec stmts = function
          | Loop.Stmt s -> [ s.Stmt.label ]
          | Loop.Loop l -> List.concat_map stmts l.Loop.body
        in
        List.concat_map stmts p.Program.body
        |> List.filteri (fun i _ -> i mod 2 = 0)
      in
      let run mode =
        Measure.replay_prepared ~config:Machine.cache2
          ~optimized_labels:labels
          (Measure.prepare ~mode ~rate:1.0 ~store:None p)
      in
      Alcotest.(check bool)
        (e.Programs.name ^ ": sampled(rate 1) = exact")
        true
        (run Measure.Sampled = run Measure.Runs))
    Programs.all

(* Constructor validation. *)
let test_create_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "rate 0 rejected" true
    (raises (fun () -> Sample.create ~rate:0.0 ~line_bytes:32 ()));
  Alcotest.(check bool) "line_bytes 48 rejected" true
    (raises (fun () -> Sample.create ~rate:0.5 ~line_bytes:48 ()));
  Alcotest.(check bool) "sets 3 rejected" true
    (raises (fun () -> Sample.create ~rate:0.5 ~sets:3 ~line_bytes:32 ()))

let suite =
  [
    Alcotest.test_case "rate 1.0 = simulator (4 geometries, seeds)" `Quick
      test_rate1_exact;
    Alcotest.test_case "group fast path = per-access" `Quick
      test_group_equivalence;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "rate 0.25 error bound (4 geometries, 5 seeds)" `Quick
      test_error_bound;
    Alcotest.test_case "measure: sampled(rate 1) = exact" `Quick
      test_measure_sampled;
    Alcotest.test_case "create validation" `Quick test_create_validation;
  ]
