(* The transformation-search driver: determinism across pool sizes,
   store warmth on re-tuning, the baseline's error and a relabelled
   warm store with the baseline beside the search, the hardened
   imperfect-nest paths in unroll/distribution, label freshening under
   collision pressure, the
   request wire format's tune field, a fuzz sweep that tunes generated
   programs without raising, the staged screen held to the
   one-candidate [apply], the bench kernels' pinned search shape, the
   dependences the screen shares between stages held to what each stage
   computes alone, the screen's pinned analysis count, the tune spec's
   range rules on every path, one legal candidate per distinct
   program, and [run] held to [run_config]. *)

open Locality_ir
open Builder
module Tune = Locality_stats.Tune
module Unroll = Locality_core.Unroll
module Tiling = Locality_core.Tiling
module An = Locality_dep.Analysis
module Dep = Locality_dep.Depend
module Obs = Locality_obs.Obs
module Distribution = Locality_core.Distribution
module Store = Locality_store.Store
module Request = Locality_driver.Request
module S = Locality_suite
module Fuzz = Locality_fuzz

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let or_fail = function
  | Ok r -> r
  | Error msg -> Alcotest.failf "tune failed: %s" msg

(* A spec wide enough to exercise structure x perm x tile x unroll but
   cheap enough for the test suite. *)
let test_spec =
  { Tune.tiles = [ 8; 16 ]; unrolls = [ 2; 4 ]; top_k = 2; max_candidates = 128 }

(* ------------------------------------------- determinism at any jobs --- *)

(* matmul under the test band; conv2d, attention and adi (the one
   kernel whose imperfect nest fusion changes, so its space has a
   [Fused] structure) under one tile and one factor, uncapped, so every
   structure is screened. *)
let test_jobs_determinism () =
  let wide =
    { test_spec with Tune.tiles = [ 8 ]; unrolls = [ 2 ]; max_candidates = 4096 }
  in
  List.iter
    (fun (name, spec) ->
      let tune jobs =
        or_fail
          (Tune.run ~spec ~n:8 ~jobs ~store:None ~name
             ((List.assoc name S.Kernels.all) 8))
      in
      let r1 = tune 1 and r4 = tune 4 in
      checks (name ^ ": render byte-identical at jobs=1 vs 4")
        (Tune.render r1) (Tune.render r4);
      checks (name ^ ": json byte-identical at jobs=1 vs 4")
        (Tune.to_json r1) (Tune.to_json r4);
      checkb (name ^ ": a winner was confirmed") true (r1.Tune.t_winner <> None))
    [
      ("matmul", test_spec); ("conv2d", wide); ("attention", wide);
      ("adi", wide);
    ]

(* ------------------------------------------------ store cold vs warm --- *)

let dir_ticket = ref 0

let fresh_dir () =
  incr dir_ticket;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "memoria-tune-test-%d-%d" (Unix.getpid ()) !dir_ticket)

(* A warm re-tune answers from Measure's entries alone: the same bytes,
   no store miss or write, and no replay, sampling or analytic work. *)
let test_store_warm_rerun () =
  let st = Store.open_root (fresh_dir ()) in
  let tune () =
    Tune.to_json
      (or_fail
         (Tune.run ~spec:test_spec ~n:8 ~store:(Some st) ~name:"matmul"
            (S.Kernels.matmul 8)))
  in
  let cold = tune () in
  let before = Store.counters () in
  let warm, events = Obs.collect tune in
  let after = Store.counters () in
  checks "cold and warm JSON identical" cold warm;
  checkb "warm pass read the store" true (after.Store.hits > before.Store.hits);
  checki "warm pass: no store misses" 0
    (after.Store.misses - before.Store.misses);
  checki "warm pass: no store writes" 0
    (after.Store.writes - before.Store.writes);
  List.iter
    (fun name ->
      checkb ("warm pass: no " ^ name ^ " span") false
        (List.exists
           (function
             | { Locality_obs.Event.payload = Span { name = n; _ }; _ } ->
               n = name
             | _ -> false)
           events))
    [ "replay"; "sample"; "analytic" ]

(* ---------------------------------------- baseline beside the search --- *)

(* The baseline runs beside the search, and when it fails its error is
   the answer, whatever the search did. A cache geometry [Cache.create]
   refuses fails the baseline's exact replay. *)
let test_baseline_error_wins () =
  let module D = Locality_driver.Driver in
  let module Measure = Locality_interp.Measure in
  let machine =
    { Locality_cachesim.Machine.cache1 with Locality_cachesim.Cache.assoc = 3 }
  in
  let p = S.Kernels.matmul 8 in
  let expected =
    match
      D.run
        (D.config ~machines:[ machine ] ~replay:Measure.Runs
           (D.Source_program { name = "matmul"; program = p }))
    with
    | Ok _ -> Alcotest.fail "the baseline run should fail on a bad geometry"
    | Error e -> e
  in
  List.iter
    (fun jobs ->
      match
        Tune.run ~spec:test_spec ~n:8 ~machine ~jobs ~store:None ~name:"matmul"
          p
      with
      | Ok _ -> Alcotest.failf "jobs=%d: the search answered" jobs
      | Error e ->
        checks (Printf.sprintf "jobs=%d: the baseline's error" jobs) expected e)
    [ 1; 2; 4 ]

(* The search reads the request's own program while the baseline may
   continue with a stored original labelled otherwise: a store written
   by lu's build (labels L1/L2), re-tuned from lu's printed text
   (S1/S2), answers with a cold run's bytes. *)
let test_relabelled_warm_store () =
  let st = Store.open_root (fresh_dir ()) in
  let built = S.Kernels.lu 8 in
  let printed =
    Locality_lang.Lower.parse_program (Pretty.program_to_string built)
  in
  checkb "the builds label lu differently" true
    (Loop.labels built.Program.body <> Loop.labels printed.Program.body);
  let tune store p =
    Tune.to_json
      (or_fail (Tune.run ~spec:test_spec ~n:8 ~store ~name:"lu" p))
  in
  ignore (tune (Some st) built);
  let hits = (Store.counters ()).Store.hits in
  let warm = tune (Some st) printed in
  checkb "the re-tune read the store" true ((Store.counters ()).Store.hits > hits);
  checks "warm relabelled = cold" (tune None printed) warm

(* ------------------------------- imperfect nests: typed rejection ------ *)

(* Statement-then-loop bodies used to trip [assert false] in unroll and
   distribution; both must now answer with a typed no. *)
let imperfect_nests () =
  List.concat_map
    (fun mk -> Program.top_loops (mk 8))
    [ S.Kernels.cholesky ?form:None; S.Kernels.lu; S.Kernels.erlebacher_hand ]

let test_unroll_imperfect_nest () =
  List.iter
    (fun nest ->
      let spine = Loop.loops_on_spine nest in
      List.iter
        (fun (h : Loop.header) ->
          match
            Unroll.unroll_and_jam nest ~loop:h.Loop.index ~factor:2
          with
          | Some _ | None -> ())
        spine)
    (imperfect_nests ());
  (* cholesky's outer K carries a statement beside the inner loop: the
     nest is imperfect, so jamming must refuse rather than assert. *)
  let chol = List.hd (Program.top_loops (S.Kernels.cholesky 8)) in
  checkb "imperfect nest rejected" true
    (Unroll.unroll_and_jam chol ~loop:"K" ~factor:2 = None)

let test_distribution_imperfect_nest () =
  List.iter
    (fun nest ->
      match Distribution.run ~cls:4 nest with Some _ | None -> ())
    (imperfect_nests ());
  checkb "no exception across imperfect nests" true true

(* --------------------------------- unroll label freshening ------------ *)

let rec block_labels b =
  List.concat_map
    (function
      | Loop.Stmt (s : Stmt.t) -> [ s.Stmt.label ]
      | Loop.Loop l -> block_labels l.Loop.body)
    b

(* A program whose other nest already uses the [_u<k>]/[_r] suffixes the
   unroller would naturally pick for statement S. *)
let collision_program () =
  let nn = v "N" in
  program "collide"
    ~params:[ ("N", 8) ]
    ~arrays:[ ("A", [ nn; nn ]); ("B", [ nn; nn ]) ]
    [
      do_ "I" (i 1) nn
        [
          do_ "J" (i 1) nn
            [
              asn ~label:"S"
                (r "A" [ v "I"; v "J" ])
                (ld "A" [ v "I"; v "J" ] +! ld "B" [ v "J"; v "I" ]);
            ];
        ];
      do_ "K" (i 1) nn
        [
          asn ~label:"S_u1" (r "B" [ v "K"; i 1 ]) (ld "B" [ v "K"; i 1 ]);
          asn ~label:"S_r" (r "B" [ v "K"; i 2 ]) (ld "B" [ v "K"; i 2 ]);
        ];
    ]

let test_unroll_label_collision () =
  let p = collision_program () in
  let avoid = block_labels p.Program.body in
  let nest =
    match List.hd p.Program.body with
    | Loop.Loop l -> l
    | Loop.Stmt _ -> Alcotest.fail "expected a nest"
  in
  match Unroll.unroll_and_jam ~avoid nest ~loop:"I" ~factor:2 with
  | None -> Alcotest.fail "unroll refused a perfect nest"
  | Some block ->
    let labels = block_labels block in
    checki "labels unique" (List.length labels)
      (List.length (List.sort_uniq String.compare labels));
    (* The copies must dodge both the nest's own labels and the sibling
       nest's pre-existing suffixed ones. *)
    List.iter
      (fun l ->
        checkb
          (Printf.sprintf "label %s fresh against program" l)
          true
          (l = "S" || not (List.mem l avoid)))
      labels

let test_tune_apply_unroll_validates () =
  let p = collision_program () in
  let cand =
    {
      Tune.structure = Tune.Asis;
      perm = None;
      tile = None;
      unroll = Some ("I", 2);
    }
  in
  match Tune.apply p ~nest_idx:0 cand with
  | None -> Alcotest.fail "unroll candidate rejected"
  | Some p' ->
    checkb "unrolled program validates" true
      (match Program.validate p' with Ok () -> true | Error _ -> false)

let test_validate_rejects_duplicate_labels () =
  let nn = v "N" in
  let build () =
    program "dup"
      ~params:[ ("N", 4) ]
      ~arrays:[ ("A", [ nn ]) ]
      [
        do_ "I" (i 1) nn
          [
            asn ~label:"X" (r "A" [ v "I" ]) (ld "A" [ v "I" ]);
            asn ~label:"X" (r "A" [ v "I" ]) (ld "A" [ v "I" ] +! f 1.0);
          ];
      ]
  in
  checkb "duplicate label refused" true
    (match build () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------ request wire format: tune ------- *)

let test_request_tune_roundtrip () =
  let ts =
    {
      Request.t_top_k = Some 2;
      t_tiles = Some [ 8; 16 ];
      t_unrolls = None;
      t_max_candidates = Some 100;
    }
  in
  let req = Request.make ~id:"rt" ~n:12 ~tune:ts (Request.Kernel "matmul") in
  let json = Request.to_json req in
  (match Request.of_json json with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok req' ->
    checks "re-serializes to the same bytes" json (Request.to_json req');
    checks "fingerprint stable" (Request.fingerprint req)
      (Request.fingerprint req'));
  let plain = Request.make ~id:"rt" ~n:12 (Request.Kernel "matmul") in
  checkb "tune is part of the fingerprint" true
    (Request.fingerprint req <> Request.fingerprint plain)

let test_request_tune_defaults () =
  let ts =
    {
      Request.t_top_k = None;
      t_tiles = None;
      t_unrolls = None;
      t_max_candidates = None;
    }
  in
  let spec = Tune.spec_of_request ts in
  checkb "all-None resolves to the default spec" true
    (spec = Tune.default_spec)

(* --------------------------------------------- fuzz: tune never raises - *)

let fuzz_spec =
  { Tune.tiles = [ 8 ]; unrolls = [ 2 ]; top_k = 1; max_candidates = 24 }

let test_fuzz_tune_no_raise () =
  let count = 200 in
  let failures = ref 0 in
  for index = 0 to count - 1 do
    let p = Fuzz.Gen.generate ~seed:11 ~index ~size:16 in
    match
      Tune.run ~spec:fuzz_spec ~n:6 ~store:None
        ~name:(Printf.sprintf "fuzz-%d" index)
        p
    with
    | Ok _ | Error _ -> ()
    | exception e ->
      incr failures;
      Printf.eprintf "tune raised on fuzz index %d: %s\n" index
        (Printexc.to_string e)
  done;
  checki "no exceptions over 200 fuzz programs" 0 !failures

(* -------------------------------- the staged screen equals [apply] --- *)

let analytic_miss (p : Program.t) =
  let module M = Locality_interp.Measure in
  let prep = M.prepare ~mode:M.Analytic ~store:None p in
  let w =
    (M.replay_prepared ~config:Locality_cachesim.Machine.cache1 prep).M.whole
  in
  if w.M.accesses = 0 then 0.0
  else
    100.0 *. float_of_int (w.M.accesses - w.M.hits) /. float_of_int w.M.accesses

let with_n n (p : Program.t) =
  { p with Program.params = List.map (fun (x, _) -> (x, n)) p.Program.params }

(* Every enumerated candidate of [p]: the screen's staged application
   against the one-candidate [apply], then the search's rows against
   that reference — illegal exactly where it rejects, and otherwise the
   analytic rate of the program it builds. *)
let check_staged ~spec ~n name p =
  let p = with_n n p in
  match Tune.candidates spec p with
  | None -> ()
  | Some (nest_idx, cands) -> (
    let staged = Tune.apply_all ~jobs:2 p ~nest_idx cands in
    let single = List.map (Tune.apply p ~nest_idx) cands in
    List.iter2
      (fun c (s, r) ->
        if s <> r then
          Alcotest.failf "%s %s: staged screen and apply disagree" name
            (Tune.encode c))
      cands (List.combine staged single);
    match Tune.run ~spec ~n ~store:None ~name p with
    | Error e -> Alcotest.failf "%s: tune failed: %s" name e
    | Ok t ->
      let kept l = List.filteri (fun i _ -> i < spec.Tune.max_candidates) l in
      List.iter2
        (fun (row : Tune.row) (c, r) ->
          if row.Tune.enc <> Tune.encode c then
            Alcotest.failf "%s: row %s out of enumeration order" name
              row.Tune.enc;
          match (r, row.Tune.status) with
          | None, Tune.Illegal -> ()
          | Some p', (Tune.Screened | Tune.Confirmed) ->
            if row.Tune.analytic_miss <> Some (analytic_miss p') then
              Alcotest.failf "%s %s: analytic rate differs" name row.Tune.enc
          | _, _ ->
            Alcotest.failf "%s %s: status differs from apply" name
              row.Tune.enc)
        t.Tune.t_rows
        (List.combine (kept cands) (kept single)))

let test_staged_kernels () =
  List.iter
    (fun (name, mk) -> check_staged ~spec:Tune.default_spec ~n:16 name (mk 16))
    S.Kernels.all

let test_staged_fuzz () =
  for index = 0 to 199 do
    check_staged ~spec:fuzz_spec ~n:6
      (Printf.sprintf "fuzz-%d" index)
      (Fuzz.Gen.generate ~seed:11 ~index ~size:16)
  done

(* --------------------------------- the bench kernels' search shape --- *)

let test_bench_search_shape () =
  List.iter
    (fun (name, (generated, pruned, screened)) ->
      let r, events =
        Locality_obs.Obs.collect (fun () ->
            Tune.run ~n:24 ~store:None ~name
              ((List.assoc name S.Kernels.all) 24))
      in
      let t = or_fail r in
      let counter c =
        Option.value ~default:0
          (List.assoc_opt c
             (Locality_obs.Summary.of_events events).Locality_obs.Summary
               .counters)
      in
      checki (name ^ ": generated") generated t.Tune.t_generated;
      checki (name ^ ": pruned") pruned t.Tune.t_pruned;
      checki (name ^ ": screened") screened t.Tune.t_screened;
      checki (name ^ ": tune.pruned_illegal") pruned
        (counter "tune.pruned_illegal");
      checki (name ^ ": tune.screened") screened (counter "tune.screened"))
    [
      ("matmul", (301, 235, 66)); ("matmul_chain", (301, 235, 66));
      ("attention", (301, 235, 66)); ("conv2d", (1561, 1560, 1));
    ]

(* ------------------------ shared dependences = each stage's own --- *)

(* Every nest the screen analyses for [p]: each distinct prefix's
   shaped, permuted and tiled nest, read back through [apply] with the
   later stages switched off. *)
let screen_nests ~spec p =
  match Tune.candidates spec p with
  | None -> []
  | Some (nest_idx, cands) ->
    let prefixes = Hashtbl.create 64 and nests = Hashtbl.create 64 in
    List.iter
      (fun (c : Tune.candidate) ->
        List.iter
          (fun (c : Tune.candidate) -> Hashtbl.replace prefixes (Tune.encode c) c)
          [ { c with Tune.perm = None; tile = None; unroll = None };
            { c with Tune.tile = None; unroll = None };
            { c with Tune.unroll = None } ])
      cands;
    Hashtbl.iter
      (fun _ c ->
        match Tune.apply p ~nest_idx c with
        | Some p' -> (
          match List.nth_opt p'.Program.body nest_idx with
          | Some (Loop.Loop l) -> Hashtbl.replace nests l ()
          | Some (Loop.Stmt _) | None -> ())
        | None -> ())
      prefixes;
    Hashtbl.fold (fun l () acc -> l :: acc) nests []

(* The screen analyses a nest once, with input dependences, and hands
   the list (or its true part) to [recommend], [tile] and
   [unroll_and_jam]: each must answer as it does computing its own. *)
let check_shared_deps ~spec name (l : Loop.t) =
  let all = An.deps_in_nest ~include_input:true l in
  let true_ = An.deps_in_nest l in
  if List.filter Dep.is_true_dep all <> true_ then
    Alcotest.failf "%s: filtered input-inclusive dependences differ" name;
  let band = Tiling.recommend ~cls:4 l in
  if Tiling.recommend ~deps:all ~cls:4 l <> band then
    Alcotest.failf "%s: recommend ~deps differs" name;
  let names =
    List.map (fun (h : Loop.header) -> h.Loop.index) (Loop.loops_on_spine l)
  in
  List.iter
    (fun band ->
      List.iter
        (fun sizes ->
          if Tiling.tile ~deps:true_ ~sizes l ~band <> Tiling.tile ~sizes l ~band
          then Alcotest.failf "%s: tile ~deps differs (T=%d)" name sizes)
        spec.Tune.tiles)
    (List.sort_uniq compare [ band; names ]);
  List.iter
    (fun loop ->
      List.iter
        (fun factor ->
          if
            Unroll.unroll_and_jam ~deps:true_ l ~loop ~factor
            <> Unroll.unroll_and_jam l ~loop ~factor
          then
            Alcotest.failf "%s: unroll_and_jam ~deps differs (%s*%d)" name loop
              factor)
        spec.Tune.unrolls)
    names

let test_shared_deps () =
  List.iter
    (fun (name, mk) ->
      List.iter
        (check_shared_deps ~spec:Tune.default_spec name)
        (screen_nests ~spec:Tune.default_spec (with_n 16 (mk 16))))
    S.Kernels.all;
  for index = 0 to 199 do
    let name = Printf.sprintf "fuzz-%d" index in
    List.iter
      (check_shared_deps ~spec:fuzz_spec name)
      (screen_nests ~spec:fuzz_spec
         (with_n 6 (Fuzz.Gen.generate ~seed:11 ~index ~size:16)))
  done

(* One analysis per distinct nest the screen builds: the shaped nest
   (as-is only, since these target nests are perfect), each further
   legal permuted one, and each tiled one. A memo that is bypassed or
   keyed wrongly moves the count. *)
let test_dep_analyses_pinned () =
  List.iter
    (fun (name, expected) ->
      let r, events =
        Obs.collect (fun () ->
            Tune.run ~n:24 ~store:None ~name
              ((List.assoc name S.Kernels.all) 24))
      in
      ignore (or_fail r);
      checki
        (name ^ ": tune.dep_analyses")
        expected
        (Option.value ~default:0
           (List.assoc_opt "tune.dep_analyses"
              (Locality_obs.Summary.of_events events).Locality_obs.Summary
                .counters)))
    [ ("matmul", 30); ("matmul_chain", 30); ("conv2d", 1); ("attention", 30) ]

(* ------------------------------- each legal candidate is distinct --- *)

(* No two legal candidates of one search build the same program, and a
   perfect target nest, which fusion hands back unchanged, lists no
   fused candidate: the screen costs each distinct program once. *)
let check_distinct ~spec name p =
  match Tune.candidates spec p with
  | None -> ()
  | Some (nest_idx, cands) ->
    (match List.nth_opt p.Program.body nest_idx with
    | Some (Loop.Loop l) when Loop.is_perfect l ->
      List.iter
        (fun (c : Tune.candidate) ->
          if c.Tune.structure = Tune.Fused then
            Alcotest.failf "%s: perfect nest lists %s" name (Tune.encode c))
        cands
    | _ -> ());
    let seen = Hashtbl.create 256 in
    List.iter2
      (fun c applied ->
        match applied with
        | None -> ()
        | Some p' -> (
          let text = Pretty.program_to_string p' in
          match Hashtbl.find_opt seen text with
          | Some first ->
            Alcotest.failf "%s: %s builds the same program as %s" name
              (Tune.encode c) first
          | None -> Hashtbl.add seen text (Tune.encode c)))
      cands
      (Tune.apply_all p ~nest_idx cands)

let test_distinct_candidates () =
  List.iter
    (fun (name, mk) ->
      check_distinct ~spec:Tune.default_spec name (with_n 24 (mk 24)))
    S.Kernels.all;
  for index = 0 to 199 do
    check_distinct ~spec:fuzz_spec
      (Printf.sprintf "fuzz-%d" index)
      (with_n 6 (Fuzz.Gen.generate ~seed:11 ~index ~size:16))
  done

(* ------------------------------------- tune spec ranges, every path --- *)

let bad_specs =
  let none =
    { Request.t_top_k = None; t_tiles = None; t_unrolls = None;
      t_max_candidates = None }
  in
  [
    ({ none with Request.t_tiles = Some [ 0 ] }, "tiles",
     "expected positive integers");
    ({ none with Request.t_unrolls = Some [ 2; -1 ] }, "unrolls",
     "expected positive integers");
    ({ none with Request.t_top_k = Some 0 }, "top_k", "must be >= 1");
    ({ none with Request.t_max_candidates = Some 0 }, "max_candidates",
     "must be >= 1");
  ]

(* [memoria tune]'s flags become a request that goes through
   [to_config], never the decoder: both must apply the same rules. *)
let test_request_tune_ranges () =
  List.iter
    (fun (ts, field, problem) ->
      let req =
        Request.make ~n:8 ~machines:[ Request.Named "cache1" ] ~tune:ts
          (Request.Kernel "matmul")
      in
      let expect = Printf.sprintf "field %S: %s" field problem in
      (match Request.to_config req with
      | Ok _ -> Alcotest.failf "to_config accepted a bad %s" field
      | Error e -> checks "to_config names the field" ("request: " ^ expect) e);
      match Request.of_json (Request.to_json req) with
      | Ok _ -> Alcotest.failf "the decoder accepted a bad %s" field
      | Error e ->
        let n = String.length expect in
        checks "the decoder names the field" expect
          (String.sub e (String.length e - n) n))
    bad_specs

let test_tune_run_spec_ranges () =
  let p = S.Kernels.matmul 8 in
  List.iter
    (fun (spec, (_, field, problem)) ->
      match Tune.run ~spec ~n:8 ~store:None ~name:"matmul" p with
      | Ok _ -> Alcotest.failf "Tune.run accepted a bad %s" field
      | Error e ->
        checks "a typed error naming the field"
          (Printf.sprintf "matmul: tune spec: field %S: %s" field problem)
          e
      | exception ex ->
        Alcotest.failf "Tune.run raised on a bad %s: %s" field
          (Printexc.to_string ex))
    (List.combine
       [
         { test_spec with Tune.tiles = [ 0 ] };
         { test_spec with Tune.unrolls = [ 2; -1 ] };
         { test_spec with Tune.top_k = 0 };
         { test_spec with Tune.max_candidates = 0 };
       ]
       bad_specs)

(* One search, two doors: [Tune.run] on a kernel's program and
   [Tune.run_config] on the same kernel by name load the same program
   and run the same search, so their documents, their reports and
   their spec errors match byte for byte at any job count. *)
let test_run_is_run_config () =
  let module D = Locality_driver.Driver in
  let by_config ~spec ~jobs name =
    Tune.run_config ~spec ~jobs (D.config ~n:8 (D.Source_kernel name))
  in
  let by_program ~spec ~jobs name =
    Tune.run ~spec ~n:8 ~jobs ~store:None ~name
      ((List.assoc name S.Kernels.all) 8)
  in
  List.iter
    (fun (name, jobs) ->
      let c = or_fail (by_config ~spec:test_spec ~jobs name)
      and p = or_fail (by_program ~spec:test_spec ~jobs name) in
      let what = Printf.sprintf "%s jobs=%d: run = run_config" name jobs in
      checks what (Tune.to_json c) (Tune.to_json p);
      checks what (Tune.render c) (Tune.render p))
    [ ("matmul", 1); ("matmul", 2); ("adi", 1); ("adi", 2) ];
  let bad = { test_spec with Tune.tiles = [ 0 ] } in
  match
    (by_config ~spec:bad ~jobs:1 "matmul", by_program ~spec:bad ~jobs:1 "matmul")
  with
  | Error e1, Error e2 -> checks "the same spec error" e1 e2
  | _, _ -> Alcotest.fail "an out-of-range spec was accepted"

let suite =
  [
    Alcotest.test_case "tune: jobs=1 vs jobs=4 byte-identical" `Quick
      test_jobs_determinism;
    Alcotest.test_case "tune: warm store rerun, no misses" `Quick
      test_store_warm_rerun;
    Alcotest.test_case "unroll: imperfect nests rejected, no assert" `Quick
      test_unroll_imperfect_nest;
    Alcotest.test_case "distribution: imperfect nests, no assert" `Quick
      test_distribution_imperfect_nest;
    Alcotest.test_case "unroll: label freshening dodges collisions" `Quick
      test_unroll_label_collision;
    Alcotest.test_case "tune apply: unrolled program validates" `Quick
      test_tune_apply_unroll_validates;
    Alcotest.test_case "program: duplicate labels refused" `Quick
      test_validate_rejects_duplicate_labels;
    Alcotest.test_case "request: tune field round-trips" `Quick
      test_request_tune_roundtrip;
    Alcotest.test_case "request: empty tune spec = defaults" `Quick
      test_request_tune_defaults;
    Alcotest.test_case "fuzz: tuning 200 programs never raises" `Slow
      test_fuzz_tune_no_raise;
    Alcotest.test_case "tune: staged screen = apply (kernels, n=16)" `Slow
      test_staged_kernels;
    Alcotest.test_case "tune: staged screen = apply (200 fuzz programs)" `Slow
      test_staged_fuzz;
    Alcotest.test_case "tune: bench kernels' search shape pinned (n=24)" `Slow
      test_bench_search_shape;
    Alcotest.test_case "request: tune ranges on the CLI path and the wire"
      `Quick test_request_tune_ranges;
    Alcotest.test_case "tune: out-of-range spec is an error, not a raise"
      `Quick test_tune_run_spec_ranges;
    Alcotest.test_case "tune: shared deps = each stage's own (kernels, fuzz)"
      `Slow test_shared_deps;
    Alcotest.test_case "tune: one dependence analysis per nest (n=24)" `Slow
      test_dep_analyses_pinned;
    Alcotest.test_case "tune: each legal candidate distinct (kernels, fuzz)"
      `Slow test_distinct_candidates;
    Alcotest.test_case "tune: the baseline's error wins" `Quick
      test_baseline_error_wins;
    Alcotest.test_case "tune: relabelled warm store = cold" `Quick
      test_relabelled_warm_store;
    Alcotest.test_case "tune: run = run_config (reports, spec errors)" `Quick
      test_run_is_run_config;
  ]
