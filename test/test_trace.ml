(* The batched trace engine: run-compressed trace replay must be
   bit-identical to the observer feeding the cache one access at a
   time, on single caches and hierarchies; the domain pool must neither
   reorder nor change results. *)

module Cache = Locality_cachesim.Cache
module Hierarchy = Locality_cachesim.Hierarchy
module Machine = Locality_cachesim.Machine
module Exec = Locality_interp.Exec
module Walk = Locality_interp.Walk
module Trace = Locality_interp.Trace
module Measure = Locality_interp.Measure
module Pool = Locality_par.Pool
module Kernels = Locality_suite.Kernels
module Programs = Locality_suite.Programs
module Table2 = Locality_stats.Table2

let stats_pp ppf (s : Cache.stats) =
  Format.fprintf ppf
    "{accesses=%d; hits=%d; misses=%d; cold=%d; writes=%d; write_hits=%d; \
     writebacks=%d}"
    s.Cache.accesses s.Cache.hits s.Cache.misses s.Cache.cold_misses
    s.Cache.writes s.Cache.write_hits s.Cache.writebacks

let stats_t = Alcotest.testable stats_pp ( = )

(* Run [p] with an observer, every access fed straight into a cache via
   [access_full] (loads and stores, so writebacks happen). *)
let observer_stats config p =
  let cache = Cache.create config in
  let observer =
    {
      Exec.on_access =
        (fun ~label:_ ~addr ~write -> ignore (Cache.access_full cache ~write addr));
      on_stmt = (fun ~label:_ -> ());
    }
  in
  ignore (Exec.run ~observer p);
  Cache.stats cache

(* Same program through the buffered-trace path: walked once into
   captured run chunks, then replayed with [simulate_runs]. A small
   chunk size forces multiple flushes. *)
let capture ?(chunk_words = 256) p =
  let rb, finish = Trace.run_capturing ~chunk_words () in
  ignore (Walk.run rb p);
  finish ()

let replay_stats config p =
  let cache = Cache.create config in
  Trace.iter_run_chunks (capture p) (fun rc -> Cache.simulate_runs cache rc);
  Cache.stats cache

(* A kernel mix with loads, stores and (on the small cache2 geometry)
   capacity evictions of dirty lines, i.e. writebacks. *)
let test_programs =
  [
    ("matmul", Kernels.matmul ~order:"IJK" 24);
    ("erlebacher", Kernels.erlebacher_hand 12);
    ("transpose", Kernels.transpose 40);
    ("cholesky", Kernels.cholesky 24);
  ]

let test_replay_identical () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun config ->
          let legacy = observer_stats config p in
          let replayed = replay_stats config p in
          Alcotest.check stats_t
            (Printf.sprintf "%s on %s" name config.Cache.name)
            legacy replayed;
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s saw writes" name config.Cache.name)
            true
            (legacy.Cache.writes > 0))
        [ Machine.cache1; Machine.cache2 ])
    test_programs

let test_replay_has_writebacks () =
  (* The equality above is only meaningful if the workload actually
     produces writebacks somewhere. *)
  let s = replay_stats Machine.cache2 (Kernels.matmul ~order:"IJK" 24) in
  Alcotest.(check bool) "writebacks occur" true (s.Cache.writebacks > 0)

let test_hierarchy_replay_identical () =
  let p = Kernels.matmul ~order:"IJK" 24 in
  let legacy = Hierarchy.create ~l1:Machine.cache2 ~l2:Machine.cache1 in
  let observer =
    {
      Exec.on_access =
        (fun ~label:_ ~addr ~write -> ignore (Hierarchy.access legacy ~write addr));
      on_stmt = (fun ~label:_ -> ());
    }
  in
  ignore (Exec.run ~observer p);
  let replayed = Hierarchy.create ~l1:Machine.cache2 ~l2:Machine.cache1 in
  Trace.iter_run_chunks (capture ~chunk_words:512 p)
    (Hierarchy.simulate_runs replayed);
  Alcotest.check stats_t "L1" (Hierarchy.l1_stats legacy)
    (Hierarchy.l1_stats replayed);
  Alcotest.check stats_t "L2" (Hierarchy.l2_stats legacy)
    (Hierarchy.l2_stats replayed);
  Alcotest.(check int) "writebacks" (Hierarchy.writebacks legacy)
    (Hierarchy.writebacks replayed)

let test_measure_matches_observer_semantics () =
  (* Measure.measure is a walk feeding the simulator; its hit/cold numbers
     must equal a from-scratch classified observer run (the seed path). *)
  let p = Kernels.erlebacher_hand 12 in
  let config = Machine.cache2 in
  let cache = Cache.create config in
  let acc = ref 0 and hit = ref 0 and cold = ref 0 in
  let observer =
    {
      Exec.on_access =
        (fun ~label:_ ~addr ~write:_ ->
          incr acc;
          match Cache.access_classified cache addr with
          | `Hit -> incr hit
          | `Cold -> incr cold
          | `Miss -> ());
      on_stmt = (fun ~label:_ -> ());
    }
  in
  ignore (Exec.run ~observer p);
  let r = Measure.measure ~config p in
  Alcotest.(check int) "accesses" !acc r.Measure.whole.Measure.accesses;
  Alcotest.(check int) "hits" !hit r.Measure.whole.Measure.hits;
  Alcotest.(check int) "cold" !cold r.Measure.whole.Measure.cold

let test_trace_labels () =
  let p = Kernels.matmul ~order:"IJK" 8 in
  let cap = capture ~chunk_words:65536 p in
  let labels = cap.Trace.run_trace_labels in
  Alcotest.(check bool) "labels interned" true (Array.length labels > 0);
  (* Every record's label id decodes to an interned label, and the
     expanded stream carries the observer's labels in order. *)
  let observed = ref [] in
  ignore
    (Exec.run
       ~observer:
         {
           Exec.on_access =
             (fun ~label ~addr:_ ~write:_ -> observed := label :: !observed);
           on_stmt = (fun ~label:_ -> ());
         }
       p);
  let expanded = ref [] in
  Trace.iter_runs cap (fun ~label ~addr ~write:_ ->
      Alcotest.(check bool) "label id in range" true
        (label >= 0 && label < Array.length labels);
      Alcotest.(check bool) "addr in range" true (addr >= 0);
      expanded := labels.(label) :: !expanded);
  Alcotest.(check (list string)) "labels decode in order" !observed !expanded;
  Alcotest.(check bool) "records counted" true (cap.Trace.run_records > 0)

(* ------------------------------------------------------ domain pool --- *)

let test_pool_map_order () =
  let items = List.init 100 Fun.id in
  let sq = List.map (fun x -> x * x) items in
  Alcotest.(check (list int)) "j=1" sq (Pool.map ~jobs:1 (fun x -> x * x) items);
  Alcotest.(check (list int)) "j=4" sq (Pool.map ~jobs:4 (fun x -> x * x) items);
  Alcotest.(check (list int)) "j=16 > items" sq
    (Pool.map ~jobs:16 (fun x -> x * x) items)

let test_pool_exception () =
  Alcotest.check_raises "propagates" (Failure "boom") (fun () ->
      ignore (Pool.map ~jobs:4 (fun x -> if x = 7 then failwith "boom" else x)
                (List.init 32 Fun.id)))

let test_table2_rows_pool_invariant () =
  (* Table 2 rows computed sequentially and on a 4-domain pool must
     render identically (the ISSUE's determinism criterion). A subset of
     the suite keeps the test fast. *)
  let entries =
    List.filteri (fun i _ -> i < 8) Programs.all
  in
  let render rows = Table2.render rows in
  let seq = Pool.map ~jobs:1 (Table2.compute_row ~n:16) entries in
  let par = Pool.map ~jobs:4 (Table2.compute_row ~n:16) entries in
  Alcotest.(check string) "rendered rows identical" (render seq) (render par)

(* An item that raises on a helper aborts its map, and the next map in
   the same process still returns every result in order: a helper that
   claims an item after the failure must count it as finished, or the
   caller waits forever. The raising item first runs a nested map,
   which must stay on the helper. Items on the caller wait (boundedly)
   for the helper's failure, so the raise does happen on a helper
   whenever the machine has room for one, and items are still left to
   claim after it. *)
let test_pool_helper_failure () =
  let caller = Domain.self () in
  let has_helper = Pool.default_jobs () >= 2 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let failed = Atomic.make false in
  let nested_inline = Atomic.make true in
  let item x =
    let here = Domain.self () in
    if here <> caller then begin
      let doms = Pool.map ~jobs:4 (fun _ -> Domain.self ()) [ 1; 2; 3 ] in
      if List.exists (fun d -> d <> here) doms then
        Atomic.set nested_inline false;
      Atomic.set failed true;
      failwith "helper"
    end
    else begin
      if has_helper then begin
        while (not (Atomic.get failed)) && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done;
        (* Give the helper time to record its failure and claim more. *)
        Unix.sleepf 0.05
      end;
      x
    end
  in
  let items = List.init 16 Fun.id in
  if has_helper then begin
    Alcotest.check_raises "helper's exception re-raised" (Failure "helper")
      (fun () -> ignore (Pool.map ~jobs:4 item items));
    Alcotest.(check bool) "nested map ran inline on the helper" true
      (Atomic.get nested_inline)
  end
  else
    Alcotest.(check (list int)) "no helper: runs on the caller" items
      (Pool.map ~jobs:4 item items);
  let sq = List.map (fun x -> x * x) (List.init 200 Fun.id) in
  Alcotest.(check (list int)) "next map completes in order" sq
    (Pool.map ~jobs:4 (fun x -> x * x) (List.init 200 Fun.id))

(* Helpers are made once per process, not once per fan-out: 200 maps
   and 200 [both]s (each with a map inside) spawn at most
   [default_jobs () - 1] domains between them. *)
let test_pool_spawns_bounded () =
  let module Obs = Locality_obs.Obs in
  let module Event = Locality_obs.Event in
  let _, events =
    Obs.collect (fun () ->
        for r = 1 to 200 do
          ignore (Pool.map ~jobs:4 (fun x -> x + r) (List.init 8 Fun.id));
          ignore
            (Pool.both ~jobs:4
               (fun () -> r)
               (fun () -> Pool.map ~jobs:4 (fun x -> x + r) (List.init 8 Fun.id)))
        done)
  in
  let spawned =
    List.fold_left
      (fun acc (e : Event.t) ->
        match e.payload with
        | Event.Counter { name = "par.domains_spawned"; delta } -> acc + delta
        | _ -> acc)
      0 events
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d spawned <= %d" spawned (Pool.default_jobs () - 1))
    true
    (spawned <= Pool.default_jobs () - 1)

(* ------------------------------------------------------ Pool.both --- *)

let test_pool_both_results () =
  let caller = Domain.self () in
  List.iter
    (fun jobs ->
      let (a, fdom), (b, gdom) =
        Pool.both ~jobs
          (fun () -> (6 * 7, Domain.self ()))
          (fun () -> ("g", Domain.self ()))
      in
      let tag s = Printf.sprintf "jobs=%d: %s" jobs s in
      Alcotest.(check int) (tag "first") 42 a;
      Alcotest.(check string) (tag "second") "g" b;
      Alcotest.(check bool) (tag "second runs on the caller") true
        (gdom = caller);
      Alcotest.(check bool) (tag "first on a helper iff one is allowed")
        (min jobs (Pool.default_jobs ()) >= 2)
        (fdom <> caller))
    [ 1; 2; 4 ]

(* Either side's exception is re-raised once the other side is done, and
   the first thunk's wins when both raise, as in sequential order. *)
let test_pool_both_exceptions () =
  List.iter
    (fun jobs ->
      let tag s = Printf.sprintf "jobs=%d: %s" jobs s in
      let slow_done = Atomic.make false in
      let slow () =
        Unix.sleepf 0.05;
        Atomic.set slow_done true
      in
      Alcotest.check_raises (tag "first raises") (Failure "first") (fun () ->
          ignore (Pool.both ~jobs (fun () -> failwith "first") slow));
      (* Sequentially, [f]'s exception skips [g]. *)
      Alcotest.(check bool) (tag "second finished before the raise")
        (min jobs (Pool.default_jobs ()) >= 2)
        (Atomic.get slow_done);
      Atomic.set slow_done false;
      Alcotest.check_raises (tag "second raises") (Failure "second")
        (fun () -> ignore (Pool.both ~jobs slow (fun () -> failwith "second")));
      Alcotest.(check bool) (tag "first finished before the raise") true
        (Atomic.get slow_done);
      Alcotest.check_raises (tag "both raise: the first wins") (Failure "first")
        (fun () ->
          ignore
            (Pool.both ~jobs
               (fun () -> failwith "first")
               (fun () -> failwith "second"))))
    [ 1; 2; 4 ]

(* Inside a worker (a map's items, on helpers and on the caller alike)
   [both] runs both thunks inline, on the item's domain. *)
let test_pool_both_inline_in_worker () =
  let inline =
    Pool.map ~jobs:4
      (fun _ ->
        let here = Domain.self () in
        let f, g =
          Pool.both ~jobs:4 (fun () -> Domain.self ()) (fun () -> Domain.self ())
        in
        f = here && g = here)
      (List.init 8 Fun.id)
  in
  Alcotest.(check (list bool)) "every call ran inline" (List.init 8 (fun _ -> true))
    inline

(* At jobs=2 the first thunk holds the only helper until the second's
   map has returned; the map still completes, on the caller. *)
let test_pool_both_map_beside_busy_helper () =
  let has_helper = Pool.default_jobs () >= 2 in
  let map_done = Atomic.make false in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let held, squares =
    Pool.both ~jobs:2
      (fun () ->
        if has_helper then
          while (not (Atomic.get map_done)) && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done;
        Atomic.get map_done || not has_helper)
      (fun () ->
        let r = Pool.map ~jobs:2 (fun x -> x * x) (List.init 64 Fun.id) in
        Atomic.set map_done true;
        r)
  in
  Alcotest.(check (list int)) "map inside the second thunk"
    (List.init 64 (fun x -> x * x))
    squares;
  Alcotest.(check bool) "first thunk held the helper throughout" true held

let suite =
  [
    Alcotest.test_case "replay identical to observer" `Quick
      test_replay_identical;
    Alcotest.test_case "workload produces writebacks" `Quick
      test_replay_has_writebacks;
    Alcotest.test_case "hierarchy replay identical" `Quick
      test_hierarchy_replay_identical;
    Alcotest.test_case "measure matches observer semantics" `Quick
      test_measure_matches_observer_semantics;
    Alcotest.test_case "trace labels intern correctly" `Quick test_trace_labels;
    Alcotest.test_case "pool map preserves order" `Quick test_pool_map_order;
    Alcotest.test_case "pool propagates exceptions" `Quick test_pool_exception;
    Alcotest.test_case "table2 rows identical at j=1 and j=4" `Slow
      test_table2_rows_pool_invariant;
    Alcotest.test_case "pool survives a helper's failure" `Quick
      test_pool_helper_failure;
    Alcotest.test_case "pool spawns helpers once per process" `Quick
      test_pool_spawns_bounded;
    Alcotest.test_case "pool both: results at jobs 1, 2, 4" `Quick
      test_pool_both_results;
    Alcotest.test_case "pool both: exceptions after both sides, first wins"
      `Quick test_pool_both_exceptions;
    Alcotest.test_case "pool both: inline inside a worker" `Quick
      test_pool_both_inline_in_worker;
    Alcotest.test_case "pool both: map beside a busy helper" `Quick
      test_pool_both_map_beside_busy_helper;
  ]
