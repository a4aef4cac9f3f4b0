(* The benchmark's workloads: tables, tune and serve.

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1
            --memoria PATH --workdir DIR

   Prints progress to stderr and, as the last line of stdout, one JSON
   object {correct, attempted, failed, metrics}: with --trace 0 the
   end-to-end metrics of an untraced run, with --trace 1 the per-layer
   metrics of a traced run. Exits 1 when any output disagrees with the
   reference. Every timing is taken here, around public calls into the
   libraries or round trips to the daemon. *)

module D = Locality_driver.Driver
module Request = Locality_driver.Request
module Response = Locality_driver.Response
module Measure = Locality_interp.Measure
module Compound = Locality_core.Compound
module Programs = Locality_suite.Programs
module Kernels = Locality_suite.Kernels
module Tune = Locality_stats.Tune
module Pool = Locality_par.Pool
module Rng = Locality_fuzz.Rng

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
let jobs = Pool.default_jobs ()

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  memoria : string;
  workdir : string;
}

(* What one measured phase of a workload produced. *)
type phase = {
  ops : int;
  wall : float;  (** timed seconds *)
  rates : float array;
      (** operations per second of each round (a whole operation mix;
          one-second windows for serve) *)
  lat_ms : float array;  (** per-operation latency *)
  busy : float;  (** Σ per-item busy seconds of the workload's own pool; 0 without one *)
  minor_words : float;  (** allocated by the operations' own domains *)
  major_gcs : int;
}

(* What a workload reports besides its phases. *)
type report = {
  tail : int;  (** the tail percentile reported: 90 or 99 *)
  setup_s : float;
  peak_rss_mb : float;
  speedup : float;  (** modelled speed-up, geometric mean *)
  miss_pct : float;  (** optimized program's simulated miss rate, mean *)
  tally : Bstat.tally;
  untraced : phase;
  traced : phase option;
  probe_inputs : Probe.input list;
  serve_side : Probe.serve_acc option;
  tune_side : Probe.tune_split option;
}

(* Run [op] repeatedly until [seconds] have passed and at least
   [min_ops] operations are done; [op ()] returns how many operations
   it completed with their latencies (s) and busy time. *)
let timed ~seconds ~min_ops op =
  let gc0 = Gc.quick_stat () in
  let t0 = Bstat.now () in
  let lats = ref [] and ops = ref 0 and busy = ref 0.0 and words = ref 0.0 in
  let rates = ref [] in
  while Bstat.now () -. t0 < seconds || !ops < min_ops do
    let r0 = Bstat.now () in
    let n, l, b, w = op () in
    rates := (float_of_int n /. (Bstat.now () -. r0)) :: !rates;
    ops := !ops + n;
    lats := List.rev_append l !lats;
    busy := !busy +. b;
    words := !words +. w
  done;
  let wall = Bstat.now () -. t0 in
  let gc1 = Gc.quick_stat () in
  {
    ops = !ops;
    wall;
    rates = Array.of_list !rates;
    lat_ms = Array.of_list (List.rev_map (fun s -> s *. 1000.0) !lats);
    busy = !busy;
    minor_words = !words;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* Time [f] and report the allocation of the calling domain. *)
let measured f =
  let w0 = Gc.minor_words () in
  let t0 = Bstat.now () in
  let r = f () in
  let dt = Bstat.now () -. t0 in
  (r, dt, Gc.minor_words () -. w0)

(* Set up [reps] times with [f]; returns the median set-up time and the
   last set-up's value. [undo] tears down each earlier one, outside the
   timing. *)
let median_setup ~reps ?(undo = ignore) f =
  let rec go i times =
    let t0 = Bstat.now () in
    let v = f () in
    let times = (Bstat.now () -. t0) :: times in
    if i + 1 = reps then (v, List.rev times)
    else begin
      undo v;
      go (i + 1) times
    end
  in
  let v, times = go 0 [] in
  log "setup: %s s"
    (String.concat " " (List.map (Printf.sprintf "%.3f") times));
  (Bstat.median times, v)

let self_peak_rss () = Bstat.peak_rss_mb "self"

let miss_pct (r : Measure.run) =
  let w = r.Measure.whole in
  if w.Measure.accesses = 0 then 0.0
  else
    100.0
    *. float_of_int (w.Measure.accesses - w.Measure.hits)
    /. float_of_int w.Measure.accesses

let check tally what = function
  | Ok () -> ()
  | Error msg ->
    log "MISMATCH %s: %s" what msg;
    Bstat.demote tally "mismatch"

(* ---------------------------------------------------------- tables --- *)

(* The paper's Table 2 + Table 4 pipeline: each operation is one suite
   program through [Driver.run] — compound transform, cache1 + cache2,
   region labels, run-compressed replay, no store — fanned over the
   default pool. The input set is fixed; the seed picks which programs
   the reference re-simulates. *)

let tables_config program_entry =
  D.config ~machines:Probe.machines ~use_labels:true ~replay:Measure.Runs
    ~store:None (D.Source_entry program_entry)

let tables opts =
  let entries = Programs.all in
  let n = List.length entries in
  (* One round: the suite over the pool, each item timed. *)
  let pass ~traced () =
    Pool.map ~jobs
      (fun e ->
        Span.record ~op:true "tables.op" (fun () ->
            measured (fun () ->
                if traced then
                  Ok (Probe.pipeline ~name:e.Programs.name (Programs.program_of e)).D.measured
                else Result.map (fun r -> r.D.measured) (D.run (tables_config e)))))
      entries
  in
  let setup_s, first =
    median_setup ~reps:3 (fun () -> Pool.map ~jobs (fun e -> D.run (tables_config e)) entries)
  in
  let results =
    Array.of_list
      (List.map (function Ok r -> r | Error msg -> failwith ("tables set-up: " ^ msg)) first)
  in
  let tally = Bstat.tally () in
  (* Every round, traced ones included, must measure what set-up did;
     an error where set-up succeeded is a mismatch too. *)
  let same (x : D.measured) (y : D.measured) =
    x.D.original_run = y.D.original_run && x.D.transformed_run = y.D.transformed_run
  in
  let run_phase ~traced seconds =
    timed ~seconds ~min_ops:100 (fun () ->
        let items = pass ~traced () in
        List.iteri
          (fun i (r, _, _) ->
            match r with
            | Ok m when List.for_all2 same results.(i).D.measured m ->
              Bstat.record tally Bstat.Ok_op
            | Ok _ ->
              log "MISMATCH %s: a repeated run measured differently" results.(i).D.name;
              Bstat.record tally (Bstat.Failed "mismatch")
            | Error msg ->
              log "MISMATCH %s: a repeated run failed: %s" results.(i).D.name msg;
              Bstat.record tally (Bstat.Failed "mismatch"))
          items;
        let lats = List.map (fun (_, dt, _) -> dt) items in
        ( List.length items,
          lats,
          List.fold_left ( +. ) 0.0 lats,
          List.fold_left (fun a (_, _, w) -> a +. w) 0.0 items ))
  in
  let untraced = run_phase ~traced:false (if opts.trace then opts.seconds /. 2.0 else opts.seconds) in
  let peak = self_peak_rss () in
  let traced =
    if opts.trace then begin
      Span.enabled := true;
      let ph = run_phase ~traced:true (opts.seconds /. 2.0) in
      Span.enabled := false;
      Some ph
    end
    else None
  in
  (* The reference check, outside the timed region. *)
  let rng = Rng.make opts.seed in
  let picks =
    List.sort_uniq compare (List.init 4 (fun _ -> Rng.int rng n))
  in
  List.iter
    (fun i ->
      let r = results.(i) in
      let labels = r.D.optimized_labels in
      let configs = List.map (fun (m : D.measured) -> m.D.machine) r.D.measured in
      let orig = Refsim.simulate_all ~configs ~labels r.D.original in
      let final = Refsim.simulate_all ~configs ~labels r.D.transformed in
      List.iteri
        (fun j (m : D.measured) ->
          let what v =
            Printf.sprintf "%s/%s/%s" r.D.name m.D.machine.Locality_cachesim.Cache.name v
          in
          check tally (what "original")
            (Refsim.check ~what:"original" (List.nth orig j) m.D.original_run);
          check tally (what "transformed")
            (Refsim.check ~what:"transformed" (List.nth final j) m.D.transformed_run))
        r.D.measured)
    picks;
  log "tables: reference re-simulated %s"
    (String.concat ", " (List.map (fun i -> results.(i).D.name) picks));
  let cache1 r = List.hd r.D.measured in
  let res = Array.to_list results in
  {
    tail = 90;
    setup_s;
    peak_rss_mb = peak;
    (* Programs with no modelled cycles (no array traffic) have no
       speed-up to average. *)
    speedup =
      Bstat.geomean
        (List.filter_map
           (fun r ->
             let s = (cache1 r).D.speedup in
             if Float.is_finite s && s > 0.0 then Some s else None)
           res);
    miss_pct =
      Bstat.mean (Array.of_list (List.map (fun r -> miss_pct (cache1 r).D.transformed_run) res));
    tally;
    untraced;
    traced;
    (* The traced rounds ran the pipeline; the probe reuses set-up's
       results instead of running it again. *)
    probe_inputs =
      List.mapi
        (fun i e ->
          Probe.input_of_program ~result:results.(i) e.Programs.name (Programs.program_of e))
        Programs.all;
    serve_side = None;
    tune_side = None;
  }

(* ------------------------------------------------------------ tune --- *)

(* [Tune.run] with the default search space on four kernels at n = 24,
   no store: screening (candidate apply, legality, analytic costing)
   dominates each search; confirming five finalists is a small share.
   The input set is fixed. *)

let tune_kernels = [ "matmul"; "matmul_chain"; "conv2d"; "attention" ]
let tune_n = 24

let tune opts =
  let programs =
    List.map (fun k -> (k, (List.assoc k Kernels.all) tune_n)) tune_kernels
  in
  let search (name, p) = Tune.run ~n:tune_n ~store:None ~name p in
  let setup_s, first = median_setup ~reps:5 (fun () -> List.map search programs) in
  let tally = Bstat.tally () in
  let firsts =
    List.map (function Ok r -> r | Error m -> failwith ("tune set-up: " ^ m)) first
  in
  let firsts_a = Array.of_list firsts in
  (* Every repeated search must answer as set-up's did; an error where
     set-up succeeded is a mismatch too. *)
  let same_search i = function
    | Ok t when compare t firsts_a.(i) = 0 -> Bstat.Ok_op
    | Ok t ->
      log "MISMATCH %s: a repeated search answered differently" t.Tune.t_name;
      Bstat.Failed "mismatch"
    | Error m ->
      log "MISMATCH %s: a repeated search failed: %s" (fst (List.nth programs i)) m;
      Bstat.Failed "mismatch"
  in
  let run_phase seconds =
    timed ~seconds ~min_ops:100 (fun () ->
        let outs =
          List.mapi
            (fun i kp ->
              let r, dt, w =
                measured (fun () -> Span.record ~op:true "tune.search" (fun () -> search kp))
              in
              Bstat.record tally (same_search i r);
              (dt, w))
            programs
        in
        (* The searches run one after another; their parallelism is
           inside [Tune.run], so no pool busy time is reported here. *)
        ( List.length outs,
          List.map fst outs,
          0.0,
          List.fold_left (fun a (_, w) -> a +. w) 0.0 outs ))
  in
  let untraced = run_phase (if opts.trace then opts.seconds /. 2.0 else opts.seconds) in
  let peak = self_peak_rss () in
  let traced, split =
    if opts.trace then begin
      Span.enabled := true;
      let ph = run_phase (opts.seconds /. 2.0) in
      Span.enabled := false;
      (* The screen / confirm split, from one search of each kernel with
         the program's own recording on; these must answer as the
         unrecorded searches did. *)
      let split = Probe.tune_split () in
      List.iteri
        (fun i (name, p) ->
          let r = Probe.recorded_tune split ~spec:Tune.default_spec ~name ~n:tune_n p in
          match same_search i r with
          | Bstat.Ok_op -> ()
          | Bstat.Failed kind -> Bstat.demote tally kind)
        programs;
      (Some ph, Some split)
    end
    else (None, None)
  in
  (* Each winner, baseline and memory-order program re-simulates on the
     reference to the miss rates the search reported. *)
  let speedups =
    List.map2
      (fun (name, p) (t : Tune.result) ->
        let config = t.Tune.t_machine in
        let base = Refsim.simulate ~config p in
        let win = Refsim.simulate ~config t.Tune.t_winner_program in
        let memorder =
          Refsim.simulate ~config (fst (Compound.run_program ~cls:4 p))
        in
        let verdict what want got =
          if want = got then Ok ()
          else Error (Printf.sprintf "%s miss %.6f%%, reference %.6f%%" what got want)
        in
        check tally name (verdict "baseline" (Refsim.miss_pct base) t.Tune.t_baseline_miss);
        check tally name
          (verdict "memory-order" (Refsim.miss_pct memorder) t.Tune.t_memorder_miss);
        (match t.Tune.t_winner with
        | Some { Tune.simulated_miss = Some m; _ } ->
          check tally name (verdict "winner" (Refsim.miss_pct win) m)
        | _ -> check tally name (Error "no confirmed winner"));
        check tally name
          (if Refsim.miss_pct win <= Refsim.miss_pct memorder +. 1e-9 then Ok ()
           else Error "winner misses more than the memory-order program");
        Refsim.cycles base /. Refsim.cycles win)
      programs firsts
  in
  let winner_miss (t : Tune.result) =
    match t.Tune.t_winner with
    | Some { Tune.simulated_miss = Some m; _ } -> m
    | _ -> t.Tune.t_baseline_miss
  in
  {
    tail = 90;
    setup_s;
    peak_rss_mb = peak;
    speedup = Bstat.geomean speedups;
    miss_pct = Bstat.mean (Array.of_list (List.map winner_miss firsts));
    tally;
    untraced;
    traced;
    probe_inputs = List.map (fun (k, p) -> Probe.input_of_program k p) programs;
    serve_side = None;
    tune_side = split;
  }

(* ----------------------------------------------------------- serve --- *)

(* A [memoria serve] daemon with [jobs] workers and a fresh scratch
   store, driven by one client over two connections in a closed loop
   with the seeded stream of [Reqstream]. *)

let hot_requests () =
  Array.to_list (Array.mapi (fun k _ -> Reqstream.hot_request ~id:"" k) Reqstream.hot)

let prewarm daemon =
  let conn = Daemon.connect daemon in
  Fun.protect
    ~finally:(fun () -> Daemon.close conn)
    (fun () ->
      List.iteri
        (fun k req ->
          let id = Printf.sprintf "prewarm%d" k in
          let reply = Daemon.ask conn (Request.to_json { req with Request.id }) in
          if Reply.classify ~id reply <> Bstat.Ok_op then
            failwith ("serve set-up: pre-warm failed: " ^ reply))
        (hot_requests ()))

type served = { item : Reqstream.item; reply : string }

let serve_phase ~daemon ~stream seconds =
  let conns = [ Daemon.connect daemon; Daemon.connect daemon ] in
  let inflight = Hashtbl.create 4 in
  let replies = ref [] and lats = ref [] and count = ref 0 and done_at = ref [] in
  let words0 = Gc.minor_words () and gc0 = Gc.quick_stat () in
  let t0 = Bstat.now () in
  let until = t0 +. seconds in
  let next () =
    let item = Reqstream.next stream in
    Hashtbl.replace inflight item.Reqstream.index item;
    (item.Reqstream.index, Reqstream.line item)
  in
  Fun.protect
    ~finally:(fun () -> List.iter Daemon.close conns)
    (fun () ->
      Daemon.closed_loop conns
        ~more:(fun () -> Bstat.now () < until || !count < 1000)
        ~next
        ~on_reply:(fun slot reply dt ->
          incr count;
          let item = Hashtbl.find inflight slot in
          Hashtbl.remove inflight slot;
          let t1 = Bstat.now () in
          Span.add
            ~name:
              (match item.Reqstream.kind with
              | Reqstream.Warm _ -> "serve.warm"
              | Reqstream.Cold _ -> "serve.cold")
            ~t0:(t1 -. dt) ~t1;
          lats := dt :: !lats;
          done_at := t1 :: !done_at;
          replies := { item; reply } :: !replies));
  let wall = Bstat.now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let split want =
    Array.of_list
      (List.filter_map
         (fun (s, dt) ->
           match s.item.Reqstream.kind with
           | Reqstream.Warm _ when want -> Some (dt *. 1000.0)
           | Reqstream.Cold _ when not want -> Some (dt *. 1000.0)
           | _ -> None)
         (List.combine !replies !lats))
  in
  let warm = split true and cold = split false in
  let per_window = Array.make (max 1 (int_of_float seconds)) 0 in
  List.iter
    (fun t ->
      let w = int_of_float (t -. t0) in
      if w < Array.length per_window then per_window.(w) <- per_window.(w) + 1)
    !done_at;
  log "serve: %d warm (p50 %.3f ms), %d cold (p50 %.3f ms, mean %.3f ms)"
    (Array.length warm) (Bstat.percentile_exn 50 warm) (Array.length cold)
    (Bstat.percentile_exn 50 cold) (Bstat.mean cold);
  ( {
      ops = !count;
      wall;
      rates = Array.map float_of_int per_window;
      lat_ms = Array.of_list (List.rev_map (fun s -> s *. 1000.0) !lats);
      busy = 0.0;
      minor_words = Gc.minor_words () -. words0;
      major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    },
    !replies )

(* Count each reply's outcome ([Reply.outcome]). Every reply but a
   refusal must be byte-equal to the in-process response for the same
   request, answered without a store (cold ones over the pool), error
   envelopes included, so a status or id the library would not give is
   a mismatch. The statement labels a response names are process-unique
   tickets drawn when a program is built or parsed, so both sides are
   compared with their label tickets renamed in order of first
   appearance ([Reply.canonical_labels]); every other byte must
   match. *)
let verify_replies ~tally ~hot replies =
  let colds =
    List.filter (fun s -> match s.item.Reqstream.kind with Reqstream.Cold _ -> true | _ -> false)
      replies
  in
  let cold_expected = Hashtbl.create 1024 in
  List.iter2
    (fun s e -> Hashtbl.replace cold_expected s.item.Reqstream.index e)
    colds
    (Pool.map ~jobs
       (fun s ->
         let r = Probe.in_process s.item.Reqstream.request in
         Response.to_json (Response.of_run ~id:s.item.Reqstream.id r))
       colds);
  List.iter
    (fun s ->
      let id = s.item.Reqstream.id in
      let want =
        lazy
          (match s.item.Reqstream.kind with
          | Reqstream.Warm k -> Response.to_json (Response.of_run ~id hot.(k))
          | Reqstream.Cold _ -> Hashtbl.find cold_expected s.item.Reqstream.index)
      in
      let outcome = Reply.outcome ~id ~want s.reply in
      if outcome = Bstat.Failed "mismatch" && Bstat.mismatches tally < 3 then
        log "MISMATCH %s: reply differs from the in-process response\n  got  %s\n  want %s"
          id s.reply (Lazy.force want);
      Bstat.record tally outcome)
    replies;
  List.length colds

(* The hot set's measurements against the reference simulator. *)
let check_hot ~tally hot =
  Array.iteri
    (fun k r ->
      match r with
      | Error msg ->
        log "MISMATCH hot%d: %s" k msg;
        Bstat.demote tally "mismatch"
      | Ok (r : D.result) ->
        List.iter
          (fun (m : D.measured) ->
            let configs = [ m.D.machine ] in
            let what v = Printf.sprintf "hot%d %s/%s" k r.D.name v in
            check tally (what "original")
              (Refsim.check ~what:"original"
                 (List.hd (Refsim.simulate_all ~configs r.D.original))
                 m.D.original_run);
            check tally (what "transformed")
              (Refsim.check ~what:"transformed"
                 (List.hd (Refsim.simulate_all ~configs r.D.transformed))
                 m.D.transformed_run))
          r.D.measured)
    hot

(* Replies the daemon refused: overloaded or timed out. *)
let refused (t : Bstat.tally) =
  List.fold_left
    (fun n (kind, k) -> if kind = "overloaded" || kind = "timeout" then n + k else n)
    0 t.Bstat.kinds

(* One measured phase on a daemon of its own, its replies verified;
   returns the phase and the daemon's peak RSS. *)
let serve_on ~tally ~stream ~hot ~daemon seconds =
  let ph, replies, peak =
    Fun.protect
      ~finally:(fun () -> Daemon.stop daemon)
      (fun () ->
        let ph, replies = serve_phase ~daemon ~stream seconds in
        (ph, replies, Daemon.peak_rss_mb daemon))
  in
  let cold = verify_replies ~tally ~hot replies in
  log "serve: %d replies byte-compared (%d cold)" (List.length replies) cold;
  (ph, peak)

let serve opts =
  let dir name = Filename.concat opts.workdir name in
  let setup_s, d =
    median_setup ~reps:5
      ~undo:(fun d ->
        Daemon.stop d;
        Daemon.remove d)
      (fun () ->
        let d = Daemon.start ~memoria:opts.memoria ~dir:(dir "serve") ~jobs () in
        prewarm d;
        d)
  in
  let tally = Bstat.tally () in
  let stream = Reqstream.create ~seed:opts.seed in
  let hot = Array.of_list (List.map Probe.in_process (hot_requests ())) in
  let untraced, peak =
    Fun.protect
      ~finally:(fun () -> Daemon.remove d)
      (fun () ->
        serve_on ~tally ~stream ~hot ~daemon:d
          (if opts.trace then opts.seconds /. 2.0 else opts.seconds))
  in
  check_hot ~tally hot;
  let traced, serve_side =
    if not opts.trace then (None, None)
    else begin
      (* Started as the untraced half's daemon is, with the program's
         recording off, so that the figures describe the program the
         end-to-end metrics measure (README.md). *)
      let d = Daemon.start ~memoria:opts.memoria ~dir:(dir "serve-traced") ~jobs () in
      Fun.protect
        ~finally:(fun () ->
          Daemon.stop d;
          Daemon.remove d;
          Span.enabled := false)
        (fun () ->
          prewarm d;
          Span.enabled := true;
          let before = refused tally in
          let ph, _ = serve_on ~tally ~stream ~hot ~daemon:d (opts.seconds /. 2.0) in
          let warm =
            List.filter_map
              (fun (s : Span.t) ->
                if s.Span.name = "serve.warm" then Some (s.Span.t1 -. s.Span.t0) else None)
              (Span.all ())
          in
          let side =
            Probe.store_side ~daemon:d ~round_trips:warm ~rejected:(refused tally - before)
              ~reps:2 (hot_requests ())
          in
          (Some ph, Some side))
    end
  in
  let results =
    Array.to_list hot |> List.filter_map (function Ok r -> Some r | Error _ -> None)
  in
  let measured r = List.hd r.D.measured in
  let cold_inputs =
    List.init 16 (fun c ->
        let name, text = Reqstream.cold_text ~seed:opts.seed c in
        { Probe.name; text; fixed = false; result = None })
  in
  let hot_inputs =
    List.sort_uniq compare (List.map (fun (k, n, _) -> (k, n)) Reqstream.hot_set)
    |> List.map (fun (k, n) ->
           Probe.input_of_program (Printf.sprintf "%s-%d" k n) ((List.assoc k Kernels.all) n))
  in
  {
    tail = 99;
    setup_s;
    peak_rss_mb = peak;
    speedup = Bstat.geomean (List.map (fun r -> (measured r).D.speedup) results);
    miss_pct =
      Bstat.mean
        (Array.of_list (List.map (fun r -> miss_pct (measured r).D.transformed_run) results));
    tally;
    untraced;
    traced;
    probe_inputs = hot_inputs @ cold_inputs;
    serve_side;
    tune_side = None;
  }

(* ------------------------------------------------------- metrics --- *)

let metric name unit_ value = { Bstat.name; value; unit_ }
(* Median over the run's rounds: a burst of contention on the host
   slows the rounds it overlaps, not the figure. *)
let ops_per_s (ph : phase) = Bstat.median (Array.to_list ph.rates)

let end_to_end (r : report) =
  let u = r.untraced in
  [
    metric "ops_per_s" "1/s" (ops_per_s u);
    metric "latency_p50_ms" "ms" (Bstat.percentile_exn 50 u.lat_ms);
    metric "latency_tail_ms" "ms" (Bstat.percentile_exn r.tail u.lat_ms);
    metric "setup_s" "s" r.setup_s;
    metric "peak_rss_mb" "MiB" r.peak_rss_mb;
    metric "success_ratio" "ratio" (1.0 -. Bstat.fail_ratio r.tally);
    metric "modelled_speedup" "x" r.speedup;
    metric "winner_miss_pct" "%" r.miss_pct;
  ]

let first_fixed (inputs : Probe.input list) =
  match List.filter (fun (i : Probe.input) -> i.Probe.fixed) inputs with
  | i :: _ -> i
  | [] -> List.hd inputs

(* Per-layer figures from the traced run: each layer's mean self time
   per call, taken from the traced operations where they reach the
   layer and from the probe otherwise. *)
let per_layer opts (r : report) =
  Span.phase := "probe";
  Span.enabled := true;
  let seen, probe_eff = Probe.run_pool ~jobs r.probe_inputs in
  let split =
    match r.tune_side with
    | Some split -> split
    | None ->
      let split = Probe.tune_split () in
      let i = first_fixed r.probe_inputs in
      let p = Locality_lang.Lower.parse_program i.Probe.text in
      let name = i.Probe.name in
      ignore
        (Span.record ~op:true "tune.search" (fun () ->
             Tune.run ~spec:Tune.quick_spec ~store:None ~name p));
      ignore (Probe.recorded_tune split ~spec:Tune.quick_spec ~name p);
      split
  in
  let serve_acc =
    match r.serve_side with
    | Some s -> s
    | None ->
      Probe.mini_serve ~memoria:opts.memoria
        ~dir:(Filename.concat opts.workdir "mini-serve")
        ~jobs ~rounds:10
        (List.filteri (fun i _ -> i < 3) r.probe_inputs)
  in
  let batched =
    Probe.batching ~tally:r.tally ~memoria:opts.memoria
      ~dir:(Filename.concat opts.workdir "batching") ~jobs
      (match opts.workload with
      | "serve" -> hot_requests ()
      | _ ->
        List.map (Probe.request_of ~store:Request.Ambient)
          (List.filteri (fun i _ -> i < 3) r.probe_inputs))
  in
  Span.enabled := false;
  let spans = Span.all () in
  Span.write (Filename.concat opts.workdir ("trace-" ^ opts.workload ^ ".json")) spans;
  let tbl = Span.by_name spans in
  let per_call name =
    match (Hashtbl.find_opt tbl ("main", name), Hashtbl.find_opt tbl ("probe", name)) with
    | Some (n, s), _ | None, Some (n, s) -> s /. float_of_int n
    | None, None -> failwith ("no spans recorded for " ^ name)
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let p50 l = Bstat.percentile_exn 50 (Array.of_list l) in
  let traced = Option.get r.traced in
  let u = r.untraced in
  let results = List.map (fun (s : Probe.seen) -> s.Probe.result) seen in
  let fixed =
    List.filter_map
      (fun (s : Probe.seen) -> if s.Probe.input.Probe.fixed then Some s.Probe.result else None)
      seen
  in
  (* Accesses a capture recorded: what replaying it on any geometry
     reads. *)
  let captured (m : D.measured) =
    m.D.original_run.Measure.whole.Measure.accesses
    + m.D.transformed_run.Measure.whole.Measure.accesses
  in
  let replays = List.concat_map (fun (r : D.result) -> r.D.measured) results in
  let accesses_per_replay =
    float_of_int (sum captured replays) /. float_of_int (2 * List.length replays)
  in
  let tuned = r.tune_side <> None in
  let searches = float_of_int (max 1 split.Probe.searches) in
  [
    metric "lang.parse_us" "us" (per_call "lang.parse" *. 1e6);
    metric "dep.deps_ms" "ms" (per_call "dep.deps" *. 1e3);
    metric "core.compound_ms" "ms" (per_call "core.compound" *. 1e3);
    metric "core.transforms_applied" "count"
      (float_of_int
         (sum (fun (r : D.result) -> Probe.transforms_applied (Option.get r.D.compound)) fixed));
    metric "interp.capture_ms" "ms" (per_call "interp.capture" *. 1e3);
    metric "interp.accesses" "count"
      (float_of_int (sum (fun (r : D.result) -> captured (List.hd r.D.measured)) fixed));
    metric "cachesim.replay_ms" "ms" (per_call "cachesim.replay" *. 1e3);
    metric "cachesim.accesses_per_us" "1/us"
      (accesses_per_replay /. (per_call "cachesim.replay" *. 1e6));
    metric "analytic.estimate_ms" "ms"
      (if tuned then split.Probe.analytic_s /. float_of_int (max 1 split.Probe.analytic_calls) *. 1e3
       else per_call "analytic.estimate" *. 1e3);
    metric "analytic.fallback_ratio" "ratio"
      (if tuned then ratio split.Probe.analytic_fallbacks split.Probe.analytic_calls
       else
         ratio
           (sum (fun (s : Probe.seen) -> s.Probe.fallbacks) seen)
           (sum (fun (s : Probe.seen) -> s.Probe.estimates) seen));
    metric "tune.search_ms" "ms" (per_call "tune.search" *. 1e3);
    metric "tune.screen_ms" "ms" (split.Probe.screen_s /. searches *. 1e3);
    metric "tune.confirm_ms" "ms" (split.Probe.confirm_s /. searches *. 1e3);
    metric "tune.legal_ratio" "ratio" (ratio split.Probe.screened split.Probe.generated);
    metric "store.hit_ratio" "ratio" serve_acc.Probe.hit_ratio;
    metric "store.bytes" "bytes" (float_of_int serve_acc.Probe.bytes);
    metric "driver.warm_run_us" "us" (p50 serve_acc.Probe.warm_runs *. 1e6);
    metric "driver.request_parse_us" "us" (per_call "driver.request_parse" *. 1e6);
    metric "driver.response_encode_us" "us" (per_call "driver.response_encode" *. 1e6);
    metric "serve.overhead_us" "us"
      ((p50 serve_acc.Probe.round_trips -. p50 serve_acc.Probe.warm_runs) *. 1e6);
    metric "serve.batched" "count" (float_of_int batched);
    metric "serve.rejected" "count" (float_of_int serve_acc.Probe.rejected);
    metric "par.efficiency" "ratio"
      (if u.busy > 0.0 then u.busy /. (float_of_int jobs *. u.wall) else probe_eff);
    metric "runtime.minor_words_per_op" "words" (u.minor_words /. float_of_int u.ops);
    metric "runtime.major_gcs" "count" (float_of_int u.major_gcs);
    metric "obs.trace_overhead_pct" "%"
      ((1.0 -. (ops_per_s traced /. ops_per_s u)) *. 100.0);
  ]

(* ------------------------------------------------ recording check --- *)

(* The compound optimizer must transform a program the same way with
   the program's own recording ([Obs]) on as with it off. It does not
   always (README.md), so this check fails until lib/core/fusion.ml is
   fixed. Over the first [n] cold programs of seed 1's serve stream,
   returns how many are transformed differently. *)
let recording_check n =
  let applied text =
    Probe.transforms_applied
      (snd (Compound.run_program ~cls:4 (Locality_lang.Lower.parse_program text)))
  in
  let differ = ref 0 in
  for c = 0 to n - 1 do
    let name, text = Reqstream.cold_text ~seed:1 c in
    let off = applied text in
    let on_, _ = Locality_obs.Obs.collect (fun () -> applied text) in
    if off <> on_ then begin
      incr differ;
      log "DIFFERS %s: %d transformations with recording off, %d with it on" name off on_
    end
  done;
  log "recording check: %d of %d programs transformed differently with recording on"
    !differ n;
  !differ

(* ---------------------------------------------------------- main --- *)

let usage =
  "bench.exe --workload tables|tune|serve --seed N --seconds S --trace 0|1 \
   --memoria PATH --workdir DIR\n\
   bench.exe --recording-check N"

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let memoria = ref "" and workdir = ref "" and check = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME tables, tune or serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--memoria", Arg.Set_string memoria, "PATH memoria executable (serve)");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory");
      ("--recording-check", Arg.Set_int check, "N run the recording check on N programs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !check > 0 then exit (if recording_check !check = 0 then 0 else 1);
  if !workdir = "" || !memoria = "" then (prerr_endline usage; exit 2);
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    memoria = !memoria; workdir = !workdir }

let () =
  let opts = parse_args () in
  Daemon.mkdir_p opts.workdir;
  let run =
    match opts.workload with
    | "tables" -> tables
    | "tune" -> tune
    | "serve" -> serve
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  let r = run opts in
  let u = r.untraced in
  log "%s: %d ops in %.2f s, %d latency samples (p%d backed by %d beyond), %d failed of %d"
    opts.workload u.ops u.wall (Array.length u.lat_ms) r.tail
    (Bstat.samples_beyond r.tail (Array.length u.lat_ms))
    r.tally.Bstat.failed r.tally.Bstat.attempted;
  List.iter (fun (k, n) -> log "  failures: %s x%d" k n) r.tally.Bstat.kinds;
  let metrics = if opts.trace then per_layer opts r else end_to_end r in
  List.iter (fun m -> log "  %-28s %14.6f %s" m.Bstat.name m.Bstat.value m.Bstat.unit_) metrics;
  let correct = Bstat.mismatches r.tally = 0 in
  print_endline
    (Bstat.result_line ~correct ~attempted:r.tally.Bstat.attempted
       ~failed:r.tally.Bstat.failed metrics);
  exit (if correct then 0 else 1)
