(* The traced run's layer probe: the layers a workload's timed
   operations do not reach, each public entry point called on the
   workload's own inputs inside a span. It makes every per-layer figure
   a measurement on every workload, and gives the exact counts
   (transforms applied, accesses captured) over the workload's fixed
   input set. *)

module D = Locality_driver.Driver
module Request = Locality_driver.Request
module Response = Locality_driver.Response
module Measure = Locality_interp.Measure
module Machine = Locality_cachesim.Machine
module Compound = Locality_core.Compound
module Analysis = Locality_dep.Analysis
module Analytic = Locality_analytic.Analytic
module Store = Locality_store.Store
module Tune = Locality_stats.Tune
module Pool = Locality_par.Pool
module Obs = Locality_obs.Obs
module Summary = Locality_obs.Summary

let machines = [ Machine.cache1; Machine.cache2 ]

(* A probe input: the program as source text, as a request would ship
   it; whether it belongs to the workload's fixed set (the exact counts
   are taken over those only); and the pipeline's result for it when the
   workload's traced operations already ran that pipeline. *)
type input = { name : string; text : string; fixed : bool; result : D.result option }

let input_of_program ?result name p =
  { name; text = Pretty.program_to_string p; fixed = true; result }

(* Loop permutations, enabling fusions, distributions, reversals and
   cross-nest fusions the compound algorithm applied. *)
let transforms_applied (s : Compound.stats) =
  List.fold_left
    (fun acc (n : Compound.nest_stat) ->
      acc
      + Bool.to_int n.Compound.permuted
      + Bool.to_int n.Compound.fused_enabling
      + Bool.to_int n.Compound.distributed
      + n.Compound.reversed)
    s.Compound.fusions_applied s.Compound.nests

(* The labels [Driver.run] reports as optimized: those of the nests the
   compound algorithm changed. *)
let changed_labels (s : Compound.stats) =
  List.concat_map
    (fun (n : Compound.nest_stat) ->
      if n.Compound.permuted || n.Compound.fused_enabling || n.Compound.distributed
      then n.Compound.labels
      else [])
    s.Compound.nests

(* The work [Driver.run] does on a tables config — compound transform,
   capture of both programs, replay on each geometry — made of the layer
   calls it is built from, each in its span. The traced tables operation
   and the probe both run this. *)
let pipeline ~name p =
  let p', stats =
    Span.record "core.compound" (fun () -> Compound.run_program ~cls:4 p)
  in
  let labels = changed_labels stats in
  let cap q =
    Span.record "interp.capture" (fun () ->
        Measure.capture ~mode:Measure.Runs ~store:None q)
  in
  let co = cap p and ct = cap p' in
  let measured =
    List.map
      (fun m ->
        let replay c =
          Span.record "cachesim.replay" (fun () ->
              Measure.replay ~config:m ~optimized_labels:labels ~store:None c)
        in
        let o = replay co and t = replay ct in
        { D.machine = m; original_run = o; transformed_run = t;
          speedup = o.Measure.cycles /. t.Measure.cycles })
      machines
  in
  { D.name; original = p; transformed = p'; compound = Some stats;
    optimized_labels = labels; measured }

let request_of ?(store = Request.No_store) inp =
  Request.make ~id:inp.name
    ~machines:(List.map (fun m -> Request.Named m) [ "cache1"; "cache2" ])
    ~replay:Measure.Runs ~use_labels:true ~store
    (Request.Text { name = inp.name; text = inp.text })

(* What the probe saw of one input. *)
type seen = { input : input; result : D.result; estimates : int; fallbacks : int }

(* One input through every layer, each call in its span; the pipeline
   only when the workload's operations have not run it already. *)
let one inp =
  Span.record ~op:true "probe.input" (fun () ->
      let p = Span.record "lang.parse" (fun () -> Locality_lang.Lower.parse_program inp.text) in
      List.iter
        (fun nest ->
          ignore (Span.record "dep.deps" (fun () -> Analysis.deps [ Loop.Loop nest ])))
        (Program.top_loops p);
      let r = match inp.result with Some r -> r | None -> pipeline ~name:inp.name p in
      let estimates = ref 0 and fallbacks = ref 0 in
      List.iter
        (fun m ->
          List.iter
            (fun q ->
              incr estimates;
              match
                Span.record "analytic.estimate" (fun () ->
                    Analytic.estimate ~optimized_labels:r.D.optimized_labels ~config:m q)
              with
              | Ok _ -> ()
              | Error _ -> incr fallbacks)
            [ r.D.original; r.D.transformed ])
        machines;
      let json = Request.to_json (request_of inp) in
      (match Span.record "driver.request_parse" (fun () -> Request.of_json json) with
      | Ok _ -> ()
      | Error e -> failwith ("probe: request does not round-trip: " ^ e));
      ignore
        (Span.record "driver.response_encode" (fun () ->
             Response.to_json (Response.of_run ~id:inp.name (Ok r))));
      { input = inp; result = r; estimates = !estimates; fallbacks = !fallbacks })

(* The inputs over one [Pool.map], with its efficiency:
   Σ item busy / (jobs × wall). *)
let run_pool ~jobs inputs =
  let t0 = Bstat.now () in
  let out =
    Pool.map ~jobs
      (fun inp ->
        let s = Bstat.now () in
        let seen = one inp in
        (seen, Bstat.now () -. s))
      inputs
  in
  let wall = Bstat.now () -. t0 in
  let busy = List.fold_left (fun a (_, b) -> a +. b) 0.0 out in
  (List.map fst out, busy /. (float_of_int jobs *. wall))

(* ------------------------------------------------------- tune layer --- *)

(* Screening and confirmation happen inside [Tune.run] with no public
   boundary, so their split comes from its existing [tune.screen] /
   [tune.confirm] spans (and Measure's [analytic] span and counters),
   read as a cross-check from searches run under [Obs.collect]. Those
   searches run with the program's recording on, which is not neutral
   (see README.md), so they are never the ones [tune.search_ms] times. *)
type tune_split = {
  mutable searches : int;
  mutable screen_s : float;
  mutable confirm_s : float;
  mutable generated : int;
  mutable screened : int;
  mutable analytic_calls : int;
  mutable analytic_s : float;
  mutable analytic_fallbacks : int;
}

let tune_split () =
  { searches = 0; screen_s = 0.0; confirm_s = 0.0; generated = 0; screened = 0;
    analytic_calls = 0; analytic_s = 0.0; analytic_fallbacks = 0 }

let recorded_tune acc ~spec ~name ?n program =
  let r, events = Obs.collect (fun () -> Tune.run ~spec ?n ~store:None ~name program) in
  acc.searches <- acc.searches + 1;
  let s = Summary.of_events events in
  let span n =
    match List.find_opt (fun (r : Summary.span_row) -> r.Summary.name = n) s.Summary.spans with
    | Some r -> (r.Summary.count, Summary.ms r.Summary.total_ns /. 1000.0)
    | None -> (0, 0.0)
  in
  let counter n = Option.value ~default:0 (List.assoc_opt n s.Summary.counters) in
  acc.screen_s <- acc.screen_s +. snd (span "tune.screen");
  acc.confirm_s <- acc.confirm_s +. snd (span "tune.confirm");
  let ac, asec = span "analytic" in
  acc.analytic_calls <- acc.analytic_calls + ac;
  acc.analytic_s <- acc.analytic_s +. asec;
  acc.analytic_fallbacks <- acc.analytic_fallbacks + counter "analytic.fallback";
  (match r with
  | Ok t ->
    acc.generated <- acc.generated + t.Tune.t_generated;
    acc.screened <- acc.screened + t.Tune.t_screened
  | Error _ -> ());
  r

(* ------------------------------------------------ serve/store layer --- *)

type serve_acc = {
  round_trips : float list;  (** warm request round trips, s *)
  warm_runs : float list;  (** in-process warm Driver.run, s *)
  hit_ratio : float;  (** store hits / lookups over the warm runs *)
  bytes : int;  (** size of the daemon's store *)
  rejected : int;  (** overloaded or timed-out replies the client saw *)
}

(* In-process [Driver.run]s of [requests] against the store a stopped
   daemon warmed: their times, the store's hit ratio over them and its
   size. *)
let store_side ~daemon ~round_trips ~rejected ~reps requests =
  let root = daemon.Daemon.store in
  let warm = ref [] in
  let c0 = Store.counters () in
  for _ = 1 to reps do
    List.iter
      (fun (req : Request.t) ->
        match Request.to_config { req with Request.store = Request.Root root } with
        | Error e -> failwith e
        | Ok cfg ->
          let t0 = Bstat.now () in
          ignore (Span.record "driver.warm_run" (fun () -> D.run cfg));
          warm := (Bstat.now () -. t0) :: !warm)
      requests
  done;
  let c1 = Store.counters () in
  let hits = c1.Store.hits - c0.Store.hits
  and misses = c1.Store.misses - c0.Store.misses in
  {
    round_trips;
    warm_runs = !warm;
    hit_ratio = float_of_int hits /. float_of_int (max 1 (hits + misses));
    bytes = (Store.disk_stats (Store.open_root root)).Store.bytes;
    rejected;
  }

(* A short-lived daemon for workloads whose operations never reach
   serve: each input sent once cold, then [rounds] warm round trips. *)
let mini_serve ~memoria ~dir ~jobs ~rounds inputs =
  let daemon = Daemon.start ~memoria ~dir ~jobs () in
  let requests = List.map (request_of ~store:Request.Ambient) inputs in
  let rts = ref [] and rejected = ref 0 in
  Fun.protect
    ~finally:(fun () -> Daemon.stop daemon)
    (fun () ->
      let conn = Daemon.connect daemon in
      Fun.protect
        ~finally:(fun () -> Daemon.close conn)
        (fun () ->
          (* Returns the round trip in seconds. *)
          let ask (r : Request.t) =
            let line = Request.to_json r in
            let t0 = Bstat.now () in
            let reply = Daemon.ask conn line in
            let t1 = Bstat.now () in
            (match Reply.classify ~id:r.Request.id reply with
            | Bstat.Failed ("overloaded" | "timeout") -> incr rejected
            | _ -> ());
            Span.add ~name:"serve.request" ~t0 ~t1;
            t1 -. t0
          in
          List.iter (fun r -> ignore (ask r)) requests;
          for _ = 1 to rounds do
            List.iter (fun r -> rts := ask r :: !rts) requests
          done));
  let acc =
    store_side ~daemon ~round_trips:!rts ~rejected:!rejected ~reps:rounds requests
  in
  Daemon.remove daemon;
  acc

(* In-process answer to a request, without a store. *)
let in_process (req : Request.t) =
  match Request.to_config { req with Request.store = Request.No_store } with
  | Error e -> Error e
  | Ok cfg -> D.run cfg

(* The daemon batches concurrent identical requests, and only its own
   [serve.batched] counter sees it. A fresh daemon started with
   [--metrics] (its recording on) gets each request twice at once, on
   two connections, so the second arrives while the first computes.
   Every reply is compared with the in-process response ([Reply.outcome])
   and its outcome recorded in [tally]. Returns the counter. *)
let batching ~tally ~memoria ~dir ~jobs requests =
  let daemon = Daemon.start ~memoria ~dir ~jobs ~metrics:true () in
  Fun.protect
    ~finally:(fun () -> Daemon.stop daemon)
    (fun () ->
      let conns = [ Daemon.connect daemon; Daemon.connect daemon ] in
      Fun.protect
        ~finally:(fun () -> List.iter Daemon.close conns)
        (fun () ->
          List.iter
            (fun (req : Request.t) ->
              let want = lazy (in_process req) in
              let ids =
                List.mapi
                  (fun i c ->
                    let id = Printf.sprintf "%s-%d" req.Request.id i in
                    Daemon.send c (Request.to_json { req with Request.id });
                    id)
                  conns
              in
              List.iter2
                (fun c id ->
                  let want = lazy (Response.to_json (Response.of_run ~id (Lazy.force want))) in
                  let o = Reply.outcome ~id ~want (Daemon.await c) in
                  if o = Bstat.Failed "mismatch" then
                    Printf.eprintf "MISMATCH %s: reply differs from the in-process response\n%!" id;
                  Bstat.record tally o)
                conns ids)
            requests));
  let n = Daemon.counter daemon "serve.batched" in
  Daemon.remove daemon;
  n
