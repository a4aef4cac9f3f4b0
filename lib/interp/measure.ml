module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Hierarchy = Locality_cachesim.Hierarchy
module Obs = Locality_obs.Obs
module Store = Locality_store.Store
module Sample = Locality_sample.Sample
module Analytic = Locality_analytic.Analytic

type region = {
  accesses : int;
  hits : int;
  cold : int;
}

type run = {
  whole : region;
  optimized : region;
  ops : int;
  cycles : float;
  seconds : float;
}

let hit_rate ?exclude_cold r =
  Cache.rate_of_counts ?exclude_cold ~accesses:r.accesses ~hits:r.hits
    ~cold:r.cold ()

type hier_run = {
  l1_rate : float;
  l2_rate : float;
  amat : float;
  hier_writebacks : int;
}

(* The one run constructor: every backend reduces to these counts. *)
let make_run ~ops whole optimized =
  let timing = Machine.default_timing in
  let misses = whole.accesses - whole.hits in
  {
    whole;
    optimized;
    ops;
    cycles = Machine.cycles timing ~ops ~hits:whole.hits ~misses;
    seconds = Machine.seconds timing ~ops ~hits:whole.hits ~misses;
  }

type replay_mode = Runs | Sampled | Analytic

let mode_of_string = function
  | "runs" -> Some Runs
  | "sample" -> Some Sampled
  | "analytic" -> Some Analytic
  | _ -> None

let mode_to_string = function
  | Runs -> "runs"
  | Sampled -> "sample"
  | Analytic -> "analytic"

(* The trace format's tag in run and hierarchy keys. *)
let trace_tag = "v2"

(* ------------------------------------------------- store keying ----- *)

(* The program being measured, with what every store key of it starts
   with: the canonical program text (the pretty printer is the normal
   form; it prints no statement labels) and the parameter overrides.
   Two builds of one program text can label it differently, so keys
   name a statement by its position in program order instead
   ({!Program.positional_label}); a store entry written by one build of
   a program is then read correctly by any other. *)
type source = {
  program : Program.t;
  params : (string * int) list option;
  store : Store.t option;
  ident : string list Lazy.t;
  position : (string -> string) Lazy.t;
}

let config_tag (c : Cache.config) =
  Printf.sprintf "%s/%d/%d/%d" c.Cache.name c.Cache.size_bytes c.Cache.assoc
    c.Cache.line_bytes

let timing_tag (t : Machine.timing) =
  Printf.sprintf "%h/%h/%h" t.Machine.cycles_per_op t.Machine.cycles_per_hit
    t.Machine.miss_penalty

let params_tag params =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) params)

let source ?params ~store program =
  {
    program;
    params;
    store;
    ident =
      lazy
        [
          Pretty.program_to_string program;
          params_tag (Option.value params ~default:[]);
        ];
    position = lazy (Program.positional_label program);
  }

let position src label = Lazy.force src.position label

(* The one key builder. [kind] names the mode that produced the value
   (so modes never alias each other's entries) and, with the parts,
   determines its type; [labels] is an optimized-region label set. The
   store mixes its format version into every key. *)
let key src ~kind ?labels parts =
  let labels =
    match labels with
    | None -> []
    | Some ls ->
      [
        String.concat "\x00"
          (List.sort_uniq String.compare (List.map (position src) ls));
      ]
  in
  Store.key ~kind (Lazy.force src.ident @ parts @ labels)

let memo src ~kind ?labels parts compute =
  Store.memo src.store (fun () -> key src ~kind ?labels parts) compute

type query = {
  config : Cache.config;
  labels : string list;
}

(* Every run is costed with the one timing model; its tag stays in the
   key, so changing the model retires the runs costed with the old one. *)
let geometry q = [ config_tag q.config; timing_tag Machine.default_timing ]

(* Membership in the optimized region, by program position, so a label
   of this build and a positional one mark the same statement. *)
let marker src labels =
  let marked = List.map (position src) labels in
  fun l -> List.mem (position src l) marked

(* ---------------------------------------------- one walk, N sinks --- *)

(* A sink takes each chunk with the labels interned so far. *)
type sink = string array -> Trace.Runchunk.t -> unit

(* One execution's trace, pushed chunk by chunk into a sink; returns
   the operation count. A live walk hands each chunk over the moment it
   fills, so no trace is materialised; a capture replays its chunks. *)
type feed = sink -> int

(* Walk the program's addresses into the sink. Labels are interned at
   compile time, before the first access, so the label table is
   complete by the first flush. *)
let walk src (sink : sink) =
  let buf = ref None in
  let rb =
    Trace.run_create
      ~sink:(fun rc ->
        sink (match !buf with Some b -> Trace.run_labels b | None -> [||]) rc)
      ()
  in
  buf := Some rb;
  let res = Walk.run ?params:src.params rb src.program in
  (res.Walk.ops, Trace.run_labels rb)

let live src : feed = fun sink -> fst (walk src sink)

(* The fan-out: one pass of [feed], every chunk handed to each sink in
   turn, so any number of simulations share one walk and hold only
   their own state. *)
let fan_out (feed : feed) (sinks : sink list) =
  Obs.span "replay" ~args:[ ("sinks", string_of_int (List.length sinks)) ]
    (fun () ->
      let chunks = ref 0 in
      let ops =
        feed (fun labels rc ->
            incr chunks;
            List.iter (fun sink -> sink labels rc) sinks)
      in
      if Obs.enabled () then begin
        Obs.add_span_arg "chunks" (string_of_int !chunks);
        Obs.counter "chunks.replayed" !chunks
      end;
      ops)

(* A simulation in progress: the sink it is fed through and the run it
   reports once the feed's operation count is known. *)
type sim = { sink : sink; finish : int -> run }

(* The one cache simulation, whatever feeds it: identical chunks into
   the same simulator give bit-identical runs. *)
let cache_sim src q =
  let cache = Cache.create q.config in
  let region = Cache.fresh_region () in
  let metrics = Cache.fresh_run_metrics () in
  let marked = marker src q.labels in
  let flags = ref [||] in
  {
    sink =
      (fun labels rc ->
        if Array.length !flags <> Array.length labels then
          flags := Array.map marked labels;
        Cache.simulate_runs cache ~marked:!flags ~region ~metrics rc);
    finish =
      (fun ops ->
        let s = Cache.stats cache in
        if Obs.enabled () then begin
          Obs.counter "cache.accesses" s.Cache.accesses;
          Obs.counter "cache.hits" s.Cache.hits;
          Obs.counter "cache.cold" s.Cache.cold_misses;
          Obs.histogram "replay.accesses" s.Cache.accesses;
          Obs.counter "replay.run_groups" metrics.Cache.m_groups;
          Obs.counter "replay.boundary_events" metrics.Cache.m_boundaries;
          Obs.counter "replay.bulk_iters" metrics.Cache.m_bulk_iters;
          Obs.counter "replay.fallbacks" metrics.Cache.m_fallbacks
        end;
        make_run ~ops
          { accesses = s.Cache.accesses; hits = s.Cache.hits;
            cold = s.Cache.cold_misses }
          { accesses = region.Cache.r_accesses; hits = region.Cache.r_hits;
            cold = region.Cache.r_cold });
  }

(* ------------------------------------------------------- backends --- *)

type backend = {
  runs : query list -> run list;
  hierarchy : l1:Cache.config -> l2:Cache.config -> hier_run;
}

(* [Runs]: complete a batch. A [Left] answer stands; each [Right]
   query is answered from the store under its run key, and the misses
   share one walk, a simulator each. A fully warm batch never walks. *)
let exact_runs src answers =
  let run_key q =
    key src ~kind:"run" ~labels:q.labels (trace_tag :: geometry q)
  in
  let stored q =
    Option.bind src.store (fun st -> Store.get_value st (run_key q))
  in
  let answers =
    List.map
      (Either.fold ~left:Either.left ~right:(fun q ->
           match stored q with
           | Some r -> Either.Left r
           | None -> Either.Right (q, cache_sim src q)))
      answers
  in
  let missing = List.filter_map Either.find_right answers in
  let ops =
    if missing = [] then 0
    else fan_out (live src) (List.map (fun (_, s) -> s.sink) missing)
  in
  List.map
    (Either.fold ~left:Fun.id ~right:(fun (q, s) ->
         let r = s.finish ops in
         Option.iter (fun st -> Store.put_value st (run_key q) r) src.store;
         r))
    answers

(* Hierarchies are exact in every mode. *)
let exact_hierarchy src ~l1 ~l2 =
  memo src ~kind:"hier" [ trace_tag; config_tag l1; config_tag l2 ] (fun () ->
      let h = Hierarchy.create ~l1 ~l2 in
      ignore
        (fan_out (live src) [ (fun _ rc -> Hierarchy.simulate_runs h rc) ]);
      {
        l1_rate = Cache.hit_rate (Hierarchy.l1_stats h);
        l2_rate = Cache.hit_rate (Hierarchy.l2_stats h);
        amat = Hierarchy.amat h;
        hier_writebacks = Hierarchy.writebacks h;
      })

(* [Sampled]: one SHARDS profile per (line size, set count) partition —
   the associativity does not enter it — serves every geometry sharing
   it. Hits are the weight of observations whose scaled same-set
   distance is below the way count (the exact set-associative LRU
   condition); access and op counts are exact. *)
let profile src ~rate ~line_bytes ~sets =
  Obs.span "sample"
    ~args:
      [ ("line_bytes", string_of_int line_bytes); ("sets", string_of_int sets) ]
    (fun () ->
      let sampler = Sample.create ~rate ~line_bytes ~sets () in
      let ops, labels =
        walk src (fun _ rc -> Sample.consume_runchunk sampler rc)
      in
      let prof =
        Sample.profile sampler ~labels:(Array.map (position src) labels) ~ops
      in
      if Obs.enabled () then begin
        Obs.counter "sample.accesses" prof.Sample.pf_accesses;
        Obs.counter "sample.sampled" prof.Sample.pf_sampled;
        Obs.counter "sample.adaptations" prof.Sample.pf_adaptations;
        Obs.gauge "sample.rate" prof.Sample.pf_final_rate
      end;
      prof)

let run_of_profile ~ways ~marked (prof : Sample.profile) =
  let w_hits = ref 0.0 and w_cold = ref 0.0 in
  let o_hits = ref 0.0 and o_cold = ref 0.0 and o_acc = ref 0 in
  Array.iteri
    (fun lid label ->
      let h = Sample.hits_under prof lid ~ways in
      let c = prof.Sample.pf_label_cold.(lid) in
      w_hits := !w_hits +. h;
      w_cold := !w_cold +. c;
      if marked label then begin
        o_acc := !o_acc + prof.Sample.pf_label_accesses.(lid);
        o_hits := !o_hits +. h;
        o_cold := !o_cold +. c
      end)
    prof.Sample.pf_labels;
  let clamp ~accesses hits cold =
    let hits = max 0 (min accesses (int_of_float (Float.round hits))) in
    { accesses; hits;
      cold = max 0 (min (accesses - hits) (int_of_float (Float.round cold))) }
  in
  make_run ~ops:prof.Sample.pf_ops
    (clamp ~accesses:prof.Sample.pf_accesses !w_hits !w_cold)
    (clamp ~accesses:!o_acc !o_hits !o_cold)

let sample_run ~rate src q =
  let line_bytes = q.config.Cache.line_bytes in
  let sets =
    max 1 (q.config.Cache.size_bytes / (line_bytes * q.config.Cache.assoc))
  in
  let prof =
    memo src ~kind:"sample"
      [
        "profile"; Printf.sprintf "%h" rate; "0"; string_of_int line_bytes;
        string_of_int sets;
      ]
      (fun () -> profile src ~rate ~line_bytes ~sets)
  in
  run_of_profile ~ways:q.config.Cache.assoc
    ~marked:(marker src q.labels) prof

(* [Analytic]: the closed-form model, O(nest size). Only estimates are
   memoised: a program out of the model's scope raises [Fallback],
   which {!Store.memo} never stores — the verdict is cheaper to
   recompute than a store round trip, and the fallback's runs have
   their own entries. *)
exception Fallback

let estimate src q =
  Obs.span "analytic" ~args:[ ("cache", q.config.Cache.name) ] (fun () ->
      match
        Analytic.estimate ?params:src.params ~optimized_labels:q.labels
          ~config:q.config src.program
      with
      | Ok est ->
        if Obs.enabled () then
          Obs.add_span_arg "exact" (string_of_bool est.Analytic.e_exact);
        let region (c : Analytic.counts) =
          { accesses = c.Analytic.c_accesses; hits = c.Analytic.c_hits;
            cold = c.Analytic.c_cold }
        in
        make_run ~ops:est.Analytic.e_ops (region est.Analytic.e_whole)
          (region est.Analytic.e_optimized)
      | Error reason ->
        if Obs.enabled () then begin
          Obs.counter "analytic.fallback" 1;
          Obs.add_span_arg "fallback" reason
        end;
        raise Fallback)

(* Estimates answer what they can; the fallbacks go to the exact
   backend as one batch, so they share one walk. *)
let analytic_runs src queries =
  exact_runs src
    (List.map
       (fun q ->
         match
           memo src ~kind:"analytic" ~labels:q.labels (geometry q) (fun () ->
               estimate src q)
         with
         | r -> Either.Left r
         | exception Fallback -> Either.Right q)
       queries)

let prepare ?(mode = Runs) ?(rate = Sample.default_rate) ?params
    ?(store = None) p =
  let src = source ?params ~store p in
  let runs =
    match mode with
    | Runs -> fun qs -> exact_runs src (List.map Either.right qs)
    | Sampled -> List.map (sample_run ~rate src)
    | Analytic -> analytic_runs src
  in
  { runs; hierarchy = exact_hierarchy src }

let query ?(config = Machine.cache1) ?(optimized_labels = []) () =
  { config; labels = optimized_labels }

let replay_prepared ?config ?optimized_labels b =
  match b.runs [ query ?config ?optimized_labels () ] with
  | [ r ] -> r
  | rs ->
    invalid_arg
      (Printf.sprintf "Measure: %d runs for one query" (List.length rs))

let replay_hierarchy_prepared ?(l1 = Machine.cache2) ?(l2 = Machine.cache1) b =
  b.hierarchy ~l1 ~l2

let measure ?config ?optimized_labels ?mode ?rate ?params ?store p =
  replay_prepared ?config ?optimized_labels
    (prepare ?mode ?rate ?params ?store p)

let measure_hierarchy ?l1 ?l2 ?mode ?params ?store p =
  replay_hierarchy_prepared ?l1 ?l2 (prepare ?mode ?params ?store p)

(* ------------------------------------------------------- captures --- *)

type capture = {
  src : source;
  trace : Trace.captured_runs;
  cap_ops : int;
}

let capture ?mode:_ ?params ?store:_ p =
  let rb, finish = Trace.run_capturing () in
  let res = Walk.run ?params rb p in
  {
    src = source ?params ~store:None p;
    trace = finish ();
    cap_ops = res.Walk.ops;
  }

let trace_stats { trace = t; _ } =
  (t.Trace.run_records, t.Trace.run_stream_words, t.Trace.run_groups)

let replay ?config ?optimized_labels ?store:_ cap =
  let s = cache_sim cap.src (query ?config ?optimized_labels ()) in
  s.finish
    (fan_out
       (fun sink ->
         let t = cap.trace in
         Trace.iter_run_chunks t (sink t.Trace.run_trace_labels);
         cap.cap_ops)
       [ s.sink ])
