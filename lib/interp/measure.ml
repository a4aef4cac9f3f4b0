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
let make_run ~timing ~ops whole optimized =
  let misses = whole.accesses - whole.hits in
  {
    whole;
    optimized;
    ops;
    cycles = Machine.cycles timing ~ops ~hits:whole.hits ~misses;
    seconds = Machine.seconds timing ~ops ~hits:whole.hits ~misses;
  }

type replay_mode = Runs | Stream | Sampled | Analytic

let mode_of_string = function
  | "runs" -> Some Runs
  | "stream" -> Some Stream
  | "sample" -> Some Sampled
  | "analytic" -> Some Analytic
  | _ -> None

let mode_to_string = function
  | Runs -> "runs"
  | Stream -> "stream"
  | Sampled -> "sample"
  | Analytic -> "analytic"

(* The trace format's tag in capture, run and hierarchy keys: every
   mode that needs a trace captures the run-compressed stream, so they
   share these entries. *)
let trace_tag = "v2"

(* A stored capture is a bare [Trace.captured_runs]; it once sat in a
   format sum under the key [[trace_tag]], and store reads are unchecked
   unmarshals, so the bare payload takes a key of its own that those
   older entries cannot answer. Run and hierarchy results did not change
   shape and keep their keys. *)
let capture_parts = [ trace_tag; "runs" ]

(* ------------------------------------------------- store keying ----- *)

(* The program being measured, with what every store key of it starts
   with: the canonical program text (the pretty printer is the normal
   form; it prints no statement labels) and the parameter overrides.
   Statement labels are process-wide counter tickets, so keys and stored
   traces name a statement by its position in program order instead
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

(* The one memo: look the value up, else compute it and publish what
   [keep] makes of it. A corrupt entry reads as a miss (the store
   quarantines it), so it is recomputed and republished. [memo] stores
   every result; [memo_some] only the [Some] ones. *)
let memo_by src ~kind ?labels parts ~hit ~keep compute =
  match src.store with
  | None -> compute ()
  | Some st -> (
    let k = key src ~kind ?labels parts in
    match Store.get_value st k with
    | Some v -> hit v
    | None ->
      let r = compute () in
      Option.iter (Store.put_value st k) (keep r);
      r)

let memo src ~kind ?labels parts compute =
  memo_by src ~kind ?labels parts ~hit:Fun.id ~keep:Option.some compute

let memo_some src ~kind ?labels parts compute =
  memo_by src ~kind ?labels parts ~hit:Option.some ~keep:Fun.id compute

let geometry config timing = [ config_tag config; timing_tag timing ]

(* Membership in the optimized region, for trace labels that are either
   this build's names (a live walk) or positions (a capture). *)
let marker src labels =
  let marked = List.map (position src) labels in
  fun l -> List.mem (position src l) marked

(* ------------------------------------------------ run-chunk streams - *)

(* One execution's trace, pushed chunk by chunk into a sink along with
   the labels interned so far; returns the operation count. A stored
   capture replays its chunks; a live walk hands each chunk
   over the moment it fills, so no trace is materialised. *)
type feed = (string array -> Trace.Runchunk.t -> unit) -> int

(* Walk the program's addresses into the run-chunk sink. Labels are
   interned at compile time, before the first access, so the label
   table is complete by the first flush. *)
let walk src sink =
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

(* Chunk counts of one simulation, under the streamed or the replayed
   counters; called inside the simulation's span. *)
let count_chunks ~streamed ~chunks ~accesses =
  Obs.add_span_arg "chunks" (string_of_int chunks);
  if streamed then begin
    Obs.counter "stream.chunks" chunks;
    Obs.counter "stream.accesses" accesses
  end
  else Obs.counter "chunks.replayed" chunks

(* The one cache simulation, shared by capture-then-replay and
   streaming: identical chunks into the same simulator give
   bit-identical runs either way. [streamed] says which the feed is. *)
let simulate ~streamed ~config ~timing ~marked (feed : feed) =
  let phase = if streamed then "stream" else "replay" in
  Obs.span phase ~args:[ ("cache", config.Cache.name) ] (fun () ->
      let cache = Cache.create config in
      let region = Cache.fresh_region () in
      let metrics = Cache.fresh_run_metrics () in
      let flags = ref [||] and chunks = ref 0 in
      let ops =
        feed (fun labels rc ->
            if Array.length !flags <> Array.length labels then
              flags := Array.map marked labels;
            incr chunks;
            Cache.simulate_runs cache ~marked:!flags ~region ~metrics rc)
      in
      let s = Cache.stats cache in
      if Obs.enabled () then begin
        Obs.add_span_arg "accesses" (string_of_int s.Cache.accesses);
        Obs.add_span_arg "hits" (string_of_int s.Cache.hits);
        count_chunks ~streamed ~chunks:!chunks ~accesses:s.Cache.accesses;
        Obs.counter "cache.accesses" s.Cache.accesses;
        Obs.counter "cache.hits" s.Cache.hits;
        Obs.counter "cache.cold" s.Cache.cold_misses;
        Obs.histogram "replay.accesses" s.Cache.accesses;
        Obs.counter "replay.run_groups" metrics.Cache.m_groups;
        Obs.counter "replay.boundary_events" metrics.Cache.m_boundaries;
        Obs.counter "replay.bulk_iters" metrics.Cache.m_bulk_iters;
        Obs.counter "replay.fallbacks" metrics.Cache.m_fallbacks
      end;
      make_run ~timing ~ops
        { accesses = s.Cache.accesses; hits = s.Cache.hits;
          cold = s.Cache.cold_misses }
        { accesses = region.Cache.r_accesses; hits = region.Cache.r_hits;
          cold = region.Cache.r_cold })

let simulate_hierarchy ~streamed ~l1 ~l2 (feed : feed) =
  let phase = if streamed then "stream_hierarchy" else "replay_hierarchy" in
  Obs.span phase ~args:[ ("l1", l1.Cache.name); ("l2", l2.Cache.name) ]
    (fun () ->
      let h = Hierarchy.create ~l1 ~l2 in
      let chunks = ref 0 in
      ignore
        (feed (fun _ rc ->
             incr chunks;
             Hierarchy.simulate_runs h rc));
      if Obs.enabled () then
        count_chunks ~streamed ~chunks:!chunks
          ~accesses:(Hierarchy.l1_stats h).Cache.accesses;
      {
        l1_rate = Cache.hit_rate (Hierarchy.l1_stats h);
        l2_rate = Cache.hit_rate (Hierarchy.l2_stats h);
        amat = Hierarchy.amat h;
        hier_writebacks = Hierarchy.writebacks h;
      })

(* ------------------------------------------------------- captures --- *)

type capture = {
  src : source;
  trace : Trace.captured_runs;
  cap_ops : int;
}

(* Stored traces name statements by position (see [source]). *)
let walk_capture src =
  Obs.span "capture" ~args:[ ("format", trace_tag) ] (fun () ->
      let rb, finish = Trace.run_capturing () in
      let res = Walk.run ?params:src.params rb src.program in
      let t = finish () in
      if Obs.enabled () then begin
        Obs.counter "trace.runs_emitted" t.Trace.run_groups;
        Obs.counter "trace.records_compressed"
          (t.Trace.run_records - t.Trace.run_stream_words);
        Obs.histogram "capture.records" t.Trace.run_records
      end;
      ( { t with
          Trace.run_trace_labels =
            Array.map (position src) t.Trace.run_trace_labels },
        res.Walk.ops ))

let capture_of src =
  let trace, cap_ops =
    memo src ~kind:"capture" capture_parts (fun () -> walk_capture src)
  in
  { src; trace; cap_ops }

let capture_key ?params p =
  key (source ?params ~store:None p) ~kind:"capture" capture_parts

let capture ?mode:_ ?params ?(store = None) p =
  capture_of (source ?params ~store p)

let trace_stats { trace = t; _ } =
  (t.Trace.run_records, t.Trace.run_stream_words, t.Trace.run_groups)

let replayed cap : feed =
 fun sink ->
  Trace.iter_run_chunks cap.trace (sink cap.trace.Trace.run_trace_labels);
  cap.cap_ops

(* A result of replaying the capture of [src]; the capture is only
   forced on a store miss. *)
let replay_run src cap ~config ~timing ~labels =
  memo src ~kind:"run" ~labels (trace_tag :: geometry config timing)
    (fun () ->
      simulate ~streamed:false ~config ~timing ~marked:(marker src labels)
        (replayed (Lazy.force cap)))

let replay ?(config = Machine.cache1) ?(timing = Machine.default_timing)
    ?(optimized_labels = []) ?(store = None) cap =
  replay_run { cap.src with store } (Lazy.from_val cap) ~config ~timing
    ~labels:optimized_labels

(* ------------------------------------------------------- backends --- *)

type backend = {
  run :
    config:Cache.config -> timing:Machine.timing -> labels:string list -> run;
  hierarchy : l1:Cache.config -> l2:Cache.config -> hier_run;
}

(* [Runs]: walk once (lazily — a warm store never does), replay
   the capture per geometry. *)
let replay_backend src =
  let cap = lazy (capture_of src) in
  {
    run = replay_run src cap;
    hierarchy =
      (fun ~l1 ~l2 ->
        memo src ~kind:"hier" [ trace_tag; config_tag l1; config_tag l2 ]
          (fun () ->
            simulate_hierarchy ~streamed:false ~l1 ~l2
              (replayed (Lazy.force cap))));
  }

(* Streamed hierarchies are exact in [Sampled] mode too. *)
let stream_hierarchy src ~l1 ~l2 =
  memo src ~kind:"stream" [ "hier"; config_tag l1; config_tag l2 ] (fun () ->
      simulate_hierarchy ~streamed:true ~l1 ~l2 (live src))

(* [Stream]: re-walk per geometry, simulating each chunk as it fills
   — O(chunk) trace memory at any iteration count. *)
let stream_backend src =
  {
    run =
      (fun ~config ~timing ~labels ->
        memo src ~kind:"stream" ~labels ("run" :: geometry config timing)
          (fun () ->
            simulate ~streamed:true ~config ~timing
              ~marked:(marker src labels) (live src)));
    hierarchy = stream_hierarchy src;
  }

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

let run_of_profile ~timing ~ways ~marked (prof : Sample.profile) =
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
  make_run ~timing ~ops:prof.Sample.pf_ops
    (clamp ~accesses:prof.Sample.pf_accesses !w_hits !w_cold)
    (clamp ~accesses:!o_acc !o_hits !o_cold)

let sample_backend ~rate src =
  {
    run =
      (fun ~config ~timing ~labels ->
        let line_bytes = config.Cache.line_bytes in
        let sets =
          max 1 (config.Cache.size_bytes / (line_bytes * config.Cache.assoc))
        in
        let prof =
          memo src ~kind:"sample"
            [
              "profile"; Printf.sprintf "%h" rate; "0";
              string_of_int line_bytes; string_of_int sets;
            ]
            (fun () -> profile src ~rate ~line_bytes ~sets)
        in
        run_of_profile ~timing ~ways:config.Cache.assoc
          ~marked:(marker src labels) prof);
    hierarchy = stream_hierarchy src;
  }

(* [Analytic]: the closed-form model, O(nest size). Only estimates are
   memoised: a fallback verdict ([None]) is cheaper to recompute than a
   store round trip, and the fallback's replay has its own entries. *)
let estimate src ~config ~timing ~labels =
  Obs.span "analytic" ~args:[ ("cache", config.Cache.name) ] (fun () ->
      match
        Analytic.estimate ?params:src.params ~optimized_labels:labels ~config
          src.program
      with
      | Ok est ->
        if Obs.enabled () then
          Obs.add_span_arg "exact" (string_of_bool est.Analytic.e_exact);
        let region (c : Analytic.counts) =
          { accesses = c.Analytic.c_accesses; hits = c.Analytic.c_hits;
            cold = c.Analytic.c_cold }
        in
        Some
          (make_run ~timing ~ops:est.Analytic.e_ops
             (region est.Analytic.e_whole) (region est.Analytic.e_optimized))
      | Error reason ->
        if Obs.enabled () then begin
          Obs.counter "analytic.fallback" 1;
          Obs.add_span_arg "fallback" reason
        end;
        None)

let analytic_backend src =
  let fallback = replay_backend src in
  {
    run =
      (fun ~config ~timing ~labels ->
        match
          memo_some src ~kind:"analytic" ~labels (geometry config timing)
            (fun () -> estimate src ~config ~timing ~labels)
        with
        | Some r -> r
        | None -> fallback.run ~config ~timing ~labels);
    hierarchy = fallback.hierarchy;
  }

let prepare ?(mode = Runs) ?(rate = Sample.default_rate) ?params
    ?(store = None) p =
  let src = source ?params ~store p in
  match mode with
  | Runs -> replay_backend src
  | Stream -> stream_backend src
  | Sampled -> sample_backend ~rate src
  | Analytic -> analytic_backend src

let replay_prepared ?(config = Machine.cache1)
    ?(timing = Machine.default_timing) ?(optimized_labels = []) b =
  b.run ~config ~timing ~labels:optimized_labels

let replay_hierarchy_prepared ?(l1 = Machine.cache2) ?(l2 = Machine.cache1) b =
  b.hierarchy ~l1 ~l2

let measure ?config ?timing ?optimized_labels ?mode ?rate ?params ?store p =
  replay_prepared ?config ?timing ?optimized_labels
    (prepare ?mode ?rate ?params ?store p)

let measure_hierarchy ?l1 ?l2 ?mode ?params ?store p =
  replay_hierarchy_prepared ?l1 ?l2 (prepare ?mode ?params ?store p)
