(* Tests for Locality_obs and its consumers: determinism of the merged
   event stream across pool sizes, span behaviour under exceptions, the
   null sink, summary aggregation, the explain decision log (one record
   per Compound nest_stat), and Chrome trace-event JSON well-formedness
   (checked with a small standalone JSON parser). *)

open Locality_ir
module Obs = Locality_obs.Obs
module Event = Locality_obs.Event
module Summary = Locality_obs.Summary
module Hist = Locality_obs.Hist
module Openmetrics = Locality_obs.Openmetrics
module Flame = Locality_obs.Flame
module Chrome = Locality_obs.Chrome
module Pool = Locality_par.Pool
module Compound = Locality_core.Compound
module Stats = Locality_stats
module Suite = Locality_suite

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ------------------------------------------------- minimal JSON ---- *)

(* A strict RFC-8259 validator, so the Chrome export is checked without
   depending on a JSON library. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos >= n then fail () else s.[!pos] in
  let advance () = incr pos in
  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let skip_ws () =
    while !pos < n && is_ws s.[!pos] do
      advance ()
    done
  in
  let is_digit c = c >= '0' && c <= '9' in
  let lit w = String.iter (fun c -> if peek () <> c then fail () else advance ()) w in
  let digits () =
    if not (is_digit (peek ())) then fail ();
    while !pos < n && is_digit s.[!pos] do
      advance ()
    done
  in
  let number () =
    if peek () = '-' then advance ();
    digits ();
    if !pos < n && s.[!pos] = '.' then begin
      advance ();
      digits ()
    end;
    if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
      advance ();
      if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then advance ();
      digits ()
    end
  in
  let string_lit () =
    if peek () <> '"' then fail ();
    advance ();
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> advance ()
        | 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
            | _ -> fail ()
          done
        | _ -> fail ());
        go ()
      | c when Char.code c < 0x20 -> fail ()
      | _ ->
        advance ();
        go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | 't' -> lit "true"
    | 'f' -> lit "false"
    | 'n' -> lit "null"
    | '-' | '0' .. '9' -> number ()
    | _ -> fail ()
  and obj () =
    advance ();
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        if peek () <> ':' then fail ();
        advance ();
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
          advance ();
          members ()
        | '}' -> advance ()
        | _ -> fail ()
      in
      members ()
  and arr () =
    advance ();
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | ',' ->
          advance ();
          elems ()
        | ']' -> advance ()
        | _ -> fail ()
      in
      elems ()
  in
  match
    value ();
    skip_ws ();
    !pos = n
  with
  | ok -> ok
  | exception Exit -> false

let test_json_validator () =
  checkb "object" true (json_valid {|{"a":[1,2.5e-3],"b":"x\n","c":null}|});
  checkb "trailing junk" false (json_valid "{} x");
  checkb "bad escape" false (json_valid {|{"a":"\q"}|});
  checkb "raw newline in string" false (json_valid "\"a\nb\"")

(* -------------------------------------------- pool determinism ----- *)

let dummy_decision i =
  {
    Event.nest = Printf.sprintf "nest%d" i;
    labels = [ "S1" ];
    depth = 2;
    action = Event.Permute;
    reason = "test";
    original_order = [ "I"; "J" ];
    achieved_orders = [ [ "J"; "I" ] ];
    memory_order = [ "J"; "I" ];
    costs = [ ("J", "N^2"); ("I", "N") ];
  }

let pool_workload i =
  Obs.span
    (Printf.sprintf "item%d" i)
    ~args:[ ("i", string_of_int i) ]
    (fun () ->
      Obs.instant "note" ~args:[ ("sq", string_of_int (i * i)) ];
      Obs.counter "work" (i + 1);
      Obs.histogram "work.size" (i * 7);
      Obs.gauge "work.level" (float_of_int i /. 3.0);
      if i mod 2 = 0 then Obs.decision (dummy_decision i);
      i * i)

(* The one event that depends on the pool size is the spawn counter,
   recorded by whichever fan-out first needs a helper domain. A whole
   tune search, whose baseline runs beside its screen, records the same
   stream as well. *)
let stream_at_jobs jobs =
  let tune_spec =
    { Stats.Tune.tiles = [ 8; 16 ]; unrolls = [ 2; 4 ]; top_k = 2;
      max_candidates = 128 }
  in
  let res, events =
    Obs.collect (fun () ->
        let squares = Pool.map ~jobs pool_workload (List.init 8 Fun.id) in
        let tuned =
          Stats.Tune.run ~spec:tune_spec ~n:8 ~jobs ~store:None ~name:"matmul"
            (Suite.Kernels.matmul 8)
        in
        (squares, Result.map Stats.Tune.to_json tuned))
  in
  let spawn = function
    | { Event.payload = Event.Counter { name = "par.domains_spawned"; _ }; _ }
      ->
      true
    | _ -> false
  in
  (res, List.map Event.fingerprint (List.filter (fun e -> not (spawn e)) events))

let test_pool_merge_deterministic () =
  let r1, f1 = stream_at_jobs 1 in
  let r4, f4 = stream_at_jobs 4 in
  checkb "results equal" true (r1 = r4);
  checki "events at jobs=1" (List.length f1) (List.length f4);
  checkb "some events recorded" true (List.length f1 >= 8 * 3);
  List.iteri
    (fun i (a, b) -> checks (Printf.sprintf "fingerprint %d" i) a b)
    (List.combine f1 f4)

let test_span_exception_propagates () =
  let saw, events =
    Obs.collect (fun () ->
        match Obs.span "boom" (fun () -> failwith "inner") with
        | () -> false
        | exception Failure msg -> msg = "inner")
  in
  checkb "exception propagated" true saw;
  let spans =
    List.filter
      (fun (e : Event.t) ->
        match e.Event.payload with
        | Event.Span { name; _ } -> name = "boom"
        | _ -> false)
      events
  in
  checki "raising span still recorded" 1 (List.length spans)

let test_disabled_records_nothing () =
  checkb "disabled by default" false (Obs.enabled ());
  Obs.reset ();
  Obs.span "s" (fun () ->
      Obs.instant "i";
      Obs.counter "c" 1);
  checki "no events when disabled" 0 (List.length (Obs.drain ()))

let test_summary_aggregation () =
  let (), events =
    Obs.collect (fun () ->
        Obs.counter "c" 1;
        Obs.counter "c" 2;
        Obs.counter "c" 3;
        Obs.span "s" (fun () -> ());
        Obs.span "s" (fun () -> ()))
  in
  let s = Summary.of_events events in
  checkb "counter summed" true (List.assoc "c" s.Summary.counters = 6);
  checki "event total counted in the same pass" (List.length events)
    s.Summary.events;
  match s.Summary.spans with
  | [ row ] ->
    checks "span name" "s" row.Summary.name;
    checki "span count" 2 row.Summary.count;
    checkb "min <= max" true (Int64.compare row.Summary.min_ns row.Summary.max_ns <= 0)
  | rows -> Alcotest.failf "expected one span row, got %d" (List.length rows)

(* --------------------------------------------- histograms/gauges --- *)

let test_hist_bucket_math () =
  (* Bucket 0 holds v <= 0; bucket i holds 2^(i-1) <= v <= 2^i - 1. *)
  checki "bucket of -5" 0 (Hist.bucket_of (-5));
  checki "bucket of 0" 0 (Hist.bucket_of 0);
  checki "bucket of 1" 1 (Hist.bucket_of 1);
  checki "bucket of 2" 2 (Hist.bucket_of 2);
  checki "bucket of 3" 2 (Hist.bucket_of 3);
  checki "bucket of 4" 3 (Hist.bucket_of 4);
  checki "bucket of 1023" 10 (Hist.bucket_of 1023);
  checki "bucket of 1024" 11 (Hist.bucket_of 1024);
  checki "bucket of max_int" 62 (Hist.bucket_of max_int);
  (* Upper bounds line up with the bucket boundaries. *)
  checki "le of bucket 0" 0 (Hist.bucket_le 0);
  checki "le of bucket 10" 1023 (Hist.bucket_le 10);
  checki "le of last bucket" max_int (Hist.bucket_le 62);
  List.iter
    (fun v ->
      let b = Hist.bucket_of v in
      checkb
        (Printf.sprintf "v=%d within its bucket's bound" v)
        true
        (v <= Hist.bucket_le b && (b = 0 || v > Hist.bucket_le (b - 1))))
    [ 1; 2; 7; 8; 100; 4095; 4096; 123_456_789; max_int ]

let test_hist_observe_merge () =
  (* Two runs of observations of one histogram name fold into one
     aggregate, whichever comes first. *)
  let merged first second =
    let (), events =
      Obs.collect (fun () ->
          List.iter (Obs.histogram "h") first;
          List.iter (Obs.histogram "h") second)
    in
    match (Summary.of_events events).Summary.histograms with
    | [ (_, h) ] -> h
    | l -> Alcotest.failf "expected one histogram, got %d" (List.length l)
  in
  let a = [ 1; 5; 5; 100 ] and b = [ 0; 7; 1000 ] in
  let m = merged a b in
  checki "merged count" 7 m.Hist.count;
  checki "merged sum" (1 + 5 + 5 + 100 + 0 + 7 + 1000) m.Hist.sum;
  checki "merged min" 0 m.Hist.min;
  checki "merged max" 1000 m.Hist.max;
  checkb "merge commutes" true (m = merged b a);
  (* Cumulative counts are monotone and end at the total. *)
  let cum = Hist.cumulative m in
  checkb "cumulative monotone" true
    (fst
       (List.fold_left
          (fun (ok, prev) (_, c) -> (ok && c >= prev, c))
          (true, 0) cum));
  checki "cumulative ends at count" m.Hist.count (snd (List.nth cum (List.length cum - 1)));
  (* Median of [1;5;5;100] U [0;7;1000] = 5: p50 lands in 5's bucket. *)
  checkb "p50 bucket covers the median" true (Hist.quantile m 0.5 >= 5);
  checki "p100 clamps to max" 1000 (Hist.quantile m 1.0)

let test_summary_hist_gauge () =
  let (), events =
    Obs.collect (fun () ->
        Obs.histogram "h" 3;
        Obs.histogram "h" 300;
        Obs.gauge "g" 1.5;
        Obs.gauge "g" 2.5)
  in
  let s = Summary.of_events events in
  (match s.Summary.histograms with
  | [ (name, h) ] ->
    checks "histogram name" "h" name;
    checki "observations" 2 h.Hist.count;
    checki "sum" 303 h.Hist.sum
  | l -> Alcotest.failf "expected one histogram, got %d" (List.length l));
  match s.Summary.gauges with
  | [ ("g", v) ] -> checkb "last write wins" true (v = 2.5)
  | l -> Alcotest.failf "expected one gauge, got %d" (List.length l)

(* Histogram/gauge aggregates must merge identically across pool sizes,
   on top of the fingerprint equality already checked above. *)
let test_hist_gauge_pool_deterministic () =
  let summary_at jobs =
    let _, events =
      Obs.collect (fun () -> Pool.map ~jobs pool_workload (List.init 8 Fun.id))
    in
    Summary.of_events events
  in
  let s1 = summary_at 1 and s4 = summary_at 4 in
  (match (s1.Summary.histograms, s4.Summary.histograms) with
  | [ (n1, h1) ], [ (n4, h4) ] ->
    checks "histogram name equal" n1 n4;
    checkb "histogram buckets equal" true (h1 = h4)
  | _ -> Alcotest.fail "expected one histogram at both job counts");
  checkb "gauges equal" true (s1.Summary.gauges = s4.Summary.gauges)

(* ------------------------------------------------ self time ------- *)

let test_span_self_time_and_stack () =
  let (), events =
    Obs.collect (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span "inner" (fun () -> Sys.opaque_identity (ref 0) |> ignore)))
  in
  let find name =
    List.find_map
      (fun (e : Event.t) ->
        match e.Event.payload with
        | Event.Span s when s.name = name ->
          Some (s.dur_ns, s.self_ns, s.stack)
        | _ -> None)
      events
  in
  match (find "outer", find "inner") with
  | Some (o_dur, o_self, o_stack), Some (i_dur, i_self, i_stack) ->
    let expect =
      let d = Int64.sub o_dur i_dur in
      if Int64.compare d 0L < 0 then 0L else d
    in
    checkb "outer self = dur - child (clamped)" true (o_self = expect);
    checkb "outer self >= 0" true (Int64.compare o_self 0L >= 0);
    checkb "inner self = its dur" true (i_self = i_dur);
    checkb "outer stack empty" true (o_stack = []);
    checkb "inner stack is [outer]" true (i_stack = [ "outer" ])
  | _ -> Alcotest.fail "spans missing"

(* ------------------------------------------------- exporters ------- *)

let sample_summary () =
  let (), events =
    Obs.collect (fun () ->
        Obs.span "phase.a" (fun () -> Obs.span "phase.b" (fun () -> ()));
        Obs.counter "c.total" 5;
        Obs.histogram "h.sizes" 9;
        Obs.histogram "h.sizes" 1000;
        Obs.gauge "g.rate" 0.75)
  in
  (events, Summary.of_events events)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_openmetrics_text () =
  let _, s = sample_summary () in
  let text = Openmetrics.to_text s in
  let lines = String.split_on_char '\n' (String.trim text) in
  checks "terminated by # EOF" "# EOF" (List.nth lines (List.length lines - 1));
  (* Sanitized names: dots become underscores under the memoria_ prefix. *)
  checkb "counter line" true (contains text "memoria_c_total_total 5");
  checkb "gauge line" true (contains text "memoria_g_rate 0.75");
  (* 9 falls in the (8..15] bucket, 1000 in (512..1023]. *)
  checkb "bucket le=15" true
    (contains text "memoria_h_sizes_bucket{le=\"15\"} 1");
  checkb "bucket le=1023" true
    (contains text "memoria_h_sizes_bucket{le=\"1023\"} 2");
  checkb "+Inf bucket" true
    (contains text "memoria_h_sizes_bucket{le=\"+Inf\"} 2");
  checkb "hist sum" true (contains text "memoria_h_sizes_sum 1009");
  checkb "hist count" true (contains text "memoria_h_sizes_count 2");
  checkb "span family labelled" true
    (contains text "memoria_span_count_total{span=\"phase.a\"} 1");
  (* Every metric family is TYPE-declared before its samples. *)
  let rec check_types declared = function
    | [] -> ()
    | line :: rest ->
      if line = "" || line = "# EOF" then check_types declared rest
      else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then
        let after = String.sub line 7 (String.length line - 7) in
        let fam =
          match String.index_opt after ' ' with
          | Some i -> String.sub after 0 i
          | None -> after
        in
        check_types (fam :: declared) rest
      else begin
        checkb
          (Printf.sprintf "sample %S under a declared family" line)
          true
          (List.exists
             (fun fam ->
               String.length line >= String.length fam
               && String.sub line 0 (String.length fam) = fam)
             declared);
        check_types declared rest
      end
  in
  check_types [] lines

let test_openmetrics_json () =
  let _, s = sample_summary () in
  let doc = Openmetrics.to_json s in
  checkb "metrics JSON parses" true (json_valid doc);
  checkb "schema versioned" true (contains doc "\"schema_version\"");
  checkb "histogram buckets present" true (contains doc "\"le\":15")

let test_flame_collapsed () =
  let events, _ = sample_summary () in
  let out = Flame.to_string events in
  let lines = String.split_on_char '\n' (String.trim out) in
  checki "two stacks" 2 (List.length lines);
  checkb "nested stack present" true
    (List.exists
       (fun l ->
         String.length l > 15 && String.sub l 0 15 = "phase.a;phase.b")
       lines);
  (* Lexicographic order: "phase.a " before "phase.a;phase.b ". *)
  match lines with
  | [ a; b ] -> checkb "sorted" true (String.compare a b < 0)
  | _ -> Alcotest.fail "unexpected line count"

(* ------------------------------------------------ explain log ------ *)

let explain_of_kernel ?(n = 16) name =
  match List.assoc_opt name Suite.Kernels.all with
  | Some mk -> Stats.Explain.run ~name (mk n)
  | None -> Alcotest.failf "kernel %s missing" name

let decision_count_matches name =
  let ex = explain_of_kernel name in
  checki
    (Printf.sprintf "%s: one decision per nest_stat" name)
    (List.length (Stats.Explain.stats ex).Compound.nests)
    (List.length (Stats.Explain.entries ex))

let test_explain_counts_all_kernels () =
  List.iter (fun (name, _) -> decision_count_matches name) Suite.Kernels.all

let entry_actions ex =
  List.map
    (fun (e : Stats.Explain.entry) -> e.Stats.Explain.decision.Event.action)
    (Stats.Explain.entries ex)

let test_explain_distribution_case () =
  let ex = explain_of_kernel "cholesky" in
  checkb "cholesky entry distributes" true
    (List.mem Event.Distribute (entry_actions ex));
  let s = Stats.Explain.stats ex in
  checkb "stats agree a distribution happened" true
    (s.Compound.distributions >= 1)

(* The stencil whose interchange is enabled only by reversing J (same
   program as the Permute unit test). No built-in kernel needs a
   reversal, so the case is built directly. *)
let reversal_program () =
  let open Builder in
  let nn = v "N" in
  program "stencil"
    ~params:[ ("N", 16) ]
    ~arrays:[ ("A", [ nn; nn ]) ]
    [
      do_ "I" (i 2) nn
        [
          do_ "J" (i 1) (nn -$ i 1)
            [
              asn (r "A" [ v "I"; v "J" ])
                (ld "A" [ v "I" -$ i 1; v "J" +$ i 1 ] +! f 1.0);
            ];
        ];
    ]

let test_explain_reversal_case () =
  let ex = Stats.Explain.run ~name:"stencil" (reversal_program ()) in
  checki "one nest" 1 (List.length (Stats.Explain.entries ex));
  match Stats.Explain.entries ex with
  | [ { Stats.Explain.decision = d; _ } ] ->
    checkb "action is reverse" true (d.Event.action = Event.Reverse);
    checks "achieved order" "J,I"
      (String.concat ","
         (match d.Event.achieved_orders with o :: _ -> o | [] -> []))
  | _ -> assert false

let test_explain_deterministic () =
  (* The same program must explain identically run-to-run (each [mk]
     call mints fresh statement labels, so build the program once). *)
  List.iter
    (fun name ->
      let p = (List.assoc name Suite.Kernels.all) 16 in
      let ex1 = Stats.Explain.run ~name p in
      let ex2 = Stats.Explain.run ~name p in
      checks (name ^ " render repeatable") (Stats.Explain.render ex1)
        (Stats.Explain.render ex2);
      checks (name ^ " json repeatable") (Stats.Explain.to_json ex1)
        (Stats.Explain.to_json ex2))
    [ "matmul"; "cholesky"; "erlebacher_dist" ]

let test_explain_json_valid () =
  List.iter
    (fun name ->
      checkb (name ^ " json parses") true
        (json_valid (Stats.Explain.to_json (explain_of_kernel name))))
    [ "matmul"; "cholesky"; "btrix" ]

(* --------------------------------------------- chrome exporter ----- *)

let test_chrome_json_valid () =
  let ex = explain_of_kernel "cholesky" in
  let (), extra =
    Obs.collect (fun () ->
        (* Args with every character class the escaper must handle. *)
        Obs.span "weird\"name\\" ~args:[ ("k\n", "v\t\"quoted\"") ] (fun () ->
            Obs.counter "c" 2);
        Obs.instant "i" ~args:[ ("ctl", String.make 1 (Char.chr 1)) ])
  in
  let doc = Chrome.to_string (Stats.Explain.events ex @ extra) in
  checkb "chrome document parses" true (json_valid doc);
  checkb "empty stream parses" true (json_valid (Chrome.to_string []))

(* ------------------------------------------ measurement purity ----- *)

let test_obs_does_not_change_measurements () =
  let mk = List.assoc "matmul" Suite.Kernels.all in
  let p = mk 24 in
  let quiet = Locality_interp.Measure.measure p in
  let traced, _events =
    Obs.collect (fun () -> Locality_interp.Measure.measure p)
  in
  let open Locality_interp.Measure in
  checkb "same modelled seconds" true (quiet.seconds = traced.seconds);
  checki "same accesses" quiet.whole.accesses traced.whole.accesses;
  checki "same hits" quiet.whole.hits traced.whole.hits;
  checki "same cold misses" quiet.whole.cold traced.whole.cold

(* Fusion's no-shared-array shortcut used to apply only with recording
   off, so these two generated programs got one fusion under recording
   and none without it. The decision must not depend on recording. *)
let test_recording_does_not_change_fusion () =
  List.iter
    (fun index ->
      let p =
        Locality_lang.Lower.parse_program
          (Pretty.program_to_string
             (Locality_fuzz.Gen.generate ~seed:1 ~index ~size:20))
      in
      let quiet_p, quiet = Compound.run_program ~cls:4 p in
      let (traced_p, traced), _events =
        Obs.collect (fun () -> Compound.run_program ~cls:4 p)
      in
      let what = Printf.sprintf "gen seed 1 index %d: " index in
      checki (what ^ "no fusion") 0 quiet.Compound.fusions_applied;
      checki (what ^ "same fusions recorded") quiet.Compound.fusions_applied
        traced.Compound.fusions_applied;
      checks (what ^ "same program recorded")
        (Pretty.program_to_string quiet_p)
        (Pretty.program_to_string traced_p))
    [ 14; 1617 ]

(* Hierarchy measurements count their chunks like single-cache ones,
   under the one walk counter, in every mode. *)
let test_hierarchy_counts_chunks () =
  let p = List.assoc "matmul" Suite.Kernels.all 16 in
  let counters mode =
    let _, events =
      Obs.collect (fun () ->
          Locality_interp.Measure.measure_hierarchy ~mode p)
    in
    (Summary.of_events events).Summary.counters
  in
  List.iter
    (fun mode ->
      let cs = counters mode in
      let what = Locality_interp.Measure.mode_to_string mode ^ ": " in
      let chunky (name, _) =
        String.starts_with ~prefix:"chunks" name
        || String.ends_with ~suffix:"chunks" name
      in
      checkb (what ^ "chunks.replayed, the one chunk counter, counted") true
        (match List.filter chunky cs with
        | [ ("chunks.replayed", n) ] -> n > 0
        | _ -> false))
    Locality_interp.Measure.[ Runs; Sampled ]

let suite =
  [
    ("json validator sanity", `Quick, test_json_validator);
    ("pool merge deterministic across jobs", `Quick, test_pool_merge_deterministic);
    ("span closed by exception", `Quick, test_span_exception_propagates);
    ("disabled sink records nothing", `Quick, test_disabled_records_nothing);
    ("summary aggregation", `Quick, test_summary_aggregation);
    ("histogram bucket math", `Quick, test_hist_bucket_math);
    ("histogram observe and merge", `Quick, test_hist_observe_merge);
    ("summary histograms and gauges", `Quick, test_summary_hist_gauge);
    ("histograms/gauges deterministic across jobs", `Quick, test_hist_gauge_pool_deterministic);
    ("span self time and stack", `Quick, test_span_self_time_and_stack);
    ("openmetrics text export", `Quick, test_openmetrics_text);
    ("openmetrics json export", `Quick, test_openmetrics_json);
    ("flame collapsed stacks", `Quick, test_flame_collapsed);
    ("explain: decision per nest_stat, all kernels", `Quick, test_explain_counts_all_kernels);
    ("explain: distribution case", `Quick, test_explain_distribution_case);
    ("explain: reversal case", `Quick, test_explain_reversal_case);
    ("explain: deterministic output", `Quick, test_explain_deterministic);
    ("explain: JSON parses", `Quick, test_explain_json_valid);
    ("chrome trace JSON parses", `Quick, test_chrome_json_valid);
    ("tracing does not change measurements", `Quick, test_obs_does_not_change_measurements);
    ("recording does not change fusion", `Quick, test_recording_does_not_change_fusion);
    ("hierarchy measurements count chunks", `Quick, test_hierarchy_counts_chunks);
  ]
