(* The telemetry layer: the JSON reader, record round-trips, the
   persistent sink (atomic publish, chronological load, corrupt-file
   skip) and the health regression gate (clean history passes, a
   degraded newest run flags the right metrics). *)

module Store = Locality_store.Store
module Jsonin = Locality_telemetry.Jsonin
module Record = Locality_telemetry.Record
module Telemetry = Locality_telemetry.Telemetry
module Health = Locality_telemetry.Health

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let dir_ticket = ref 0

let fresh_dir () =
  incr dir_ticket;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "memoria-health-test-%d-%d" (Unix.getpid ()) !dir_ticket)
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  rm_rf d;
  d

let with_store f = f (Store.open_root (fresh_dir ()))

(* ------------------------------------------------- JSON reader ----- *)

let test_jsonin_values () =
  let open Jsonin in
  checkb "null" true (parse_opt "null" = Some Null);
  checkb "bool" true (parse_opt " true " = Some (Bool true));
  checkb "int" true (parse_opt "42" = Some (Num 42.0));
  checkb "float" true (parse_opt "-2.5e2" = Some (Num (-250.0)));
  checkb "string escapes" true
    (parse_opt {|"a\n\"b\"A"|} = Some (Str "a\n\"b\"A"));
  checkb "array" true (parse_opt "[1,2]" = Some (List [ Num 1.0; Num 2.0 ]));
  checkb "object" true
    (parse_opt {|{"k":1,"l":[]}|} = Some (Obj [ ("k", Num 1.0); ("l", List []) ]));
  checkb "empties" true (parse_opt {|{"a":{},"b":[]}|} <> Some Null)

let test_jsonin_rejects_malformed () =
  let bad s = Jsonin.parse_opt s = None in
  checkb "trailing garbage" true (bad "{} x");
  checkb "unterminated string" true (bad {|{"a":"b|});
  checkb "missing colon" true (bad {|{"a" 1}|});
  checkb "bare word" true (bad "flase");
  checkb "truncated object" true (bad {|{"a":1,|});
  checkb "empty input" true (bad "")

(* The reader accepts everything the shared emitter writes. *)
let test_jsonin_reads_emitter () =
  let module Json = Locality_obs.Json in
  let doc =
    Json.versioned
      [
        ("s", Json.str "line\nbreak \"and\" \\slash\\");
        ("n", Json.int (-7));
        ("l", Json.strings [ "a"; "b" ]);
        ("o", Json.obj [ ("inner", Json.int 1) ]);
      ]
  in
  match Jsonin.parse_opt doc with
  | None -> Alcotest.fail "emitter output did not parse"
  | Some v ->
    checkb "string round-trips" true
      (Option.bind (Jsonin.member "s" v) Jsonin.to_string_opt
      = Some "line\nbreak \"and\" \\slash\\");
    checkb "int round-trips" true
      (Option.bind (Jsonin.member "n" v) Jsonin.to_int_opt = Some (-7))

(* ---------------------------------------------- record round-trip --- *)

let sample_record ?(ts = 1_000_000_000L) ?(workload = "suite:n=20") ?(wall = 120.0)
    ?(phases = [ ("optimize", 40.0); ("replay", 60.0) ])
    ?(counters = [ ("store.hit", 8); ("store.miss", 2); ("analytic.nests", 10);
                   ("analytic.fallback", 1) ])
    ?(gauges = [ ("store.hit_rate", 0.8) ]) () =
  {
    Record.ts_ns = ts;
    cmd = "suite";
    workload;
    replay = "runs";
    geometry = "cache1+cache2";
    jobs = 4;
    git = "v1.0-3-gabc";
    wall_ms = wall;
    phases;
    counters;
    gauges;
  }

let test_record_roundtrip () =
  let r = sample_record () in
  let json = Record.to_json r in
  checkb "record JSON is valid" true (Test_obs.json_valid json);
  match Record.of_string json with
  | None -> Alcotest.fail "round-trip failed"
  | Some r' ->
    checkb "ts preserved" true (r'.Record.ts_ns = r.Record.ts_ns);
    checks "workload preserved" r.Record.workload r'.Record.workload;
    checkb "phases preserved" true (r'.Record.phases = r.Record.phases);
    checkb "counters preserved" true (r'.Record.counters = r.Record.counters);
    checkb "hit rate derived" true (Record.hit_rate r' = Some 0.8);
    checkb "fallback rate derived" true
      (Record.fallback_rate r' = Some 0.1)

let test_record_rejects_bad () =
  checkb "garbage" true (Record.of_string "not json" = None);
  checkb "wrong schema" true
    (Record.of_string {|{"telemetry_schema":999}|} = None);
  checkb "missing fields" true
    (Record.of_string {|{"telemetry_schema":1,"cmd":"x"}|} = None)

(* -------------------------------------------------- persistence ---- *)

let test_publish_load_roundtrip () =
  with_store (fun st ->
      let r1 = sample_record ~ts:100L ()
      and r2 = sample_record ~ts:200L ~wall:130.0 () in
      (* Publish newest first: load must still return oldest first. *)
      checkb "publish r2" true (Telemetry.publish st r2 <> None);
      checkb "publish r1" true (Telemetry.publish st r1 <> None);
      match Telemetry.load st with
      | [ a; b ] ->
        checkb "oldest first" true
          (a.Record.ts_ns = 100L && b.Record.ts_ns = 200L)
      | l -> Alcotest.failf "expected 2 records, got %d" (List.length l))

let test_load_skips_corrupt () =
  with_store (fun st ->
      ignore (Telemetry.publish st (sample_record ~ts:100L ()));
      let dir = Telemetry.dir st in
      (* Truncated JSON, wrong schema, and a non-record file. *)
      let write name content =
        let oc = open_out (Filename.concat dir name) in
        output_string oc content;
        close_out oc
      in
      write "00000000000000000050-1.json" "{\"telemetry_schema\":1,\"trunc";
      write "00000000000000000060-1.json" "{\"telemetry_schema\":999}";
      write "notes.txt" "not a record";
      checki "only the valid record survives" 1
        (List.length (Telemetry.load st)))

let test_empty_dir_loads_empty () =
  checki "missing dir is empty history" 0
    (List.length (Telemetry.load_dir (fresh_dir ())))

(* ------------------------------------------------- health gate ----- *)

let history ~runs ~workload =
  List.init runs (fun i ->
      sample_record
        ~ts:(Int64.of_int ((i + 1) * 1000))
        ~workload ())

let test_health_ok_on_stable_history () =
  let report = Health.run (history ~runs:4 ~workload:"suite:n=20") in
  checki "records seen" 4 report.Health.records;
  checki "one workload" 1 report.Health.workloads;
  checkb "checks ran" true (report.Health.checks <> []);
  checkb "nothing flagged" true (report.Health.flagged = []);
  checkb "render says OK" true
    (let r = Health.render report in
     let n = String.length r in
     n >= 11 && String.sub r (n - 11) 11 = "health: OK\n")

let test_health_needs_history () =
  let report = Health.run (history ~runs:1 ~workload:"suite:n=20") in
  checkb "single run produces no checks" true (report.Health.checks = [])

let test_health_flags_regressions () =
  let base = history ~runs:3 ~workload:"suite:n=20" in
  let degraded =
    sample_record ~ts:9_000L ~workload:"suite:n=20" ~wall:100_000.0
      ~phases:[ ("optimize", 50_000.0); ("replay", 60.0) ]
      ~counters:
        [ ("store.hit", 0); ("store.miss", 10); ("analytic.nests", 10);
          ("analytic.fallback", 9) ]
      ~gauges:[] ()
  in
  let report = Health.run (base @ [ degraded ]) in
  let flagged_metrics =
    List.map (fun (c : Health.check) -> c.Health.metric) report.Health.flagged
  in
  checkb "wall clock flagged" true (List.mem "wall_ms" flagged_metrics);
  checkb "slow phase flagged" true (List.mem "phase:optimize" flagged_metrics);
  checkb "fast phase not flagged" false (List.mem "phase:replay" flagged_metrics);
  checkb "hit-rate drop flagged" true
    (List.mem "store.hit_rate" flagged_metrics);
  checkb "fallback rise flagged" true
    (List.mem "analytic.fallback_rate" flagged_metrics);
  (* The report names the workload and the metric. *)
  let rendered = Health.render report in
  let contains hay needle =
    let n = String.length needle and m = String.length hay in
    let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  checkb "render names the metric" true (contains rendered "store.hit_rate");
  checkb "render flags" true (contains rendered "FLAG");
  checkb "json is valid" true (Test_obs.json_valid (Health.to_json report))

let test_health_baseline_is_windowed_median () =
  (* Seven prior runs: only the newest [window]=5 feed the median, so
     the two ancient slow runs must not mask a regression. *)
  let workload = "sim:k" in
  let old_slow =
    List.init 2 (fun i ->
        sample_record
          ~ts:(Int64.of_int ((i + 1) * 10))
          ~workload ~wall:100_000.0 ())
  in
  let recent_fast =
    List.init 5 (fun i ->
        sample_record ~ts:(Int64.of_int ((i + 10) * 100)) ~workload ())
  in
  let degraded =
    sample_record ~ts:99_999L ~workload ~wall:5_000.0
      ~phases:[ ("optimize", 40.0); ("replay", 60.0) ] ()
  in
  let report = Health.run (old_slow @ recent_fast @ [ degraded ]) in
  checkb "regression vs recent baseline flagged" true
    (List.exists
       (fun (c : Health.check) -> c.Health.metric = "wall_ms")
       report.Health.flagged);
  (* With a window wide enough to include the ancient slow runs the
     median still flags (5 fast of 7), but a window of 2 must not: the
     newest two prior runs are fast. *)
  let report_w2 =
    Health.run
      ~thresholds:{ Health.default_thresholds with Health.window = 2 }
      (old_slow @ recent_fast @ [ degraded ])
  in
  checkb "window=2 baseline is the recent runs" true
    (List.exists
       (fun (c : Health.check) -> c.Health.metric = "wall_ms")
       report_w2.Health.flagged)

let test_health_separates_workloads () =
  (* A regression in one workload must not flag the other. *)
  let a = history ~runs:3 ~workload:"suite:a" in
  let b = history ~runs:2 ~workload:"suite:b" in
  let degraded =
    sample_record ~ts:99_000L ~workload:"suite:a" ~wall:100_000.0 ()
  in
  let report = Health.run (a @ b @ [ degraded ]) in
  checki "two workloads" 2 report.Health.workloads;
  checkb "only suite:a flagged" true
    (report.Health.flagged <> []
    && List.for_all
         (fun (c : Health.check) -> c.Health.workload = "suite:a")
         report.Health.flagged)

let suite =
  [
    ("jsonin values", `Quick, test_jsonin_values);
    ("jsonin rejects malformed", `Quick, test_jsonin_rejects_malformed);
    ("jsonin reads the emitter", `Quick, test_jsonin_reads_emitter);
    ("record round-trip", `Quick, test_record_roundtrip);
    ("record rejects bad input", `Quick, test_record_rejects_bad);
    ("telemetry publish/load round-trip", `Quick, test_publish_load_roundtrip);
    ("telemetry load skips corrupt files", `Quick, test_load_skips_corrupt);
    ("telemetry empty dir", `Quick, test_empty_dir_loads_empty);
    ("health: stable history passes", `Quick, test_health_ok_on_stable_history);
    ("health: needs two runs", `Quick, test_health_needs_history);
    ("health: flags regressions", `Quick, test_health_flags_regressions);
    ("health: baseline median is windowed", `Quick, test_health_baseline_is_windowed_median);
    ("health: workloads independent", `Quick, test_health_separates_workloads);
  ]
