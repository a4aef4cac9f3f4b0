(* Tests of the benchmark's own helpers. Run with
   [python3 perfbench/run.py --selftest]; exits 1 on the first
   failure. *)

let failures = ref 0
let checks = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let is_ok = function Ok _ -> true | Error _ -> false
let floats n = Array.init n float_of_int

let test_percentile () =
  (* A tail percentile needs ten samples beyond it. *)
  check "p90 of 99 samples is refused" (not (is_ok (Bstat.percentile 90 (floats 99))));
  check "p90 of 100 samples is given" (is_ok (Bstat.percentile 90 (floats 100)));
  check "p99 of 999 samples is refused" (not (is_ok (Bstat.percentile 99 (floats 999))));
  check "p99 of 1000 samples is given" (is_ok (Bstat.percentile 99 (floats 1000)));
  check "p50 of 19 samples is refused" (not (is_ok (Bstat.percentile 50 (floats 19))));
  check "p50 of 20 samples is given" (is_ok (Bstat.percentile 50 (floats 20)));
  check "p50 of 0..20 is 10" (Bstat.percentile 50 (floats 21) = Ok 10.0);
  check "p90 interpolates between ranks"
    (Bstat.percentile 90 (floats 101) = Ok 90.0);
  check "percentile ignores input order"
    (Bstat.percentile 50 (Array.of_list (List.rev (Array.to_list (floats 21)))) = Ok 10.0);
  check "median of an even sample" (Bstat.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5)

let stream_bytes seed n =
  let s = Reqstream.create ~seed in
  String.concat "\n" (List.init n (fun _ -> Reqstream.line (Reqstream.next s)))

let test_stream () =
  let a = stream_bytes 7 400 and b = stream_bytes 7 400 in
  check "same seed, byte-identical stream" (String.equal a b);
  check "another seed, another stream" (not (String.equal a (stream_bytes 8 400)));
  let s = Reqstream.create ~seed:7 in
  let items = List.init 2000 (fun _ -> Reqstream.next s) in
  let cold =
    List.length
      (List.filter
         (fun i -> match i.Reqstream.kind with Reqstream.Cold _ -> true | _ -> false)
         items)
  in
  check "about one request in ten is cold" (cold > 120 && cold < 280);
  check "every request parses back"
    (List.for_all
       (fun i -> is_ok (Locality_driver.Request.of_json (Reqstream.line i)))
       (List.filteri (fun k _ -> k < 100) items))

let test_accounting () =
  let t = Bstat.tally () in
  List.iter (Bstat.record t) [ Bstat.Ok_op; Bstat.Ok_op; Bstat.Ok_op ];
  Bstat.record t (Reply.classify ~id:"a"
    {|{"schema_version":1,"id":"a","status":"overloaded","retry_after_ms":100}|});
  Bstat.record t (Reply.classify ~id:"b"
    {|{"schema_version":1,"id":"b","status":"timeout","timeout_ms":0}|});
  check "overloaded and timeout replies are failures"
    (t.Bstat.attempted = 5 && t.Bstat.failed = 2);
  check "fail_ratio counts them" (Bstat.fail_ratio t = 0.4);
  Bstat.demote t "mismatch";
  check "a mismatch found after the fact fails an attempted operation"
    (t.Bstat.attempted = 5 && t.Bstat.failed = 3 && Bstat.mismatches t = 1);
  check "fail_ratio counts mismatches" (Bstat.fail_ratio t = 0.6);
  check "an ok reply with the wrong id is a mismatch"
    (Reply.classify ~id:"x" {|{"schema_version":1,"id":"y","status":"ok"}|}
    = Bstat.Failed "mismatch");
  check "an error reply is a failure"
    (Reply.classify ~id:"x" {|{"schema_version":1,"id":"x","status":"error","message":"m"}|}
    = Bstat.Failed "error");
  check "an unreadable reply is a mismatch"
    (Reply.classify ~id:"x" "{oops" = Bstat.Failed "mismatch");
  check "an ok reply with its id is a success"
    (Reply.classify ~id:"x" {|{"schema_version":1,"id":"x","status":"ok"}|} = Bstat.Ok_op)

let test_outcome () =
  let ok id = Printf.sprintf {|{"schema_version":1,"id":"%s","status":"ok","n":1}|} id in
  let err id = Printf.sprintf {|{"schema_version":1,"id":"%s","status":"error","message":"m"}|} id in
  let want w = lazy w in
  check "a reply equal to the in-process response is a success"
    (Reply.outcome ~id:"a" ~want:(want (ok "a")) (ok "a") = Bstat.Ok_op);
  check "an error where the library succeeds is a mismatch"
    (Reply.outcome ~id:"a" ~want:(want (ok "a")) (err "a") = Bstat.Failed "mismatch");
  check "success where the library fails is a mismatch"
    (Reply.outcome ~id:"a" ~want:(want (err "a")) (ok "a") = Bstat.Failed "mismatch");
  check "an error the library gives too is a typed error"
    (Reply.outcome ~id:"a" ~want:(want (err "a")) (err "a") = Bstat.Failed "error");
  check "a refusal is counted as its kind, not compared"
    (Reply.outcome ~id:"a" ~want:(lazy (failwith "compared"))
       {|{"schema_version":1,"id":"a","status":"overloaded","retry_after_ms":100}|}
    = Bstat.Failed "overloaded")

let test_labels () =
  let reply labels = Printf.sprintf {|{"id":"a","optimized_labels":[%s],"n":1}|} labels in
  let c = Reply.canonical_labels in
  check "label tickets are renamed"
    (c (reply {|"S17","S18"|}) = c (reply {|"S3","S4"|}));
  check "repeated tickets keep their identity"
    (c (reply {|"S17","S17"|}) <> c (reply {|"S3","S4"|}));
  check "the number of labels must agree"
    (c (reply {|"S17"|}) <> c (reply {|"S3","S4"|}));
  check "no labels" (c (reply "") = reply "");
  check "other bytes must agree"
    (c {|{"id":"a","optimized_labels":["S1"],"n":1}|}
    <> c {|{"id":"a","optimized_labels":["S1"],"n":2}|})

let test_json () =
  check "result line shape"
    (Bstat.result_line ~correct:true ~attempted:3 ~failed:0
       [ { Bstat.name = "x"; value = 1.5; unit_ = "ms" } ]
    = {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"x": {"value": 1.5, "unit": "ms"}}}|});
  check "floats keep every digit" (Bstat.json_float 0.1 = "0.10000000000000001")

let () =
  test_percentile ();
  test_stream ();
  test_accounting ();
  test_outcome ();
  test_labels ();
  test_json ();
  Printf.printf "selftest: %d checks, %d failed\n" !checks !failures;
  exit (if !failures = 0 then 0 else 1)
