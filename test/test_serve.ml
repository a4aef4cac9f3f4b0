(* The serve daemon and its wire API: request round-trips and strict
   rejection (fuzzed with the PR 5 seed streams), the stable Driver
   error format the envelope forwards, and the live server — concurrent
   clients get bytes identical to direct Driver.run, identical in-flight
   requests are batched, deadlines and the queue bound answer with typed
   responses, and a draining server still answers what it accepted. *)

module Serve = Locality_serve.Serve
module Request = Locality_driver.Request
module Response = Locality_driver.Response
module D = Locality_driver.Driver
module Measure = Locality_interp.Measure
module Store = Locality_store.Store
module Obs = Locality_obs.Obs
module Summary = Locality_obs.Summary
module Rng = Locality_fuzz.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------- wire format --- *)

let sample_requests =
  [
    Request.make (Request.Kernel "matmul");
    Request.make ~id:"r-1" ~n:32 ~scale:2 ~cls:8
      ~machines:[ Request.Named "cache1"; Request.Named "cache2" ]
      ~replay:Measure.Runs ~sample_rate:0.25 ~use_labels:true
      ~timeout_ms:500 ~emit_program:true
      (Request.Suite "dmxpy");
    Request.make ~transform:Request.Keep ~store:Request.No_store
      (Request.File "/tmp/prog.mem");
    Request.make
      ~transform:
        (Request.Compound
           { try_reversal = Some true; interference_limit = Some 3 })
      ~machines:
        [
          Request.Custom
            {
              Locality_cachesim.Cache.name = "toy";
              size_bytes = 1024;
              assoc = 2;
              line_bytes = 32;
            };
        ]
      ~params:[ ("N", 8); ("M", 12) ]
      ~store:(Request.Root "/tmp/store-root")
      (Request.Text { name = "inline.mem"; text = "do i = 1, n\nend do\n" });
  ]

let test_roundtrip () =
  List.iter
    (fun r ->
      match Request.of_json (Request.to_json r) with
      | Ok r' ->
        check "of_json (to_json r) = r" true (r = r');
        (* Canonical form: serialization is a fixed point. *)
        check_str "to_json stable through the round trip"
          (Request.to_json r) (Request.to_json r')
      | Error msg -> Alcotest.failf "round trip rejected: %s" msg)
    sample_requests

let test_fingerprint () =
  let base = List.nth sample_requests 1 in
  let same = { base with Request.id = "other"; timeout_ms = None } in
  check "id/timeout don't change the compute identity" true
    (String.equal (Request.fingerprint base) (Request.fingerprint same));
  check "n does" false
    (String.equal (Request.fingerprint base)
       (Request.fingerprint { base with Request.n = Some 33 }))

(* Substring check without extra deps. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_unknown_field () =
  (match
     Request.of_json
       {|{"schema_version":1,"source":{"kind":"kernel","name":"matmul"},"bogus":1}|}
   with
  | Error msg ->
    check "diagnostic names the field" true (contains msg {|unknown field "bogus"|});
    check "line:col prefix" true (String.length msg > 2 && msg.[0] = '1' && msg.[1] = ':')
  | Ok _ -> Alcotest.fail "unknown field accepted");
  (* The position points at the key, across lines. *)
  match
    Request.of_json
      "{\"schema_version\":1,\n \"source\":{\"kind\":\"kernel\",\"name\":\"matmul\"},\n \"nope\":1}"
  with
  | Error msg ->
    check "points at line 3" true
      (String.length msg > 2 && String.sub msg 0 2 = "3:")
  | Ok _ -> Alcotest.fail "unknown field accepted"

let test_malformed_rejection () =
  let reject s =
    match Request.of_json s with
    | Error msg ->
      check "non-empty diagnostic" true (String.length msg > 0)
    | Ok _ -> Alcotest.failf "accepted malformed input %S" s
  in
  List.iter reject
    [
      "";
      "   ";
      "null";
      "[1,2]";
      "{";
      {|{"schema_version":99,"source":{"kind":"kernel","name":"m"}}|};
      {|{"schema_version":1}|};
      {|{"schema_version":1,"source":{"kind":"nope"}}|};
      {|{"schema_version":1,"source":{"kind":"kernel","name":"m"},"scale":0}|};
      {|{"schema_version":1,"source":{"kind":"kernel","name":"m"},"sample_rate":1.5}|};
      {|{"schema_version":1,"source":{"kind":"kernel","name":"m"},"replay":"bogus"}|};
      {|{"schema_version":1,"source":{"kind":"kernel","name":"m"},"timeout_ms":-5}|};
    ];
  (* A type-valid but geometrically impossible machine parses, then
     fails resolution: validation that needs pipeline knowledge lives in
     to_config, still under the stable "request: ..." format. *)
  match
    Request.of_json
      {|{"schema_version":1,"source":{"kind":"kernel","name":"m"},"machines":[{"name":"x","size_bytes":1000,"assoc":3,"line_bytes":33}]}|}
  with
  | Error msg -> Alcotest.failf "well-typed geometry rejected at parse: %s" msg
  | Ok req -> (
    match Request.to_config req with
    | Ok _ -> Alcotest.fail "impossible geometry resolved"
    | Error msg ->
      check "resolution error keeps the request prefix" true
        (String.length msg >= 8 && String.sub msg 0 8 = "request:"))

(* A retired replay mode is an unknown mode like any other, and the
   diagnostic lists the three that remain. *)
let check_retired_mode mode =
  match
    Request.of_json
      (Printf.sprintf
         {|{"schema_version":1,"source":{"kind":"kernel","name":"m"},
         "replay":%S}|}
         mode)
  with
  | Ok _ -> Alcotest.failf "%s replay accepted" mode
  | Error msg ->
    let suffix =
      Printf.sprintf {|unknown replay mode %S (runs|sample|analytic)|} mode
    in
    let n = String.length msg and k = String.length suffix in
    check (Printf.sprintf "typed diagnostic %S" msg) true
      (n >= k && String.sub msg (n - k) k = suffix)

let test_retired_replay_mode () = check_retired_mode "per-access"

(* The streamed mode merged into [runs]: its name is retired too. *)
let test_retired_stream_mode () = check_retired_mode "stream"

(* The retired [jobs] field is an unknown field like any other, pointed
   at by its key. *)
let test_retired_jobs_field () =
  match
    Request.of_json
      {|{"schema_version":1,"source":{"kind":"kernel","name":"m"},"jobs":4}|}
  with
  | Ok _ -> Alcotest.fail "jobs field accepted"
  | Error msg ->
    check_str "typed diagnostic" {|1:59: unknown field "jobs" in request|} msg

(* Fuzz the reader with the fuzzer's deterministic seed streams: random
   bytes and random mutations of a valid document must produce an Error,
   never an exception (and occasionally an Ok for benign mutations —
   both fine; raising is the only failure). *)
let test_fuzz_reader () =
  let valid = Request.to_json (List.nth sample_requests 1) in
  for index = 0 to 199 do
    let rng = Rng.derive 42 index in
    let input =
      if Rng.bool rng then
        (* Arbitrary bytes, printable-biased. *)
        String.init (Rng.range rng 0 80) (fun _ ->
            Char.chr (Rng.range rng 32 126))
      else begin
        (* Mutate the valid document: flip, drop or insert a byte. *)
        let b = Bytes.of_string valid in
        let pos = Rng.int rng (Bytes.length b) in
        match Rng.int rng 3 with
        | 0 ->
          Bytes.set b pos (Char.chr (Rng.range rng 32 126));
          Bytes.to_string b
        | 1 ->
          Bytes.to_string b |> fun s ->
          String.sub s 0 pos ^ String.sub s (pos + 1) (String.length s - pos - 1)
        | _ ->
          Bytes.to_string b |> fun s ->
          String.sub s 0 pos
          ^ String.make 1 (Char.chr (Rng.range rng 32 126))
          ^ String.sub s pos (String.length s - pos)
      end
    in
    match Request.of_json input with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "of_json raised %s on seed-stream %d: %S"
        (Printexc.to_string e) index input
  done

(* ------------------------------------------ stable Driver error form --- *)

let run_req r =
  match Request.to_config r with Ok cfg -> D.run cfg | Error e -> Error e

let test_error_format () =
  (match run_req (Request.make (Request.Kernel "nosuch")) with
  | Error msg ->
    check "unknown kernel: name-prefixed" true
      (contains msg "nosuch: unknown kernel")
  | Ok _ -> Alcotest.fail "unknown kernel ran");
  (match run_req (Request.make (Request.Suite "nosuch")) with
  | Error msg ->
    check "unknown suite program: name-prefixed" true
      (contains msg "nosuch: unknown suite program")
  | Ok _ -> Alcotest.fail "unknown suite program ran");
  match
    run_req
      (Request.make
         (Request.Text { name = "bad.mem"; text = "do i = 1,\nend do\n" }))
  with
  | Error msg ->
    check "parse error: name-prefixed" true
      (String.length msg > 8 && String.sub msg 0 8 = "bad.mem:");
    (* The name appears exactly once — batch callers never re-prefix. *)
    let occurrences =
      let rec go i acc =
        if i + 8 > String.length msg then acc
        else if String.sub msg i 8 = "bad.mem:" then go (i + 1) (acc + 1)
        else go (i + 1) acc
      in
      go 0 0
    in
    check_int "source name appears exactly once" 1 occurrences
  | Ok _ -> Alcotest.fail "parse error ran"

(* The per-request SHARDS rate is config state, not process state: an
   explicit rate changes that request's sampled estimate, and leaves
   nothing behind for the next request to inherit — the property that
   keeps a long-lived daemon byte-identical to one-shot CLI runs. *)
let test_rate_isolation () =
  let sampled rate =
    Response.to_json
      (Response.of_run ~id:"" ~emit_program:false
         (run_req
            (Request.make ~n:24 ~replay:Measure.Sampled
               ~machines:[ Request.Named "cache2" ]
               ~store:Request.No_store ?sample_rate:rate
               (Request.Kernel "matmul"))))
  in
  let ambient_before = sampled None in
  check "explicit rates reach the profiler" false
    (String.equal (sampled (Some 1.0)) (sampled (Some 0.02)));
  check_str "an omitted rate is untouched by earlier explicit rates"
    ambient_before (sampled None)

(* ---------------------------------------------------- live server ----- *)

let dir_ticket = ref 0

let fresh_path stem =
  incr dir_ticket;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "memoria-%s-%d-%d" stem (Unix.getpid ()) !dir_ticket)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when tries > 0 ->
      Thread.delay 0.02;
      go (tries - 1)
  in
  go 250

let send_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let n = Bytes.length b in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd b !sent (n - !sent)
  done

let recv_line fd =
  let buf = Buffer.create 512 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
      if Bytes.get b 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get b 0);
        go ()
      end
  in
  go ()

(* Start a server on its own systhread, run [f] against the socket, then
   stop and join. The event loop and Obs live on this domain, so serve.*
   counters land in the test's buffer when recording is on. *)
let with_server ?(options = Serve.default_options) f =
  let path = fresh_path "serve-sock" in
  let t = Serve.create ~options (Serve.Socket path) in
  let th = Thread.create Serve.run t in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop t;
      Thread.join th;
      try Unix.unlink path with _ -> ())
    (fun () -> f path)

(* A request every machine answers quickly. *)
let light ~id ~store n =
  Request.make ~id ~n ~machines:[ Request.Named "cache2" ]
    ~store:(Request.Root store) (Request.Kernel "matmul")

(* A request that holds a worker for a while: exact replay of a large
   matmul on both caches, no store (so reruns of the test can't answer
   it warm). *)
let heavy ?(n = 192) ?timeout_ms ~id () =
  Request.make ~id ~n ~replay:Measure.Runs
    ~machines:[ Request.Named "cache1"; Request.Named "cache2" ]
    ~store:Request.No_store ?timeout_ms (Request.Kernel "matmul")

let direct_bytes req =
  Response.to_json
    (Response.of_run ~id:req.Request.id ~emit_program:req.Request.emit_program
       (run_req req))

let test_concurrent_identity () =
  let store = fresh_path "serve-store" in
  with_server (fun path ->
      let round tag =
        let results = Array.make 4 "" in
        let client i () =
          let req = light ~id:(Printf.sprintf "%s-%d" tag i) ~store (16 + i) in
          let fd = connect path in
          send_line fd (Request.to_json req);
          results.(i) <- recv_line fd;
          Unix.close fd
        in
        let ths = List.init 4 (fun i -> Thread.create (client i) ()) in
        List.iter Thread.join ths;
        Array.iteri
          (fun i body ->
            let req = light ~id:(Printf.sprintf "%s-%d" tag i) ~store (16 + i) in
            check_str
              (Printf.sprintf "%s client %d: bytes = direct Driver.run" tag i)
              (direct_bytes req) body)
          results
      in
      (* Cold: the four clients populate the store (the direct runs in
         the checks reuse it — value-identical by the store's contract). *)
      round "cold";
      (* Warm: every simulation now answers from the store. *)
      let before = Store.counters () in
      round "warm";
      let after = Store.counters () in
      check "warm round hit the store" true
        (after.Store.hits > before.Store.hits);
      check_int "warm round missed nothing" before.Store.misses
        after.Store.misses)

let test_typed_timeout_immediate () =
  with_server (fun path ->
      let fd = connect path in
      let req = heavy ~timeout_ms:0 ~id:"t0" () in
      send_line fd (Request.to_json req);
      let body = recv_line fd in
      Unix.close fd;
      check_str "timeout_ms=0 is the deterministic typed timeout"
        (Response.to_json (Response.Timeout { id = "t0"; timeout_ms = 0 }))
        body)

let test_timeout_and_backpressure () =
  let options =
    { Serve.default_options with Serve.jobs = Some 1; max_queue = 1 }
  in
  with_server ~options (fun path ->
      (* A occupies the only in-flight slot; its deadline fires mid-
         compute and answers with the typed timeout long before the
         worker finishes. *)
      let fd_a = connect path in
      send_line fd_a (Request.to_json (heavy ~timeout_ms:150 ~id:"slow" ()));
      Thread.delay 0.05;
      (* B arrives while the slot is taken: typed overloaded, immediately. *)
      let fd_b = connect path in
      send_line fd_b (Request.to_json (light ~id:"b" ~store:(fresh_path "s") 17));
      let body_b = recv_line fd_b in
      Unix.close fd_b;
      check_str "queue full answers overloaded"
        (Response.to_json
           (Response.Overloaded
              { id = "b"; retry_after_ms = 100 }))
        body_b;
      let body_a = recv_line fd_a in
      Unix.close fd_a;
      check_str "deadline mid-compute answers the typed timeout"
        (Response.to_json (Response.Timeout { id = "slow"; timeout_ms = 150 }))
        body_a)

let test_batching () =
  let options =
    { Serve.default_options with Serve.jobs = Some 1; max_queue = 4 }
  in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      ignore (Obs.drain ());
      Obs.set_enabled false)
    (fun () ->
      with_server ~options (fun path ->
          (* Hold the single worker so the twins are provably in flight
             together when the second arrives. *)
          let fd_hold = connect path in
          send_line fd_hold (Request.to_json (heavy ~id:"hold" ()));
          Thread.delay 0.05;
          let store = fresh_path "serve-batch-store" in
          let twin fd =
            send_line fd (Request.to_json (light ~id:"twin" ~store 18))
          in
          let fd1 = connect path and fd2 = connect path in
          twin fd1;
          Thread.delay 0.05;
          twin fd2;
          let b1 = recv_line fd1 and b2 = recv_line fd2 in
          Unix.close fd1;
          Unix.close fd2;
          check_str "both twins get identical bytes" b1 b2;
          check "twins were answered ok" true (contains b1 "\"status\":\"ok\"");
          ignore (recv_line fd_hold);
          Unix.close fd_hold);
      let s = Summary.of_events (Obs.drain ()) in
      let counter name =
        match List.assoc_opt name s.Summary.counters with
        | Some v -> v
        | None -> 0
      in
      check "identical in-flight twins batched" true (counter "serve.batched" >= 1);
      check "requests counted" true (counter "serve.requests" >= 3);
      check "completions counted" true (counter "serve.ok" >= 2))

let test_drain_answers_inflight () =
  let path = fresh_path "serve-sock" in
  let t = Serve.create (Serve.Socket path) in
  let th = Thread.create Serve.run t in
  let fd = connect path in
  send_line fd (Request.to_json (heavy ~id:"drain" ()));
  Thread.delay 0.1;
  (* Stop while the request computes: the server must answer it before
     run returns. *)
  Serve.stop t;
  let body = recv_line fd in
  Unix.close fd;
  Thread.join th;
  (try Unix.unlink path with _ -> ());
  check "draining server still answered the in-flight request" true
    (contains body "\"status\":\"ok\"" && contains body "\"id\":\"drain\"")

(* The worker that finishes the last in-flight job after [stop] wakes
   the draining loop itself, so [run] returns right after the reply
   instead of when the loop's 1 s [select] timeout next expires. The
   job (about 0.2 s) ends well before that timeout, which started at the
   stop. *)
let test_drain_returns_promptly () =
  let path = fresh_path "serve-sock" in
  let t = Serve.create (Serve.Socket path) in
  let th = Thread.create Serve.run t in
  let fd = connect path in
  send_line fd (Request.to_json (heavy ~n:128 ~id:"prompt" ()));
  Thread.delay 0.05;
  Serve.stop t;
  let body = recv_line fd in
  let replied = Unix.gettimeofday () in
  Thread.join th;
  let lag = Unix.gettimeofday () -. replied in
  Unix.close fd;
  (try Unix.unlink path with _ -> ());
  check "the in-flight request was answered" true
    (contains body "\"status\":\"ok\"" && contains body "\"id\":\"prompt\"");
  check
    (Printf.sprintf "run returned %.3f s after the last reply (< 0.3 s)" lag)
    true (lag < 0.3)

(* Several requests in one write: the framing layer splits them in a
   single scan and every one is answered (responses matched by id —
   arrival order is not guaranteed). *)
let test_pipelined_lines () =
  let store = fresh_path "serve-pipe-store" in
  with_server (fun path ->
      let fd = connect path in
      let reqs =
        List.init 3 (fun i -> light ~id:(Printf.sprintf "p-%d" i) ~store (16 + i))
      in
      send_line fd (String.concat "\n" (List.map Request.to_json reqs));
      let bodies = List.map (fun _ -> recv_line fd) reqs in
      Unix.close fd;
      List.iter
        (fun (r : Request.t) ->
          check
            (Printf.sprintf "pipelined %s answered ok" r.Request.id)
            true
            (List.exists
               (fun b ->
                 contains b (Printf.sprintf "\"id\":%S" r.Request.id)
                 && contains b "\"status\":\"ok\"")
               bodies))
        reqs)

let test_wire_malformed () =
  with_server (fun path ->
      let fd = connect path in
      send_line fd "{\"nope\":";
      let body = recv_line fd in
      check "malformed line gets an error envelope" true
        (contains body "\"status\":\"error\"" && contains body "\"id\":\"\"");
      (* The connection survives a bad line; a good request still runs. *)
      send_line fd
        (Request.to_json (light ~id:"after" ~store:(fresh_path "s") 16));
      let body2 = recv_line fd in
      Unix.close fd;
      check "connection usable after rejection" true
        (contains body2 "\"status\":\"ok\"" && contains body2 "\"id\":\"after\""))

(* Names are a function of the request: with no store, a daemon that
   has served unrelated traffic answers a Compound request with the same
   bytes as a fresh daemon and as a direct Driver.run. *)
let test_history_independent () =
  let req =
    Request.make ~id:"det" ~n:24
      ~machines:[ Request.Named "cache1"; Request.Named "cache2" ]
      ~store:Request.No_store (Request.Kernel "matmul")
  in
  let unrelated =
    let r = Request.make ~n:16 ~store:Request.No_store in
    [
      r (Request.Kernel "lu");
      r (Request.Kernel "cholesky");
      r (Request.Kernel "matmul_chain");
      r
        (Request.Text
           {
             name = "t.mem";
             text =
               Locality_ir.Pretty.program_to_string
                 (Locality_suite.Kernels.adi_fragment 16);
           });
    ]
  in
  let ask path r =
    let fd = connect path in
    send_line fd (Request.to_json r);
    let body = recv_line fd in
    Unix.close fd;
    body
  in
  let fresh = with_server (fun path -> ask path req) in
  let busy =
    with_server (fun path ->
        List.iter
          (fun r ->
            check "unrelated request answered ok" true
              (contains (ask path r) "\"status\":\"ok\""))
          unrelated;
        ask path req)
  in
  check_str "fresh daemon = direct Driver.run" (direct_bytes req) fresh;
  check_str "daemon after unrelated traffic = fresh daemon" fresh busy;
  check "reply names the optimized statement S1" true
    (contains fresh "\"optimized_labels\":[\"S1\"]")

let suite =
  [
    ("request: canonical round trip", `Quick, test_roundtrip);
    ("request: fingerprint neutralizes serve-side fields", `Quick, test_fingerprint);
    ("request: unknown field has line:col", `Quick, test_unknown_field);
    ("request: malformed documents rejected", `Quick, test_malformed_rejection);
    ("request: retired per-access replay rejected", `Quick,
     test_retired_replay_mode);
    ("request: retired jobs field rejected", `Quick, test_retired_jobs_field);
    ("request: retired stream replay rejected", `Quick,
     test_retired_stream_mode);
    ("request: reader survives seed-stream fuzz", `Quick, test_fuzz_reader);
    ("driver: error format is stable", `Quick, test_error_format);
    ("driver: sample rate is per-request, never sticky", `Slow, test_rate_isolation);
    ( "serve: concurrent clients = direct bytes, cold and warm",
      `Slow,
      test_concurrent_identity );
    ("serve: timeout_ms=0 answers typed timeout", `Quick, test_typed_timeout_immediate);
    ( "serve: deadline and queue bound answer typed responses",
      `Slow,
      test_timeout_and_backpressure );
    ("serve: identical in-flight requests batched", `Slow, test_batching);
    ("serve: drain answers in-flight work", `Slow, test_drain_answers_inflight);
    ("serve: drain returns as the last job ends", `Slow,
     test_drain_returns_promptly);
    ("serve: pipelined lines all answered", `Slow, test_pipelined_lines);
    ("serve: malformed line rejected, connection survives", `Quick, test_wire_malformed);
    ( "serve: no-store reply independent of earlier traffic",
      `Slow,
      test_history_independent );
  ]
