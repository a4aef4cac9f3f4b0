(* The content-addressed experiment store: digest stability, warm-hit
   equality against plain recomputation over the whole suite, corruption
   quarantine, concurrent writers on the domain pool, and LRU gc. *)

module Store = Locality_store.Store
module Measure = Locality_interp.Measure
module D = Locality_driver.Driver
module S = Locality_suite
module Pool = Locality_par.Pool

(* OCaml 5.1 has no Filename.temp_dir; make our own scratch roots. *)
let dir_ticket = ref 0

let fresh_dir () =
  incr dir_ticket;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "memoria-store-test-%d-%d" (Unix.getpid ()) !dir_ticket)
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

let with_store f =
  let st = Store.open_root (fresh_dir ()) in
  f st

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------- digest stability --- *)

let test_key_stability () =
  let k1 = Store.key ~kind:"x" [ "a"; "bc" ] in
  let k2 = Store.key ~kind:"x" [ "a"; "bc" ] in
  let same a b = String.equal (Store.hex a) (Store.hex b) in
  check "same parts, same key" true (same k1 k2);
  check "field boundaries matter" false
    (same k1 (Store.key ~kind:"x" [ "ab"; "c" ]));
  check "kind matters" false (same k1 (Store.key ~kind:"y" [ "a"; "bc" ]));
  check_int "hex is 32 chars" 32 (String.length (Store.hex k1))

(* ------------------------------------- hit = recompute, whole suite --- *)

let runs_equal (a : Measure.run) (b : Measure.run) = a = b

let test_suite_hit_equals_recompute () =
  with_store (fun st ->
      List.iter
        (fun (e : S.Programs.entry) ->
          let p = S.Programs.program_of ~n:12 e in
          let plain = Measure.measure ~store:None p in
          let cold = Measure.measure ~store:(Some st) p in
          let warm = Measure.measure ~store:(Some st) p in
          check (e.S.Programs.name ^ ": cold = plain") true
            (runs_equal plain cold);
          check (e.S.Programs.name ^ ": warm = plain") true
            (runs_equal plain warm))
        S.Programs.all)

(* The driver's cached compound analysis: a warm run must reproduce the
   transformed program, the statistics and the measurements exactly. *)
let test_driver_analysis_cache () =
  with_store (fun st ->
      List.iter
        (fun name ->
          let machines = [ Locality_cachesim.Machine.cache2 ] in
          let cfg =
            D.config ~n:12 ~store:(Some st) ~machines (D.Source_suite name)
          in
          let plain =
            D.run_exn (D.config ~n:12 ~store:None ~machines (D.Source_suite name))
          in
          let cold = D.run_exn cfg in
          let warm = D.run_exn cfg in
          check (name ^ ": warm transformed = cold") true
            (warm.D.transformed = cold.D.transformed);
          check (name ^ ": warm stats = cold") true
            (warm.D.compound = cold.D.compound);
          check (name ^ ": warm labels = cold") true
            (warm.D.optimized_labels = cold.D.optimized_labels);
          let runs (r : D.result) =
            List.map
              (fun m -> (m.D.original_run, m.D.transformed_run, m.D.speedup))
              r.D.measured
          in
          check (name ^ ": warm measurements = plain") true
            (runs warm = runs plain))
        [ "adm"; "qcd"; "wave" ])

(* --------------------------------------------- corruption handling --- *)

let corrupt_file ?(truncate = false) path =
  let len = (Unix.stat path).Unix.st_size in
  if truncate then (
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Unix.ftruncate fd (len / 2);
    Unix.close fd)
  else begin
    (* Flip a bit in the middle of the payload. *)
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
    let pos = len / 2 in
    ignore (Unix.lseek fd pos Unix.SEEK_SET);
    let b = Bytes.create 1 in
    ignore (Unix.read fd b 0 1);
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    ignore (Unix.lseek fd pos Unix.SEEK_SET);
    ignore (Unix.write fd b 0 1);
    Unix.close fd
  end

let test_bitflip_quarantines () =
  with_store (fun st ->
      let k = Store.key ~kind:"t" [ "bitflip" ] in
      Store.put_value st k (List.init 100 string_of_int);
      let path = Store.object_path st k in
      corrupt_file path;
      let before = Store.counters () in
      check "corrupt entry reads as a miss" true
        (Store.get_value st k = (None : string list option));
      let after = Store.counters () in
      check_int "quarantine counter bumped" 1
        (after.Store.quarantines - before.Store.quarantines);
      check_int "counted as a miss" 1 (after.Store.misses - before.Store.misses);
      check "entry removed from objects/" false (Sys.file_exists path);
      check "entry parked in quarantine/" true
        (Sys.file_exists
           (Filename.concat
              (Filename.concat (Store.root st) "quarantine")
              (Filename.basename path))))

let test_truncation_invalidates () =
  with_store (fun st ->
      let k = Store.key ~kind:"t" [ "truncate" ] in
      Store.put_value st k (Array.init 200 (fun i -> i * i));
      corrupt_file ~truncate:true (Store.object_path st k);
      let before = Store.counters () in
      check "truncated entry reads as a miss" true
        (Store.get_value st k = (None : int array option));
      let after = Store.counters () in
      check_int "invalidation counter bumped" 1
        (after.Store.invalidations - before.Store.invalidations);
      check "entry gone from objects/" false
        (Sys.file_exists (Store.object_path st k)))

(* Damage every entry a cold computation published: each must be
   retired and recomputed without changing a single field. One input per
   stored kind: the measurement's run and the driver's analysis. *)
let recomputes_identically what equal compute =
  with_store (fun st ->
      let plain = compute None in
      let cold = compute (Some st) in
      let rec each dir f =
        Array.iter
          (fun n ->
            let path = Filename.concat dir n in
            if Sys.is_directory path then each path f else f path)
          (Sys.readdir dir)
      in
      each (Filename.concat (Store.root st) "objects") corrupt_file;
      let recomputed = compute (Some st) in
      check (what ^ ": cold = plain") true (equal plain cold);
      check (what ^ ": recomputed after corruption = plain") true
        (equal plain recomputed);
      let d = Store.disk_stats st in
      check (what ^ ": quarantine holds the damaged entries") true
        (d.Store.quarantined > 0))

let test_corruption_recomputes_identically () =
  let p = S.Kernels.matmul ~order:"IJK" 16 in
  recomputes_identically "run" runs_equal (fun store ->
      Measure.measure ~store p);
  recomputes_identically "analysis" ( = ) (fun store ->
      D.run_exn
        (D.config ~store (D.Source_program { name = "matmul"; program = p })))

(* ------------------------------------------------ concurrent writers --- *)

let test_concurrent_writers () =
  with_store (fun st ->
      let items = List.init 16 (fun i -> i) in
      let results =
        Pool.map ~jobs:4
          (fun i ->
            (* Half the writers contend on shared keys, half write their
               own; everyone immediately reads back. *)
            let k = Store.key ~kind:"conc" [ string_of_int (i mod 4) ] in
            Store.put_value st k (i mod 4, "payload");
            Store.get_value st k)
          items
      in
      List.iter
        (fun r ->
          match (r : (int * string) option) with
          | None -> Alcotest.fail "concurrent read missed"
          | Some (_, s) -> check "payload intact" true (String.equal s "payload"))
        results;
      let ok, bad = Store.verify st in
      check_int "all surviving entries valid" 0 bad;
      check_int "one entry per contended key" 4 ok;
      (* Every entry decodes to the value its key says it holds. *)
      List.iter
        (fun i ->
          let k = Store.key ~kind:"conc" [ string_of_int i ] in
          match (Store.get_value st k : (int * string) option) with
          | Some (j, _) -> check_int "key/value agree" i j
          | None -> Alcotest.fail "entry lost after contention")
        [ 0; 1; 2; 3 ])

(* -------------------------------------------------------------- gc --- *)

let test_gc_lru () =
  with_store (fun st ->
      let payload = String.make 1000 'x' in
      let keys =
        List.map (fun i -> Store.key ~kind:"gc" [ string_of_int i ]) [ 0; 1; 2; 3 ]
      in
      List.iteri
        (fun i k ->
          Store.put st k payload;
          (* Backdate: entry i last used at hour i+1. *)
          let t = float_of_int ((i + 1) * 3600) in
          Unix.utimes (Store.object_path st k) t t)
        keys;
      let entry_size = (Unix.stat (Store.object_path st (List.hd keys))).Unix.st_size in
      (* Room for two entries: the two oldest must go. *)
      let deleted, remaining = Store.gc st ~max_bytes:(2 * entry_size) in
      check_int "evicted the excess" 2 deleted;
      check_int "remaining bytes as reported" (2 * entry_size) remaining;
      let alive k = Sys.file_exists (Store.object_path st k) in
      (match keys with
      | [ k0; k1; k2; k3 ] ->
        check "oldest evicted" false (alive k0);
        check "second-oldest evicted" false (alive k1);
        check "recent survives" true (alive k2);
        check "newest survives" true (alive k3)
      | _ -> assert false);
      (* A read refreshes the clock: touch the older survivor, add a new
         entry, and shrink again — the untouched one is now the victim. *)
      ignore (Store.get st (List.nth keys 2));
      let d = Store.gc st ~max_bytes:entry_size in
      check_int "one more eviction" 1 (fst d);
      check "recently-read entry survives the second gc" true
        (alive (List.nth keys 2)))

let test_gc_min_age () =
  with_store (fun st ->
      let payload = String.make 1000 'x' in
      let old_k = Store.key ~kind:"age" [ "old" ]
      and new_k = Store.key ~kind:"age" [ "new" ] in
      Store.put st old_k payload;
      let t = Unix.gettimeofday () -. 3600. in
      Unix.utimes (Store.object_path st old_k) t t;
      Store.put st new_k payload;
      let alive k = Sys.file_exists (Store.object_path st k) in
      (* max_bytes 0 wants everything gone; min-age shields the entry a
         concurrent writer just published, even though the store stays
         over target. *)
      let deleted, remaining = Store.gc ~min_age_s:600. st ~max_bytes:0 in
      check_int "only the stale entry evicted" 1 deleted;
      check "stale entry gone" false (alive old_k);
      check "fresh entry survives an evict-everything gc" true (alive new_k);
      check "remaining bytes still count the survivor" true (remaining > 0);
      (* Without the shield the same gc clears the store. *)
      let deleted2, remaining2 = Store.gc st ~max_bytes:0 in
      check_int "min_age 0 evicts the rest" 1 deleted2;
      check_int "store empty" 0 remaining2)

(* Kernel lu is built with explicit labels L1/L2; its printed text
   lowers to S1/S2. The text's first run asks for another analysis
   (try_reversal Some false), so it misses the kernel's analysis entry,
   builds S1/S2 programs, and reads the kernel's run and sample profile
   entries, whose keys name statements by position. Its second run
   (try_reversal None) shares the kernel's analysis key and resumes from
   the stored L1/L2 original. Either way the measured optimized region
   must be the store-less one — in every mode. *)
let test_labels_across_builds () =
  let lu = S.Kernels.lu 24 in
  let text = Locality_ir.Pretty.program_to_string lu in
  let labels p = Locality_ir.Loop.labels p.Locality_ir.Program.body in
  check "the builds label differently" true
    (labels lu <> labels (Locality_lang.Lower.parse_program text));
  let cfg ~store ~replay try_reversal source =
    D.config ~n:24 ~machines:[ Locality_cachesim.Machine.cache1 ]
      ~use_labels:true ~replay
      ~transform:(D.Compound { try_reversal; interference_limit = None })
      ~store source
  in
  let kernel = D.Source_kernel "lu"
  and parsed = D.Source_text { name = "lu.mem"; text } in
  List.iter
    (fun replay ->
      with_store (fun st ->
          let what = Measure.mode_to_string replay ^ ": " in
          let run store rev = D.run_exn (cfg ~store ~replay rev parsed) in
          ignore (D.run_exn (cfg ~store:(Some st) ~replay None kernel));
          let hits () = (Store.counters ()).Store.hits in
          let before = hits () in
          let by_position = run (Some st) (Some false) in
          check (what ^ "the text reads the kernel's entries") true
            (hits () > before);
          let resumed = run (Some st) None in
          List.iter
            (fun (rev, warm, tag) ->
              let plain = run None rev in
              check (what ^ tag ^ ": optimized region is attributed") true
                (List.for_all
                   (fun m ->
                     m.D.transformed_run.Measure.optimized.Measure.accesses
                     > 0)
                   plain.D.measured);
              check (what ^ tag ^ ": with the kernel's entries = without a store")
                true
                (warm.D.measured = plain.D.measured))
            [
              (Some false, by_position, "other analysis");
              (None, resumed, "stored original");
            ]))
    Measure.[ Runs; Sampled; Analytic ]

(* Key bytes are a persistent format: a warm store written by one
   version must read in the next. Pin the on-disk name of one entry per
   kind that a real run publishes; a change to a key's parts, a tag's
   spelling or the digest fails here. Bumping [Store.format_version]
   changes every key; update the pins with it. *)
let test_pinned_keys () =
  let p = S.Kernels.cholesky 8 in
  let pinned what hex run =
    with_store (fun st ->
        run st;
        let path =
          List.fold_left Filename.concat (Store.root st)
            [ "objects"; String.sub hex 0 2; hex ^ ".bin" ]
        in
        check (what ^ " entry at " ^ hex) true (Sys.file_exists path))
  in
  check_int "format version" 3 Store.format_version;
  pinned "measure run" "5c90955073cd6f170543b835418788a9" (fun st ->
      ignore (Measure.measure ~mode:Measure.Runs ~store:(Some st) p);
      (* The run is all a cold measurement publishes: no trace is kept. *)
      check_int "entries published" 1 (fst (Store.verify st)));
  pinned "driver analysis" "e7482ececeeac087b6921d86f41873cc" (fun st ->
      ignore (D.run (D.config ~n:8 ~store:(Some st) (D.Source_kernel "cholesky"))));
  pinned "analytic estimate" "cc18bcdc93cbb2e4877f365bc1d830a1" (fun st ->
      ignore (Measure.measure ~mode:Measure.Analytic ~store:(Some st) p);
      (* The model certifies cholesky: its estimate is the one entry. *)
      check_int "entries published" 1 (fst (Store.verify st)))

let suite =
  [
    ("key: digest stability", `Quick, test_key_stability);
    ( "measure: hit = recompute on all suite programs",
      `Slow,
      test_suite_hit_equals_recompute );
    ( "driver: cached analysis is value-identical",
      `Quick,
      test_driver_analysis_cache );
    ( "driver: store entries carry no build's labels",
      `Quick,
      test_labels_across_builds );
    ("corruption: bit-flip quarantined", `Quick, test_bitflip_quarantines);
    ("corruption: truncation invalidated", `Quick, test_truncation_invalidates);
    ( "corruption: recompute is field-identical",
      `Quick,
      test_corruption_recomputes_identically );
    ("concurrency: 4-domain writers", `Quick, test_concurrent_writers);
    ("gc: LRU eviction respects max-bytes", `Quick, test_gc_lru);
    ("gc: min-age shields fresh entries", `Quick, test_gc_min_age);
    ("key: pinned on-disk names", `Quick, test_pinned_keys);
  ]
