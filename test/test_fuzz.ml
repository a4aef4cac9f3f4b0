(* The differential fuzzing harness: generator determinism, shrinking,
   a small live campaign, and replay of the minimized reproducer corpus
   (every bug the fuzzer has found and we have fixed stays fixed). *)

open Locality_ir
module Fuzz = Locality_fuzz

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* Generation is a pure function of (seed, index): same inputs, same
   program text; and programs are always well-formed. *)
let test_gen_deterministic () =
  List.iter
    (fun index ->
      let p1 = Fuzz.Gen.generate ~seed:7 ~index ~size:24 in
      let p2 = Fuzz.Gen.generate ~seed:7 ~index ~size:24 in
      checks
        (Printf.sprintf "index %d reproducible" index)
        (Pretty.program_to_string p1)
        (Pretty.program_to_string p2);
      checkb
        (Printf.sprintf "index %d valid" index)
        true
        (match Program.validate p1 with Ok () -> true | Error _ -> false))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_gen_varies () =
  let texts =
    List.map
      (fun index ->
        Pretty.program_to_string (Fuzz.Gen.generate ~seed:7 ~index ~size:24))
      (List.init 10 Fun.id)
  in
  checkb "indices explore distinct programs" true
    (List.length (List.sort_uniq String.compare texts) > 5)

(* Shrinking only ever returns a smaller program that still satisfies
   the failure predicate and still validates. *)
let test_shrink () =
  let p = Fuzz.Gen.generate ~seed:3 ~index:0 ~size:24 in
  let fails q = List.length q.Program.decls >= 1 in
  let shrunk, steps = Fuzz.Shrink.shrink ~fails p in
  checkb "still fails" true (fails shrunk);
  checkb "not larger" true (Fuzz.Shrink.size shrunk <= Fuzz.Shrink.size p);
  checkb "took steps" true (steps > 0);
  checkb "still valid" true
    (match Program.validate shrunk with Ok () -> true | Error _ -> false)

(* The C-compiler probe is lazy and process-wide. Forcing it from
   several pool domains at once raises, and the raise surfaced as a
   spurious [`Exec] finding; the harness forces it before the fan-out.
   This runs before any other test here forces the probe, so the first
   campaign starts with it unforced. Probes [PATH] itself to skip
   without touching the lazy value. *)
let test_cgen_probe_no_race () =
  let on_path cc =
    Sys.command (Printf.sprintf "command -v %s >/dev/null 2>&1" cc) = 0
  in
  if not (List.exists on_path [ "cc"; "gcc"; "clang" ]) then Alcotest.skip ();
  for seed = 1 to 3 do
    let o =
      Fuzz.Harness.run ~jobs:4 ~oracles:[ `Cgen ] ~seed ~count:8 ~max_size:12 ()
    in
    List.iter
      (fun (f : Fuzz.Harness.failure) ->
        List.iter
          (fun (fd : Fuzz.Oracle.finding) ->
            if fd.Fuzz.Oracle.kind = `Exec then
              Alcotest.failf "seed %d index %d: spurious exec finding: %s" seed
                f.Fuzz.Harness.index fd.Fuzz.Oracle.detail)
          f.Fuzz.Harness.findings)
      o.Fuzz.Harness.failures
  done

(* A small campaign over every oracle must come back clean, and be
   byte-for-byte identical for any worker count. *)
let test_campaign_clean_and_jobs_independent () =
  let run jobs =
    Fuzz.Harness.run ~jobs ~seed:11 ~count:25 ~max_size:20 ()
  in
  let o1 = run 1 and o4 = run 4 in
  checki "generated" 25 o1.Fuzz.Harness.generated;
  checkb "no failures (jobs=1)" true (o1.Fuzz.Harness.failures = []);
  checkb "no failures (jobs=4)" true (o4.Fuzz.Harness.failures = []);
  checki "same failure count"
    (List.length o1.Fuzz.Harness.failures)
    (List.length o4.Fuzz.Harness.failures)

(* Replay the minimized reproducers: each file is a bug the fuzzer
   found; parsing it and running the full oracle stack must now be
   silent. *)
let test_corpus_replay () =
  let entries = Fuzz.Corpus.load_dir "corpus" in
  checkb "corpus is not empty" true (List.length entries >= 5) ;
  List.iter
    (fun (file, p) ->
      match Fuzz.Oracle.check p with
      | [] -> ()
      | findings ->
        Alcotest.failf "%s: %s" file
          (String.concat "; "
             (List.map (fun f -> f.Fuzz.Oracle.detail) findings)))
    entries

let suite =
  [
    ("generator determinism", `Quick, test_gen_deterministic);
    ("generator variety", `Quick, test_gen_varies);
    ("shrinker contract", `Quick, test_shrink);
    ("cgen probe: no race at jobs > 1", `Quick, test_cgen_probe_no_race);
    ( "campaign clean and jobs-independent",
      `Quick,
      test_campaign_clean_and_jobs_independent );
    ("corpus replay", `Quick, test_corpus_replay);
  ]
