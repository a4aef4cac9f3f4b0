module Driver = Locality_driver.Driver
module Measure = Locality_interp.Measure
module Exec = Locality_interp.Exec
module Walk = Locality_interp.Walk
module Trace = Locality_interp.Trace
module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Analytic = Locality_analytic.Analytic
module Sample = Locality_sample.Sample
module L = Locality_lang

type kind = [ `Exec | `Replay | `Roundtrip | `Cgen | `Analytic | `Sample ]

let all = [ `Exec; `Replay; `Roundtrip; `Cgen; `Analytic; `Sample ]

let kind_to_string = function
  | `Exec -> "exec"
  | `Replay -> "replay"
  | `Roundtrip -> "roundtrip"
  | `Cgen -> "cgen"
  | `Analytic -> "analytic"
  | `Sample -> "sample"

let kind_of_string = function
  | "exec" -> Ok `Exec
  | "replay" -> Ok `Replay
  | "roundtrip" -> Ok `Roundtrip
  | "cgen" -> Ok `Cgen
  | "analytic" -> Ok `Analytic
  | "sample" -> Ok `Sample
  | s ->
    Error
      (Printf.sprintf
         "unknown oracle %s (expected \
          exec|replay|roundtrip|cgen|analytic|sample)" s)

type finding = { kind : kind; detail : string }

let compiler =
  lazy
    (List.find_opt
       (fun cc ->
         Sys.command (Printf.sprintf "command -v %s >/dev/null 2>&1" cc) = 0)
       [ "cc"; "gcc"; "clang" ])

let cgen_available () = Lazy.force compiler <> None

let transform p =
  let cfg =
    Driver.config ~machines:[] ~store:None
      (Driver.Source_program { name = p.Program.name; program = p })
  in
  Result.map (fun (r : Driver.result) -> r.Driver.transformed) (Driver.run cfg)

(* Values must agree bitwise (covers inf/nan produced identically on
   both sides) or within a small relative tolerance (covers reductions
   reassociated by reordering transforms). *)
let close a b =
  Float.equal a b
  || Float.abs (a -. b)
     <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_exec p pt =
  let ra = Exec.run p and rb = Exec.run pt in
  let rec arrays = function
    | [], [] -> None
    | (name, a) :: resta, (name', b) :: restb ->
      if name <> name' then
        Some (Printf.sprintf "array order differs: %s vs %s" name name')
      else if Array.length a <> Array.length b then
        Some
          (Printf.sprintf "array %s: %d vs %d elements" name (Array.length a)
             (Array.length b))
      else begin
        let bad = ref None in
        Array.iteri
          (fun i x ->
            if !bad = None && not (close x b.(i)) then
              bad :=
                Some
                  (Printf.sprintf "array %s element %d: %.17g vs %.17g" name i
                     x b.(i)))
          a;
        match !bad with None -> arrays (resta, restb) | some -> some
      end
    | _ -> Some "different array sets"
  in
  match arrays (ra.Exec.arrays, rb.Exec.arrays) with
  | None -> []
  | Some detail -> [ { kind = `Exec; detail } ]

(* Every other statement in program order: a deterministic optimized
   region that exercises label marking. *)
let alternate_labels p =
  List.filteri (fun i _ -> i mod 2 = 0) (Loop.labels p.Program.body)

(* The reference simulator: the tree-walking interpreter's observer
   feeding one cache per geometry through [Cache.access_full], one
   access at a time, with the region tallied by hand — none of the
   walk, run compression or bulk replay the backends use. *)
let reference ~configs ~labels p =
  let tally (r : Cache.region) cls =
    r.Cache.r_accesses <- r.Cache.r_accesses + 1;
    match cls with
    | `Hit -> r.Cache.r_hits <- r.Cache.r_hits + 1
    | `Cold -> r.Cache.r_cold <- r.Cache.r_cold + 1
    | `Miss -> ()
  in
  let sims =
    List.map
      (fun c -> (Cache.create c, Cache.fresh_region (), Cache.fresh_region ()))
      configs
  in
  let on_access ~label ~addr ~write =
    let opt = List.mem label labels in
    List.iter
      (fun (cache, whole, o) ->
        let cls, _ = Cache.access_full cache ~write addr in
        tally whole cls;
        if opt then tally o cls)
      sims
  in
  let observer = { Exec.on_access; on_stmt = (fun ~label:_ -> ()) } in
  let ops = (Exec.run ~observer p).Exec.ops in
  let region (r : Cache.region) =
    { Measure.accesses = r.Cache.r_accesses; hits = r.Cache.r_hits;
      cold = r.Cache.r_cold }
  in
  List.map (fun (_, whole, o) -> (region whole, region o, ops)) sims

let check_replay ~which p =
  let labels = alternate_labels p in
  let configs = [ Machine.cache1; Machine.cache2 ] in
  let b = Measure.prepare ~mode:Measure.Runs ~store:None p in
  List.concat_map
    (fun ((config : Cache.config), (whole, optimized, ops)) ->
      let r = Measure.replay_prepared ~config ~optimized_labels:labels b in
      let diffs =
        List.filter_map
          (fun (field, ok) -> if ok then None else Some field)
          [
            ("whole", r.Measure.whole = whole);
            ("optimized", r.Measure.optimized = optimized);
            ("ops", r.Measure.ops = ops);
          ]
      in
      if diffs = [] then []
      else
        [
          {
            kind = `Replay;
            detail =
              Printf.sprintf "%s on %s: runs replay and reference disagree \
                              on %s"
                which config.Cache.name (String.concat ", " diffs);
          };
        ])
    (List.combine configs (reference ~configs ~labels p))

let first_diff_line a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go n = function
    | x :: xs, y :: ys -> if x = y then go (n + 1) (xs, ys) else (n, x, y)
    | x :: _, [] -> (n, x, "<end>")
    | [], y :: _ -> (n, "<end>", y)
    | [], [] -> (n, "", "")
  in
  go 1 (la, lb)

let check_roundtrip ~which p =
  let fail detail = [ { kind = `Roundtrip; detail = which ^ ": " ^ detail } ] in
  let text = Pretty.program_to_string p in
  match L.Lower.parse_program text with
  | exception L.Lexer.Error (msg, loc) ->
    fail
      (Printf.sprintf "lex error %d:%d: %s" loc.L.Lexer.line loc.L.Lexer.col
         msg)
  | exception L.Parser.Error (msg, loc) ->
    fail
      (Printf.sprintf "parse error %d:%d: %s" loc.L.Lexer.line loc.L.Lexer.col
         msg)
  | exception L.Lower.Error msg -> fail (Printf.sprintf "lower error: %s" msg)
  | p2 ->
    let text2 = Pretty.program_to_string p2 in
    if String.equal text text2 then []
    else
      let n, a, b = first_diff_line text text2 in
      fail (Printf.sprintf "reprint differs at line %d: %S vs %S" n a b)

let interp_checksum p =
  let r = Exec.run p in
  List.fold_left
    (fun acc (_, a) -> Array.fold_left ( +. ) acc a)
    0.0 r.Exec.arrays

(* Compile and run the generated C, returning its printed checksum. *)
let run_c_checksum name csrc =
  match Lazy.force compiler with
  | None -> `No_compiler
  | Some cc ->
    let dir = Filename.get_temp_dir_name () in
    let base = Filename.concat dir ("memoria_fuzz_" ^ name) in
    let cfile = base ^ ".c" and exe = base ^ ".out" and outf = base ^ ".txt" in
    let oc = open_out cfile in
    output_string oc csrc;
    close_out oc;
    let result =
      if
        Sys.command
          (Printf.sprintf "%s -O1 -o %s %s -lm 2>/dev/null" cc exe cfile)
        <> 0
      then `Failed "C compilation failed"
      else if Sys.command (Printf.sprintf "%s > %s" exe outf) <> 0 then
        `Failed "compiled binary exited non-zero"
      else begin
        let ic = open_in outf in
        let line = input_line ic in
        close_in ic;
        match float_of_string_opt line with
        | Some c -> `Checksum c
        | None -> `Failed (Printf.sprintf "unparsable checksum output %S" line)
      end
    in
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      [ cfile; exe; outf ];
    result

let check_cgen ~which p =
  let fail detail = [ { kind = `Cgen; detail = which ^ ": " ^ detail } ] in
  match run_c_checksum (p.Program.name ^ "_" ^ which) (Pretty_c.program_to_c p)
  with
  | `No_compiler -> []
  | `Failed msg -> fail msg
  | `Checksum native ->
    let expected = interp_checksum p in
    if close native expected then []
    else
      fail
        (Printf.sprintf "native checksum %.9g, interpreter %.9g" native
           expected)

(* The closed-form analytic model against the simulator: every bracket
   it reports must contain the simulated value, and when it claims
   exactness the counts must be simulator-equal. A fallback verdict is
   not a finding — the model is allowed to refuse, never to be wrong.
   Region marking is exercised with a deterministic every-other-label
   set. *)
let check_analytic ~which p =
  let labels = alternate_labels p in
  List.concat_map
    (fun config ->
      match Analytic.estimate ~optimized_labels:labels ~config p with
      | Error _ -> []
      | Ok est ->
        let sim =
          Measure.replay_prepared ~config ~optimized_labels:labels
            (Measure.prepare ~mode:Measure.Runs ~store:None p)
        in
        let fail detail =
          {
            kind = `Analytic;
            detail =
              Printf.sprintf "%s on %s: %s" which config.Cache.name
                detail;
          }
        in
        let bracketed =
          List.filter_map
            (fun (what, v, (b : Analytic.bracket)) ->
              if Analytic.in_bracket v b then None
              else
                Some
                  (fail
                     (Printf.sprintf "simulated %s %d outside bracket [%d,%d]"
                        what v b.Analytic.lo b.Analytic.hi)))
            [
              ("accesses", sim.Measure.whole.Measure.accesses,
               est.Analytic.b_accesses);
              ("hits", sim.Measure.whole.Measure.hits, est.Analytic.b_hits);
              ("cold", sim.Measure.whole.Measure.cold, est.Analytic.b_cold);
              ("opt accesses", sim.Measure.optimized.Measure.accesses,
               est.Analytic.b_opt_accesses);
              ("opt hits", sim.Measure.optimized.Measure.hits,
               est.Analytic.b_opt_hits);
              ("opt cold", sim.Measure.optimized.Measure.cold,
               est.Analytic.b_opt_cold);
              ("ops", sim.Measure.ops, est.Analytic.b_ops);
            ]
        in
        let exact =
          if not est.Analytic.e_exact then []
          else
            List.filter_map
              (fun (what, simv, anav) ->
                if simv = anav then None
                else
                  Some
                    (fail
                       (Printf.sprintf
                          "claimed exact but %s differs: simulated %d, \
                           analytic %d"
                          what simv anav)))
              [
                ("accesses", sim.Measure.whole.Measure.accesses,
                 est.Analytic.e_whole.Analytic.c_accesses);
                ("hits", sim.Measure.whole.Measure.hits,
                 est.Analytic.e_whole.Analytic.c_hits);
                ("cold", sim.Measure.whole.Measure.cold,
                 est.Analytic.e_whole.Analytic.c_cold);
                ("opt accesses", sim.Measure.optimized.Measure.accesses,
                 est.Analytic.e_optimized.Analytic.c_accesses);
                ("opt hits", sim.Measure.optimized.Measure.hits,
                 est.Analytic.e_optimized.Analytic.c_hits);
                ("opt cold", sim.Measure.optimized.Measure.cold,
                 est.Analytic.e_optimized.Analytic.c_cold);
                ("ops", sim.Measure.ops, est.Analytic.e_ops);
              ]
        in
        bracketed @ exact)
    [ Machine.cache1; Machine.cache2 ]

(* The SHARDS sampled profiler (lib/sample) against ground truth, on
   the program's own run-compressed trace. Three claims:

   1. Exactness: at rate 1.0 with a budget the footprint never exceeds,
      the set-sampling estimator IS the simulator — estimated hits and
      cold equal the exact counts on both reference geometries.
   2. The group fast path is invisible: feeding the stream through
      [consume_runchunk] (bulk-skipping group descriptors) and feeding
      every expanded access through [access] produce structurally equal
      profiles, including under threshold adaptation (tiny budget) and
      at sub-1.0 rates.
   3. Exact tallies stay exact at any rate: [pf_accesses] matches the
      trace's logical record count. *)
let check_sample ~which p =
  let fail detail = { kind = `Sample; detail = which ^ ": " ^ detail } in
  let rb, finish = Trace.run_capturing () in
  ignore (Walk.run rb p);
  let cap = finish () in
  let labels = Trace.(cap.run_trace_labels) in
  let build ~rate ~max_tracked ~sets ~line_bytes ~grouped =
    let s = Sample.create ~rate ~max_tracked ~sets ~line_bytes () in
    (if grouped then Trace.iter_run_chunks cap (Sample.consume_runchunk s)
     else
       Trace.iter_runs cap (fun ~label ~addr ~write ->
           ignore write;
           Sample.access s ~label ~addr));
    Sample.profile s ~labels ~ops:0
  in
  let exactness =
    List.concat_map
      (fun (config : Cache.config) ->
        let sets =
          config.Cache.size_bytes / (config.Cache.line_bytes * config.Cache.assoc)
        in
        let pf =
          build ~rate:1.0 ~max_tracked:max_int ~sets
            ~line_bytes:config.Cache.line_bytes ~grouped:true
        in
        let est_hits = ref 0.0 in
        Array.iteri
          (fun i _ ->
            est_hits := !est_hits +. Sample.hits_under pf i ~ways:config.Cache.assoc)
          pf.Sample.pf_labels;
        let est_cold = Sample.cold pf in
        let sim =
          Measure.replay_prepared ~config
            (Measure.prepare ~mode:Measure.Runs ~store:None p)
        in
        let whole = sim.Measure.whole in
        List.filter_map
          (fun (what, est, exact) ->
            if Float.equal est (float_of_int exact) then None
            else
              Some
                (fail
                   (Printf.sprintf
                      "%s: rate-1.0 profile %s estimate %.1f, simulator %d"
                      config.Cache.name what est exact)))
          [
            ("hits", !est_hits, whole.Measure.hits);
            ("cold", est_cold, whole.Measure.cold);
            ("accesses", float_of_int pf.Sample.pf_accesses,
             whole.Measure.accesses);
          ])
      [ Machine.cache1; Machine.cache2 ]
  in
  let equivalence =
    List.concat_map
      (fun (rate, max_tracked, sets, line_bytes) ->
        let a = build ~rate ~max_tracked ~sets ~line_bytes ~grouped:true in
        let b = build ~rate ~max_tracked ~sets ~line_bytes ~grouped:false in
        (if a = b then []
         else
           [
             fail
               (Printf.sprintf
                  "group-fed and per-access profiles differ (rate=%g \
                   max_tracked=%d sets=%d line=%dB)"
                  rate max_tracked sets line_bytes);
           ])
        @
        if a.Sample.pf_accesses = Trace.(cap.run_records) then []
        else
          [
            fail
              (Printf.sprintf
                 "profile counted %d accesses, trace has %d"
                 a.Sample.pf_accesses
                 Trace.(cap.run_records));
          ])
      [ (1.0, 64, 128, 32); (0.25, 65536, 128, 32); (0.25, 64, 1, 64) ]
  in
  exactness @ equivalence

let check ?(oracles = all) p =
  let want k = List.mem k oracles in
  match transform p with
  | Error msg -> [ { kind = `Exec; detail = "compound transform failed: " ^ msg } ]
  | Ok pt ->
    let versions = [ ("original", p); ("transformed", pt) ] in
    let on_both f =
      List.concat_map (fun (which, v) -> f ~which v) versions
    in
    (if want `Exec then check_exec p pt else [])
    @ (if want `Replay then on_both check_replay else [])
    @ (if want `Roundtrip then on_both check_roundtrip else [])
    @ (if want `Cgen && cgen_available () then on_both check_cgen else [])
    @ (if want `Analytic then on_both check_analytic else [])
    @ if want `Sample then on_both check_sample else []
