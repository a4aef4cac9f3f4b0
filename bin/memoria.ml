(* memoria — the source-to-source data-locality optimizer.

   Reads a kernel in the Fortran-77-style mini-language (or a built-in
   kernel), analyses its loop nests with the cache-line cost model, and
   applies the compound transformation algorithm (permutation, fusion,
   distribution, reversal). *)

open Cmdliner
module Core = Locality_core
module Suite = Locality_suite
module Interp = Locality_interp
module Machine = Locality_cachesim.Machine
module Stats = Locality_stats
module Obs = Locality_obs.Obs
module Chrome = Locality_obs.Chrome
module Summary = Locality_obs.Summary
module Openmetrics = Locality_obs.Openmetrics
module Flame = Locality_obs.Flame
module Driver = Locality_driver.Driver
module Request = Locality_driver.Request
module Settings = Locality_driver.Settings
module Response = Locality_driver.Response
module Serve = Locality_serve.Serve
module Store = Locality_store.Store
open Locality_ir

(* All loading and measuring goes through the Driver pipeline; the
   subcommands only parse flags and format output. The MEMORIA_*
   environment variables are read here, once, and passed down. *)
let settings = Settings.of_env (Settings.environment (Unix.environment ()))

let source_of ~kernel ~file =
  match (kernel, file) with
  | Some name, _ -> Ok (Driver.Source_kernel name)
  | None, Some path -> Ok (Driver.Source_file path)
  | None, None -> Error "give a FILE or --kernel NAME"

let load ~kernel ~file ~n =
  match source_of ~kernel ~file with
  | Error msg -> Error msg
  | Ok src -> Result.map snd (Driver.load ?n src)

(* ------------------------------------------------------- arguments --- *)

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Kernel source file.")

let kernel_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "kernel"; "k" ] ~docv:"NAME" ~doc:"Use a built-in kernel instead of a file.")

let cls_arg =
  Arg.(
    value & opt int 4
    & info [ "cls" ] ~docv:"ELEMS" ~doc:"Cache line size in array elements.")

let n_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n" ] ~docv:"N" ~doc:"Override the size parameter(s).")

let cache_arg =
  Arg.(
    value
    & opt (enum [ ("cache1", Machine.cache1); ("cache2", Machine.cache2) ])
        Machine.cache2
    & info [ "cache" ] ~docv:"CACHE"
        ~doc:"Cache geometry: cache1 (RS/6000) or cache2 (i860).")

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("memoria: " ^ msg);
    exit 1

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the pipeline (parse, dependence analysis, compound \
           transformation, replay) and write a Chrome \
           trace-event JSON file; open it in chrome://tracing or \
           Perfetto.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print a phase-timing and counter table to stderr after the run \
           (stdout stays byte-identical).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Export aggregated metrics (counters, gauges, histograms, \
           per-span totals) to FILE: OpenMetrics text, or JSON when FILE \
           ends in .json. Naming is documented in doc/SCHEMA.md.")

let flame_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flame" ] ~docv:"FILE"
        ~doc:
          "Write span self times as collapsed stacks (flamegraph.pl / \
           speedscope input) to FILE.")

(* [conv] restricted to the values [ok] accepts; [want] names them. *)
let within conv ok want =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg ("want " ^ want))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive = within Arg.int (fun v -> v >= 1) "a positive integer"

let scale_arg default =
  Arg.(
    value & opt positive default
    & info [ "scale" ] ~docv:"K"
        ~doc:
          "Geometry multiplier: run with an effective size of K times the \
           base (the $(b,-n) value, or 64 when absent; 32 for $(b,bench)'s \
           $(b,scale) experiment). Large factors are where the \
           $(b,sample) replay mode pays off; the layout \
           stage rejects factors whose arrays would overflow the traceable \
           address space.")

let rate_arg =
  Arg.(
    value
    & opt
        (some (within float (fun r -> r > 0.0 && r <= 1.0) "a rate in (0, 1]"))
        None
    & info [ "rate" ] ~docv:"R"
        ~doc:
          "Sampling rate in (0, 1] for $(b,MEMORIA_REPLAY=sample): the \
           fraction of cache lines the SHARDS profiler tracks (default: \
           $(b,MEMORIA_SAMPLE_RATE) or 0.01). Ignored by the exact modes.")

(* The domain-pool width of every command that fans out, resolved once
   against the environment's. *)
let jobs_arg =
  Term.(
    const (Option.value ~default:settings.Settings.jobs)
    $ Arg.(
        value
        & opt (some positive) None
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:
              "Domain-pool size (default: $(b,MEMORIA_JOBS), else min(8, \
               cores); 1 = sequential). Output is identical at any value."))

(* Tracing harness for the commands that take
   [--trace]/[--profile]/[--metrics]/[--flame]: enable recording around
   [f], then export. Everything lands in files or on stderr so stdout
   is unchanged by any of the flags. *)
let with_obs ~trace ~profile ~metrics ~flame f =
  if trace = None && (not profile) && metrics = None && flame = None then f ()
  else begin
    Obs.set_enabled true;
    Obs.reset ();
    let finish () =
      (* Derived gauges are emitted here, while recording is still on,
         so every exporter sees them. The store counters come from the
         process-global atomics: bench's stderr summary runs after this
         drain, too late to observe. *)
      (let c = Store.counters () in
       let lookups = c.Store.hits + c.Store.misses in
       if lookups > 0 then
         Obs.gauge "store.hit_rate"
           (float_of_int c.Store.hits /. float_of_int lookups));
      let events = Obs.drain () in
      Obs.set_enabled false;
      let summary = lazy (Summary.of_events events) in
      Option.iter (fun path -> Chrome.write ~path events) trace;
      Option.iter
        (fun path -> Openmetrics.write ~path (Lazy.force summary))
        metrics;
      Option.iter (fun path -> Flame.write ~path events) flame;
      if profile then prerr_string (Stats.Profile.render (Lazy.force summary))
    in
    Fun.protect ~finally:finish f
  end

(* -------------------------------------------------------- commands --- *)

let opt_cmd =
  let run file kernel cls n check interference_limit =
    let p = or_die (load ~kernel ~file ~n) in
    let p', stats = Core.Compound.run_program ?interference_limit ~cls p in
    print_endline (Pretty.program_to_string p');
    Printf.eprintf "; %d nests: %d already optimal, %d permuted, %d failed\n"
      (List.length stats.Core.Compound.nests)
      (List.length
         (List.filter
            (fun (s : Core.Compound.nest_stat) ->
              s.Core.Compound.orig_mem_order && s.Core.Compound.orig_inner_ok)
            stats.Core.Compound.nests))
      (List.length
         (List.filter
            (fun (s : Core.Compound.nest_stat) ->
              s.Core.Compound.permuted || s.Core.Compound.fused_enabling
              || s.Core.Compound.distributed)
            stats.Core.Compound.nests))
      (List.length
         (List.filter
            (fun (s : Core.Compound.nest_stat) ->
              not s.Core.Compound.final_inner_ok)
            stats.Core.Compound.nests));
    Printf.eprintf "; fusion: %d applied of %d candidates; distribution: %d\n"
      stats.Core.Compound.fusions_applied stats.Core.Compound.fusion_candidates
      stats.Core.Compound.distributions;
    if check then
      if Interp.Exec.equivalent ~tol:1e-6 p p' then
        prerr_endline "; semantics check: OK"
      else begin
        prerr_endline "; semantics check: FAILED";
        exit 2
      end
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Interpret original and transformed programs and compare results.")
  in
  let interference_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "interference-limit" ] ~docv:"ARRAYS"
          ~doc:
            "Reject cross-nest fusions whose merged body touches more than \
             this many arrays (the correction the paper sketches in \
             section 5.5 for fusion-induced cache conflicts).")
  in
  Cmd.v
    (Cmd.info "opt" ~doc:"Optimize a program for data locality and print it.")
    Term.(
      const run $ file_arg $ kernel_arg $ cls_arg $ n_arg $ check_arg
      $ interference_arg)

let cost_cmd =
  let run file kernel cls n =
    let p = or_die (load ~kernel ~file ~n) in
    List.iteri
      (fun i nest ->
        Format.printf "nest %d:@." (i + 1);
        Format.printf "%a@." Core.Memorder.pp (Core.Memorder.compute ~cls nest))
      (Program.top_loops p)
  in
  Cmd.v
    (Cmd.info "cost" ~doc:"Print LoopCost and memory order for each nest.")
    Term.(const run $ file_arg $ kernel_arg $ cls_arg $ n_arg)

let deps_cmd =
  let run file kernel n dot =
    let p = or_die (load ~kernel ~file ~n) in
    List.iteri
      (fun i nest ->
        let deps = Locality_dep.Analysis.deps_in_nest nest in
        if dot then begin
          let g =
            Locality_dep.Graph.build ~nodes:(Loop.labels nest.Loop.body) ~deps
          in
          print_string
            (Locality_dep.Graph.to_dot ~name:(Printf.sprintf "nest%d" (i + 1)) g)
        end
        else List.iter (fun d -> Format.printf "%a@." Locality_dep.Depend.pp d) deps)
      (Program.top_loops p)
  in
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Emit the statement dependence graph as Graphviz.")
  in
  Cmd.v
    (Cmd.info "deps" ~doc:"Print the data dependences of each nest.")
    Term.(const run $ file_arg $ kernel_arg $ n_arg $ dot_arg)

let tile_cmd =
  let run file kernel cls n band size auto cache =
    let p = or_die (load ~kernel ~file ~n) in
    match Program.top_loops p with
    | [ nest ] -> (
      let band =
        match band with
        | Some b -> String.split_on_char ',' b
        | None -> Core.Tiling.recommend ~cls nest
      in
      if band = [] then begin
        prerr_endline "memoria: no band given and nothing to recommend";
        exit 1
      end;
      let size =
        if not auto then size
        else begin
          (* Column-major: the self-interference stride is the leading
             dimension; take the largest one among the declared arrays. *)
          let param name =
            match List.assoc_opt name p.Program.params with
            | Some v -> v
            | None -> failwith name
          in
          let stride =
            List.fold_left
              (fun acc (d : Decl.t) ->
                match d.Decl.extents with
                | first :: _ :: _ -> (
                  match Expr.eval first param with
                  | v -> max acc v
                  | exception _ -> acc)
                | _ -> acc)
              0 p.Program.decls
          in
          if stride <= 0 then begin
            prerr_endline
              "memoria: --auto needs a 2-D array with a computable leading \
               dimension";
            exit 1
          end;
          let v =
            Locality_cachesim.Tilesize.choose cache ~elem_size:8 ~stride
          in
          Printf.eprintf
            "; auto tile size %d for stride %d on %s (footprint %d lines%s)\n"
            v.Locality_cachesim.Tilesize.tile stride
            cache.Locality_cachesim.Cache.name
            v.Locality_cachesim.Tilesize.footprint_lines
            (if v.Locality_cachesim.Tilesize.conflict_free then ""
             else ", conflicts");
          v.Locality_cachesim.Tilesize.tile
        end
      in
      Printf.eprintf "; tiling band {%s}, size %d\n"
        (String.concat ", " band)
        size;
      match Core.Tiling.tile ~sizes:size nest ~band with
      | None ->
        prerr_endline
          "memoria: band is not tileable (not contiguous, not fully \
           permutable, or bounds too complex)";
        exit 1
      | Some tiled ->
        let p' = Program.map_body (fun _ -> [ Loop.Loop tiled ]) p in
        print_endline (Pretty.program_to_string p'))
    | _ ->
      prerr_endline "memoria: tile expects a program with a single nest";
      exit 1
  in
  let band_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "band" ] ~docv:"L1,L2"
          ~doc:"Comma-separated loops to tile (default: recommendation).")
  in
  let size_arg =
    Arg.(value & opt int 16 & info [ "size" ] ~docv:"T" ~doc:"Tile size.")
  in
  let auto_arg =
    Arg.(
      value & flag
      & info [ "auto" ]
          ~doc:
            "Choose the tile size automatically (largest self-interference-free \
             tile for $(b,--cache), LRW91-style), overriding $(b,--size).")
  in
  Cmd.v
    (Cmd.info "tile" ~doc:"Tile a nest (Section 6) and print the result.")
    Term.(
      const run $ file_arg $ kernel_arg $ cls_arg $ n_arg $ band_arg $ size_arg
      $ auto_arg $ cache_arg)

let cgen_cmd =
  let run file kernel cls n opt driver =
    let p = or_die (load ~kernel ~file ~n) in
    let p = if opt then fst (Core.Compound.run_program ~cls p) else p in
    print_string (Pretty_c.program_to_c ~driver p)
  in
  let opt_flag =
    Arg.(
      value & flag
      & info [ "opt" ] ~doc:"Run the compound optimizer before emitting C.")
  in
  let driver_flag =
    Arg.(
      value & opt bool true
      & info [ "driver" ] ~docv:"BOOL"
          ~doc:"Include a main() that initialises arrays and prints a checksum.")
  in
  Cmd.v
    (Cmd.info "cgen"
       ~doc:"Emit the program as a self-contained C translation unit.")
    Term.(const run $ file_arg $ kernel_arg $ cls_arg $ n_arg $ opt_flag $ driver_flag)

(* One Request document in, one Response line out — the serve wire
   format on the CLI, which is what CI byte-diffs daemon replies
   against. The serve-side deadline (timeout_ms) is inert here; a
   protocol-level failure still prints its envelope before exiting
   non-zero so the bytes match the daemon's. *)
let run_request_file path =
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let resp =
    match Request.of_json text with
    | Error message -> Response.Failed { id = ""; message }
    | Ok req -> (
      match Request.to_config ~settings req with
      | Error message -> Response.Failed { id = req.Request.id; message }
      | Ok cfg ->
        Serve.reply ~id:req.Request.id ~emit_program:req.Request.emit_program
          (Serve.answer ~jobs:settings.Settings.jobs req.Request.tune cfg))
  in
  print_endline (Response.to_json resp);
  match resp with Response.Failed _ -> exit 1 | _ -> ()

let sim_cmd =
  let run file kernel cls n scale rate cache request trace profile metrics
      flame =
    match request with
    | Some path ->
      with_obs ~trace ~profile ~metrics ~flame (fun () ->
          run_request_file path)
    | None ->
      with_obs ~trace ~profile ~metrics ~flame (fun () ->
          let source =
            match (kernel, file) with
            | Some name, _ -> Request.Kernel name
            | None, Some path -> Request.File path
            | None, None -> or_die (Error "give a FILE or --kernel NAME")
          in
          let req =
            Request.make ?n ~scale ~cls
              ~machines:[ Request.machine_of_config cache ]
              ?sample_rate:rate source
          in
          let r =
            or_die (Driver.run (or_die (Request.to_config ~settings req)))
          in
          let m = List.hd r.Driver.measured in
          let before = m.Driver.original_run
          and after = m.Driver.transformed_run in
          Printf.printf "cache: %s\n" cache.Locality_cachesim.Cache.name;
          Printf.printf "original:    %8.4f modelled s, %6s%% hits\n"
            before.Interp.Measure.seconds
            (Stats.Report.fmt_pct
               (Interp.Measure.hit_rate before.Interp.Measure.whole));
          Printf.printf "transformed: %8.4f modelled s, %6s%% hits\n"
            after.Interp.Measure.seconds
            (Stats.Report.fmt_pct
               (Interp.Measure.hit_rate after.Interp.Measure.whole));
          Printf.printf "speedup: %.2fx\n" m.Driver.speedup)
  in
  let request_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "request" ] ~docv:"FILE"
          ~doc:
            "Run one serve-protocol request document (doc/PROTOCOL.md) and \
             print the response line — exactly what $(b,memoria serve) \
             would say for the same body. Other input flags are ignored.")
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Simulate cache behaviour of the original and optimized program.")
    Term.(
      const run $ file_arg $ kernel_arg $ cls_arg $ n_arg $ scale_arg 1
      $ rate_arg $ cache_arg $ request_arg $ trace_arg $ profile_arg
      $ metrics_arg $ flame_arg)

let tune_cmd =
  let run file kernel cls n scale cache jobs json quick top_k tiles unrolls
      max_candidates trace profile metrics flame =
    with_obs ~trace ~profile ~metrics ~flame (fun () ->
        let source =
          match (kernel, file) with
          | Some name, _ -> Request.Kernel name
          | None, Some path -> Request.File path
          | None, None -> or_die (Error "give a FILE or --kernel NAME")
        in
        (* Through the typed request, like sim: the tune object below is
           exactly what a serve client would send for this search. *)
        let tune =
          {
            Request.t_top_k = top_k;
            t_tiles = tiles;
            t_unrolls = unrolls;
            t_max_candidates = max_candidates;
          }
        in
        let req =
          Request.make ?n ~scale ~cls
            ~machines:[ Request.machine_of_config cache ]
            ~tune source
        in
        let spec =
          if quick then Stats.Tune.quick_spec
          else Stats.Tune.spec_of_request tune
        in
        let t =
          or_die
            (Stats.Tune.run_config ~spec ~jobs
               (or_die (Request.to_config ~settings req)))
        in
        if json then print_string (Stats.Tune.to_json t)
        else print_string (Stats.Tune.render t))
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the tuning report as JSON instead of text.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Use the cheap search profile (one tile size, one unroll \
             factor, one finalist) — the smoke-test band. Overrides the \
             space flags below.")
  in
  let top_k_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "top-k" ] ~docv:"K"
          ~doc:
            "Analytic finalists confirmed with the exact simulator \
             (default 5).")
  in
  let tiles_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "tiles" ] ~docv:"T,T,..."
          ~doc:"Tile-size band to search (default 8,16,32,64).")
  in
  let unrolls_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "unrolls" ] ~docv:"U,U,..."
          ~doc:"Unroll-and-jam factors to search (default 2,4,8).")
  in
  let max_candidates_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-candidates" ] ~docv:"N"
          ~doc:
            "Enumeration cap; candidates beyond it are dropped and counted \
             in the report (default 4096).")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the transformation space — structure (as-is, fused, \
          distributed) x loop permutation x tile size x unroll-and-jam \
          factor — for the candidate with the lowest simulated miss rate. \
          Every legal candidate is screened with the analytic model, the \
          top K finalists are confirmed with the exact simulator, and every \
          score is memoized in the store (kinds $(b,analytic) and \
          $(b,run)), so re-tuning and overlapping searches are warm. \
          Deterministic at any job count.")
    Term.(
      const run $ file_arg $ kernel_arg $ cls_arg $ n_arg $ scale_arg 1
      $ cache_arg $ jobs_arg $ json_arg $ quick_arg $ top_k_arg $ tiles_arg
      $ unrolls_arg $ max_candidates_arg $ trace_arg $ profile_arg
      $ metrics_arg $ flame_arg)

let explain_cmd =
  let run file kernel cls n json interference_limit compare cache metrics =
    with_obs ~trace:None ~profile:false ~metrics ~flame:None (fun () ->
        let src = or_die (source_of ~kernel ~file) in
        let name, p = or_die (Driver.load ?n src) in
        if compare then begin
          let c =
            Stats.Compare.run ~config:cache ~store:settings.Settings.store
              ~name p
          in
          (* Mean absolute error of the analytic model vs the simulator
             (percentage points, per-unit mean), exported with the
             other gauges under --metrics. *)
          (if Obs.enabled () then
             match c.Stats.Compare.c_verdict with
             | `Compared (rows, whole) ->
               let mean =
                 match rows with
                 | [] -> whole.Stats.Compare.r_abs_err
                 | rows ->
                   List.fold_left
                     (fun acc r -> acc +. r.Stats.Compare.r_abs_err)
                     0.0 rows
                   /. float_of_int (List.length rows)
               in
               Obs.gauge "analytic.abs_err_mean" mean;
               Obs.gauge "analytic.abs_err_whole"
                 whole.Stats.Compare.r_abs_err
             | `Fallback _ -> ());
          if json then print_string (Stats.Compare.to_json c)
          else print_string (Stats.Compare.render c)
        end
        else begin
          let ex = Stats.Explain.run ~cls ?interference_limit ~name p in
          if json then print_string (Stats.Explain.to_json ex)
          else print_string (Stats.Explain.render ex)
        end)
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the decision log as JSON instead of text.")
  in
  let interference_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "interference-limit" ] ~docv:"ARRAYS"
          ~doc:"Forwarded to the cross-nest fusion pass, as in $(b,opt).")
  in
  let compare_arg =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Instead of the optimizer's decision log, print the closed-form \
             analytic locality model next to the trace-replay simulator: \
             per-nest miss rates from both, with the absolute error and the \
             formula the model used. Honours $(b,--json) and $(b,--cache).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run the compound optimizer and report, per nest, what it did and \
          why: the chosen action, the LoopCost evidence, and the legality \
          and profitability notes of every candidate it weighed. With \
          $(b,--compare), validate the analytic locality model against the \
          simulator instead.")
    Term.(
      const run $ file_arg $ kernel_arg $ cls_arg $ n_arg $ json_arg
      $ interference_arg $ compare_arg $ cache_arg $ metrics_arg)

let unroll_cmd =
  let run file kernel n loop factor replace =
    let p = or_die (load ~kernel ~file ~n) in
    match Program.top_loops p with
    | [ nest ] -> (
      let loop =
        match loop with
        | Some l -> l
        | None -> (
          (* default: the outermost loop *)
          match Loop.loops_on_spine nest with
          | h :: _ -> h.Loop.index
          | [] ->
            prerr_endline "memoria: nest has no loops";
            exit 1)
      in
      let factor =
        match factor with
        | Some f -> f
        | None ->
          let best, options = Core.Unroll.choose_factor nest ~loop in
          List.iter
            (fun (b : Core.Unroll.balance) ->
              Printf.eprintf
                "; u=%d: %d regs, %.3f mem/iter, %.1f flops/iter\n"
                b.Core.Unroll.factor b.Core.Unroll.scalars
                b.Core.Unroll.mem_per_orig_iter b.Core.Unroll.flops_per_orig_iter)
            options;
          Printf.eprintf "; balance-chosen factor: %d\n" best.Core.Unroll.factor;
          best.Core.Unroll.factor
      in
      if factor < 2 then begin
        print_endline (Pretty.program_to_string p);
        exit 0
      end;
      match Core.Unroll.unroll_and_jam nest ~loop ~factor with
      | None ->
        prerr_endline
          "memoria: unroll-and-jam refused (imperfect nest, innermost loop, \
           dependent bounds, or jamming illegal)";
        exit 1
      | Some block ->
        let block =
          if not replace then block
          else begin
            let replaced = ref 0 in
            let block' =
              Core.Unroll.map_main block ~loop ~factor ~f:(fun main ->
                  let sr = Core.Scalar_replacement.apply main in
                  replaced := sr.Core.Scalar_replacement.replaced;
                  sr.Core.Scalar_replacement.nest)
            in
            Printf.eprintf "; scalar replacement: %d references\n" !replaced;
            Option.value ~default:block block'
          end
        in
        let p' = Program.map_body (fun _ -> block) p in
        print_endline (Pretty.program_to_string p'))
    | _ ->
      prerr_endline "memoria: unroll expects a program with a single nest";
      exit 1
  in
  let loop_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "loop" ] ~docv:"INDEX"
          ~doc:"Loop to unroll and jam (default: the outermost).")
  in
  let factor_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "factor" ] ~docv:"U"
          ~doc:
            "Unroll factor; omitted, the CCK90-style balance model chooses \
             among 2, 4 and 8 under a 16-register budget.")
  in
  let replace_arg =
    Arg.(
      value & flag
      & info [ "replace" ]
          ~doc:"Scalar-replace the jammed main nest (registers).")
  in
  Cmd.v
    (Cmd.info "unroll"
       ~doc:"Unroll-and-jam a nest (the paper's step 3) and print the result.")
    Term.(
      const run $ file_arg $ kernel_arg $ n_arg $ loop_arg $ factor_arg
      $ replace_arg)

let kernels_cmd =
  let run () =
    List.iter (fun (name, _) -> print_endline name) Suite.Kernels.all
  in
  Cmd.v
    (Cmd.info "kernels" ~doc:"List built-in kernels usable with --kernel.")
    Term.(const run $ const ())

let suite_cmd =
  let run cls n scale rate jobs trace profile metrics flame =
    let n = Option.value n ~default:64 in
    let module Pool = Locality_par.Pool in
    let rows =
      with_obs ~trace ~profile ~metrics ~flame (fun () ->
          Pool.map ~jobs
            (fun (name, _) ->
              Obs.span ("kernel:" ^ name) (fun () ->
                  let req =
                    Request.make ~n ~scale ~cls
                      ~machines:[ Request.Named "cache1"; Request.Named "cache2" ]
                      ?sample_rate:rate (Request.Kernel name)
                  in
                  (* Driver.run's errors already carry the kernel name
                     ("<name>: <detail>"); rows forward them verbatim. *)
                  match
                    Result.bind (Request.to_config ~settings req) Driver.run
                  with
                  | Error msg -> Error msg
                  | Ok { Driver.measured = [ m1; m2 ]; _ } ->
                    Ok
                      (Printf.sprintf "%-16s %10.4f %10.4f %9.2fx %9.2fx" name
                         m1.Driver.original_run.Interp.Measure.seconds
                         m1.Driver.transformed_run.Interp.Measure.seconds
                         m1.Driver.speedup m2.Driver.speedup)
                  | Ok _ -> Error (name ^ ": unexpected measurement shape")))
            Suite.Kernels.all)
    in
    Printf.printf "; n=%d cls=%d jobs=%d (each kernel interpreted once per \
                   version, traces replayed on both caches)\n"
      n cls jobs;
    Printf.printf "%-16s %10s %10s %10s %10s\n" "kernel" "orig(s)" "opt(s)"
      "speedup1" "speedup2";
    List.iter (function Ok line -> print_endline line | Error _ -> ()) rows;
    let failures =
      List.filter_map (function Ok _ -> None | Error msg -> Some msg) rows
    in
    if failures <> [] then begin
      List.iter (fun msg -> Printf.eprintf "memoria: %s\n" msg) failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Optimize and simulate every built-in kernel in parallel, printing \
          modelled speedups on both cache geometries.")
    Term.(
      const run $ cls_arg $ n_arg $ scale_arg 1 $ rate_arg $ jobs_arg
      $ trace_arg $ profile_arg $ metrics_arg $ flame_arg)

let store_cmd =
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Store directory (default: $(b,MEMORIA_STORE)).")
  in
  let get_store dir =
    match dir with
    | Some d -> Store.open_root d
    | None -> (
      match settings.Settings.store with
      | Some s -> s
      | None ->
        prerr_endline "memoria: no store (give --dir or set MEMORIA_STORE)";
        exit 1)
  in
  (* Raw byte counts stay (scripts parse them); the human-readable form
     rides alongside in parentheses. *)
  let human_bytes n =
    if n >= 1 lsl 20 then
      Printf.sprintf "%.1f MiB" (float_of_int n /. 1048576.0)
    else if n >= 1024 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.0)
    else Printf.sprintf "%d B" n
  in
  let with_store_obs ~metrics f =
    with_obs ~trace:None ~profile:false ~metrics ~flame:None f
  in
  let stats_cmd =
    let run dir metrics =
      with_store_obs ~metrics (fun () ->
          let s = get_store dir in
          let d = Store.disk_stats s in
          Printf.printf "root: %s\n" (Store.root s);
          Printf.printf "entries: %d\n" d.Store.entries;
          Printf.printf "bytes: %d (%s)\n" d.Store.bytes
            (human_bytes d.Store.bytes);
          Printf.printf "quarantined: %d\n" d.Store.quarantined)
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Print entry count, total size and quarantine size.")
      Term.(const run $ dir_arg $ metrics_arg)
  in
  let verify_cmd =
    let run dir metrics =
      with_store_obs ~metrics (fun () ->
          let s = get_store dir in
          let ok, bad = Store.verify s in
          Printf.printf "ok: %d\nquarantined: %d\n" ok bad;
          if bad > 0 then exit 1)
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Checksum every entry, quarantining damaged ones; exits non-zero \
            if any entry failed.")
      Term.(const run $ dir_arg $ metrics_arg)
  in
  let gc_cmd =
    let max_bytes_arg =
      Arg.(
        required
        & opt (some int) None
        & info [ "max-bytes" ] ~docv:"BYTES"
            ~doc:"Target store size; least-recently-used entries go first.")
    in
    let min_age_arg =
      Arg.(
        value & opt float 0.
        & info [ "min-age" ] ~docv:"SECONDS"
            ~doc:
              "Never evict entries younger than this many seconds, even when \
               the store stays over $(b,--max-bytes) — protects objects a \
               concurrent run (e.g. a serve worker) just published.")
    in
    let run dir max_bytes min_age metrics =
      with_store_obs ~metrics (fun () ->
          let s = get_store dir in
          let deleted, remaining = Store.gc ~min_age_s:min_age s ~max_bytes in
          Printf.printf "deleted: %d\nbytes: %d (%s)\n" deleted remaining
            (human_bytes remaining))
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Empty the quarantine and evict least-recently-used entries until \
            the store fits in $(b,--max-bytes); $(b,--min-age) exempts the \
            newest entries.")
      Term.(const run $ dir_arg $ max_bytes_arg $ min_age_arg $ metrics_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect and maintain the content-addressed experiment store \
          ($(b,MEMORIA_STORE)): cached simulation results and optimizer \
          output keyed by program text, transform configuration and cache \
          geometry.")
    [ stats_cmd; verify_cmd; gc_cmd ]

let serve_cmd =
  let run socket stdio jobs max_queue timeout_ms max_conns write_timeout trace
      profile metrics flame =
    let listen =
      match (socket, stdio) with
      | Some path, false -> Serve.Socket path
      | None, true -> Serve.Stdio
      | Some _, true -> or_die (Error "give --socket PATH or --stdio, not both")
      | None, false -> or_die (Error "give --socket PATH or --stdio")
    in
    let options =
      {
        Serve.jobs = Some jobs;
        max_queue;
        default_timeout_ms = timeout_ms;
        max_conns;
        write_timeout_s = write_timeout;
      }
    in
    with_obs ~trace ~profile ~metrics ~flame (fun () ->
        let t = Serve.create ~options ~settings listen in
        Serve.install_signal_handlers t;
        Serve.run t)
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at PATH (created; unlinked on \
                exit).")
  in
  let stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve stdin to stdout instead of a socket; EOF drains and \
                exits.")
  in
  let max_queue_arg =
    Arg.(
      value
      & opt int Serve.default_options.Serve.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "In-flight request bound; beyond it clients get an immediate \
             $(b,overloaded) response with a retry hint.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt int Serve.default_options.Serve.default_timeout_ms
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline for requests that carry none; 0 \
             means unbounded. Expired requests get a typed $(b,timeout) \
             response.")
  in
  let max_conns_arg =
    Arg.(
      value
      & opt int Serve.default_options.Serve.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Open-connection cap (kept below $(b,select)'s FD_SETSIZE); an \
             accept beyond it is answered $(b,overloaded) and closed.")
  in
  let write_timeout_arg =
    Arg.(
      value
      & opt float Serve.default_options.Serve.write_timeout_s
      & info [ "write-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Write-stall budget per response line: a client that stops \
             reading for this long has its replies dropped instead of \
             blocking a worker.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis daemon: accept line-delimited request documents \
          (doc/PROTOCOL.md) over a Unix-domain socket or stdio, dispatch \
          them across a persistent worker-domain pool sharing the warm \
          $(b,MEMORIA_STORE), and answer each with one typed response line. \
          Identical in-flight requests are computed once; deadlines, queue \
          bounds and shutdown drain all answer with typed responses. \
          SIGINT/SIGTERM drain gracefully. The daemon never collects its \
          store; run $(b,memoria store gc --min-age) beside it.")
    Term.(
      const run $ socket_arg $ stdio_arg $ jobs_arg $ max_queue_arg
      $ timeout_arg $ max_conns_arg $ write_timeout_arg $ trace_arg
      $ profile_arg $ metrics_arg $ flame_arg)

let fuzz_cmd =
  let module Fuzz = Locality_fuzz in
  let run seed count max_size oracles corpus jobs trace profile metrics flame =
    let oracles =
      match oracles with
      | [] -> Fuzz.Oracle.all
      | names -> List.map (fun s -> or_die (Fuzz.Oracle.kind_of_string s)) names
    in
    let outcome =
      with_obs ~trace ~profile ~metrics ~flame (fun () ->
          Obs.span "fuzz" (fun () ->
              Fuzz.Harness.run ~jobs ?corpus_dir:corpus ~seed ~count ~max_size
                ~oracles ()))
    in
    Printf.printf "fuzz: seed=%d count=%d max-size=%d oracles=%s\n" seed count
      max_size
      (String.concat "," (List.map Fuzz.Oracle.kind_to_string oracles));
    (match outcome.Fuzz.Harness.failures with
    | [] -> Printf.printf "generated %d programs: no oracle failures\n" count
    | failures ->
      Printf.printf "generated %d programs: %d with oracle failures\n" count
        (List.length failures);
      List.iter
        (fun (f : Fuzz.Harness.failure) ->
          Printf.printf "\n--- index %d (%d shrink steps) ---\n" f.index
            f.shrink_steps;
          List.iter
            (fun (fd : Fuzz.Oracle.finding) ->
              Printf.printf "  [%s] %s\n"
                (Fuzz.Oracle.kind_to_string fd.Fuzz.Oracle.kind)
                fd.Fuzz.Oracle.detail)
            f.findings;
          print_endline (Pretty.program_to_string f.shrunk))
        failures);
    List.iter
      (fun path -> Printf.printf "reproducer written: %s\n" path)
      outcome.Fuzz.Harness.corpus_files;
    if outcome.Fuzz.Harness.failures <> [] then exit 1
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"Master seed of the campaign.")
  in
  let count_arg =
    Arg.(
      value & opt int 500
      & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let max_size_arg =
    Arg.(
      value & opt int 24
      & info [ "max-size" ] ~docv:"N"
          ~doc:"Size budget per program (loops plus statements).")
  in
  let oracle_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "oracle" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated oracles to run: $(b,exec) (transform \
             semantics under the interpreter), $(b,replay) (runs \
             replay vs the reference simulator), $(b,roundtrip) \
             (pretty-print/reparse), \
             $(b,cgen) (native C checksum), $(b,analytic) (closed-form \
             locality model vs the simulator), $(b,sample) (SHARDS \
             sampled profile vs exact reuse analysis). Default: all.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Write shrunk reproducers for any failure into DIR.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the pipeline: generate random loop nests and \
          check transform semantics, trace replay, the frontend round trip \
          and the native backend against each other; shrink and report any \
          disagreement.")
    Term.(
      const run $ seed_arg $ count_arg $ max_size_arg $ oracle_arg
      $ corpus_arg $ jobs_arg $ trace_arg $ profile_arg $ metrics_arg
      $ flame_arg)

let bench_cmd =
  let run names jobs scale rate trace profile metrics flame =
    let settings =
      {
        settings with
        Settings.jobs;
        sample_rate = Option.value rate ~default:settings.Settings.sample_rate;
      }
    in
    let rows = lazy (Stats.Table2.compute ~settings ()) in
    let registry = Experiments.registry ~settings ~scale in
    let experiment name =
      match List.assoc_opt name registry with
      | Some f -> (name, f)
      | None ->
        or_die
          (Error
             (Printf.sprintf "unknown experiment %s (known: %s)" name
                (String.concat " " (List.map fst registry))))
    in
    let go =
      match names with
      | [ "csv"; dir ] ->
        fun () ->
          Stats.Csv.write_all ~settings ~dir (Lazy.force rows);
          Printf.printf "wrote table2.csv, table3.csv, table4.csv to %s\n" dir
      | [] | [ "all" ] ->
        fun () ->
          Experiments.run ~jobs ~rows registry;
          Printf.printf
            "\n(run `dune exec bench/main.exe` for native wall-clock \
             benchmarks)\n"
      | names ->
        let selected = List.map experiment names in
        fun () -> Experiments.run ~jobs ~rows selected
    in
    (* With a store, say how it did: a stderr line CI parses for the warm
       run's hit rate. *)
    let summary () =
      if settings.Settings.store <> None then begin
        let c = Store.counters () in
        let looked_up = c.Store.hits + c.Store.misses in
        let rate =
          if looked_up = 0 then 0.0
          else 100.0 *. float_of_int c.Store.hits /. float_of_int looked_up
        in
        Printf.eprintf "store: %d hits %d misses %d writes (%.1f%% hit rate)\n%!"
          c.Store.hits c.Store.misses c.Store.writes rate
      end
    in
    Fun.protect ~finally:summary (fun () ->
        with_obs ~trace ~profile ~metrics ~flame go)
  in
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Experiments to run, printed in the order given: $(b,fig2) \
             $(b,fig3) $(b,fig7) $(b,table1)-$(b,table5) $(b,fig8) $(b,fig9), \
             the $(b,ablation-)* studies, $(b,tracestats), $(b,alloc), \
             $(b,analytic), $(b,scale), $(b,sampleerr). None (or $(b,all)) \
             runs every one; $(b,csv) DIR exports tables 2-4 as CSV instead.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the paper's evaluation on the simulated caches: tables, \
          figures, ablations and the trace, allocation and analytic-model \
          probes (DESIGN.md's experiment index). Independent experiments run \
          on the domain pool; stdout is identical at any $(b,-j).")
    Term.(
      const run $ names_arg $ jobs_arg $ scale_arg 4 $ rate_arg $ trace_arg
      $ profile_arg $ metrics_arg $ flame_arg)

let main =
  Cmd.group
    (Cmd.info "memoria" ~version:"1.0.0"
       ~doc:
         "Compiler optimizations for improving data locality (Carr, \
          McKinley & Tseng, ASPLOS 1994)."
       ~envs:
         [
           Cmd.Env.info "MEMORIA_JOBS"
             ~doc:
               "Domain-pool size for parallel simulations (1 = sequential; \
                output is identical at any value).";
           Cmd.Env.info "MEMORIA_REPLAY"
             ~doc:
               "Measurement backend: $(b,sample) builds a SHARDS \
                hash-sampled reuse-distance profile instead of simulating \
                exactly (see $(b,MEMORIA_SAMPLE_RATE)); $(b,analytic) skips \
                tracing and asks the closed-form locality model \
                (simulator-equal on programs it certifies exact, sound \
                estimates elsewhere, automatic fallback to simulation when \
                out of scope); any other value (or unset) selects \
                $(b,runs): walk each program version once and feed its \
                run-compressed trace to an exact simulator per cache \
                geometry, so no trace is materialised.";
           Cmd.Env.info "MEMORIA_SAMPLE_RATE"
             ~doc:
               "Sampling rate in (0, 1] for $(b,MEMORIA_REPLAY=sample) \
                (default 0.01): the expected fraction of cache lines the \
                SHARDS profiler tracks. The $(b,--rate) flag overrides it.";
           Cmd.Env.info "MEMORIA_STORE"
             ~doc:
               "Directory of the content-addressed experiment store. When \
                set, simulation results and optimizer output are reused \
                across runs (byte-identical output); unset disables \
                caching. See $(b,memoria store).";
         ])
    [
      opt_cmd; cost_cmd; deps_cmd; sim_cmd; tune_cmd; explain_cmd; tile_cmd;
      unroll_cmd; cgen_cmd; kernels_cmd; suite_cmd; serve_cmd; fuzz_cmd;
      store_cmd; bench_cmd;
    ]

let () = exit (Cmd.eval main)
