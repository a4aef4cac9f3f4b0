(* A deadlock fails the suite instead of hanging it: SIGALRM keeps its
   default action and ends the process after ten minutes, many times
   the suite's usual minute. *)
let () = ignore (Unix.alarm 600)

let () =
  Alcotest.run "memoria"
    [
      ("ir", Test_ir.suite);
      ("cost", Test_cost.suite);
      ("transform", Test_transform.suite);
      ("dep", Test_dep.suite);
      ("cachesim", Test_cachesim.suite);
      ("interp", Test_interp.suite);
      ("semantics", Test_semantics.suite);
      ("lang", Test_lang.suite);
      ("suite", Test_suite.suite);
      ("stats", Test_stats.suite);
      ("extensions", Test_extensions.suite);
      ("coverage", Test_coverage.suite);
      ("cgen", Test_cgen.suite);
      ("units", Test_units.suite);
      ("trace", Test_trace.suite);
      ("runs", Test_runs.suite);
      ("obs", Test_obs.suite);
      ("jsonin", Test_jsonin.suite);
      ("store", Test_store.suite);
      ("fuzz", Test_fuzz.suite);
      ("analytic", Test_analytic.suite);
      ("sample", Test_sample.suite);
      ("serve", Test_serve.suite);
      ("tune", Test_tune.suite);
      ("settings", Test_settings.suite);
    ]
