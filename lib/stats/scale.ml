(* Scaled-geometry replay-mode comparison and the sampled-profile error
   sweep — see scale.mli. *)

module D = Locality_driver.Driver
module Request = Locality_driver.Request
module Settings = Locality_driver.Settings
module Measure = Locality_interp.Measure
module Machine = Locality_cachesim.Machine
module Cache = Locality_cachesim.Cache
module S = Locality_suite

(* 2-D kernels whose footprint grows quadratically with --scale: big
   enough to make the exact modes work for their answer, regular enough
   that the sampled estimate is meaningful. *)
let kernels = [ "matmul"; "jacobi2d" ]
let caches = [ Machine.cache1; Machine.cache2 ]

let miss_rate (r : Measure.region) =
  if r.Measure.accesses = 0 then 0.0
  else
    100.0
    *. float_of_int (r.Measure.accesses - r.Measure.hits)
    /. float_of_int r.Measure.accesses

let cache_short (c : Cache.config) =
  match String.index_opt c.Cache.name ' ' with
  | Some i -> String.sub c.Cache.name 0 i
  | None -> c.Cache.name

let render_scale ?(settings = Settings.default ()) ?factor:(f = 4) () =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line
    "Replay modes on scaled geometries (n=32, scale=%d -> effective n=%d, \
     rate=%g)"
    f (32 * f) settings.Settings.sample_rate;
  line "%-10s %-8s %-12s %9s %9s %10s" "kernel" "cache" "version" "runs%"
    "sample%" "sample-err";
  let row_errors = ref 0 in
  let max_err = ref 0.0 in
  List.iter
    (fun kernel ->
      let run mode =
        (* Through the typed request API, like every other batch caller:
           the presets round-trip to Named machines, so the request is
           exactly what a serve client would send for this row. A failed
           row must not abort the whole sweep — it is reported in place
           and the remaining kernels still run. *)
        let req =
          Request.make ~n:32 ~scale:f ~replay:mode
            ~machines:(List.map Request.machine_of_config caches)
            (Request.Kernel kernel)
        in
        match Request.to_config ~settings req with
        | Ok cfg -> D.run cfg
        | Error msg -> Error msg
      in
      match (run Measure.Runs, run Measure.Sampled) with
      | Error msg, _ | _, Error msg ->
        incr row_errors;
        line "%-10s %-8s %-12s error: %s" kernel "-" "-" msg
      | Ok exact, Ok sampled ->
        List.iter2
          (fun (me : D.measured) (mp : D.measured) ->
            List.iter
              (fun (version, sel) ->
                let re = sel me and rp = sel mp in
                let err =
                  Float.abs
                    (miss_rate rp.Measure.whole -. miss_rate re.Measure.whole)
                in
                if err > !max_err then max_err := err;
                line "%-10s %-8s %-12s %9.2f %9.2f %9.2fpt" kernel
                  (cache_short me.D.machine) version
                  (miss_rate re.Measure.whole)
                  (miss_rate rp.Measure.whole)
                  err)
              [
                ("original", fun (m : D.measured) -> m.D.original_run);
                ("transformed", fun (m : D.measured) -> m.D.transformed_run);
              ])
          exact.D.measured sampled.D.measured)
    kernels;
  line "row-errors=%d" !row_errors;
  line "sample max-err=%.2fpt" !max_err;
  Buffer.contents buf

let render_err ?(settings = Settings.default ()) (rows : Table2.row list) =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let params = [ ("N", 32) ] in
  let rate = settings.Settings.sample_rate in
  line
    "Sampled vs exact miss rates (Table 4 workload, N=32, both versions, \
     cache1+cache2, rate=%g)"
    rate;
  line "%-10s %-8s %8s %8s %6s   %8s %8s %6s" "program" "cache" "exact%"
    "sample%" "err" "exact%" "sample%" "err";
  line "%-10s %-8s %-26s  %-26s" "" "" "(original)" "(transformed)";
  let max_err = ref 0.0 in
  let sum_err = ref 0.0 in
  let n_err = ref 0 in
  let queries = List.map (fun config -> Measure.query ~config ()) caches in
  let misses mode p =
    (Measure.prepare ~mode ~rate ~params ~store:settings.Settings.store p)
      .Measure.runs queries
    |> List.map (fun (r : Measure.run) -> miss_rate r.Measure.whole)
  in
  (* Exact and sampled miss rates of one version, one cell per cache. *)
  let cells p =
    List.map2
      (fun re rs -> (re, rs, Float.abs (rs -. re)))
      (misses Measure.Runs p) (misses Measure.Sampled p)
  in
  let tally (_, _, err) =
    if err > !max_err then max_err := err;
    sum_err := !sum_err +. err;
    incr n_err
  in
  List.iter
    (fun (r : Table2.row) ->
      if r.Table2.nests > 0 then
        List.iter2
          (fun config (((oe, os, oerr) as o), ((te, ts, terr) as t)) ->
            tally o;
            tally t;
            line "%-10s %-8s %8.2f %8.2f %5.2fp   %8.2f %8.2f %5.2fp"
              r.Table2.entry.S.Programs.name (cache_short config) oe os oerr
              te ts terr)
          caches
          (List.combine (cells r.Table2.original) (cells r.Table2.transformed)))
    rows;
  let mean = if !n_err = 0 then 0.0 else !sum_err /. float_of_int !n_err in
  let bound = 1.0 in
  line "sample rate=%g cells=%d mean-err=%.3fpt max-err=%.3fpt bound=%.1fpt"
    rate !n_err mean !max_err bound;
  (* CI gates max error at rate 1.0 (adaptive-budget mode: exact until a
     program's footprint exceeds max_tracked, so the bound checks the
     estimator plus SHARDS-adj adaptation) and mean error at sampling
     rates, where concentrated-footprint programs can blow any per-cell
     bound a spatial sample could promise. *)
  line "err-bound-ok=%b" (!max_err <= bound);
  line "mean-err-ok=%b" (mean <= bound);
  Buffer.contents buf
