(** The two sampled-versus-exact experiments.

    {!render_scale} (the [scale] bench experiment) runs a pair of 2-D
    kernels at [--scale]-multiplied geometry through the two
    trace-driven replay modes — [Runs] and [Sampled] — on both
    reference caches and prints their whole-program miss rates side by
    side, a [row-errors=N] line counting kernels that failed to run (CI
    greps for [=0]), and the worst sampled-estimate error.

    {!render_err} (the [sampleerr] bench experiment) sweeps the Table 4
    workload (every suite program with nests, both versions, N=32) on
    both caches, comparing the SHARDS sampled miss-rate estimate at
    the settings' rate against exact simulation.
    It ends with two verdict lines against the 1-percentage-point
    bound: [err-bound-ok] (max cell error — CI enforces it at
    [--rate 1.0], the adaptive-budget mode where error comes only from
    SHARDS-adj adaptation on footprints past [max_tracked]) and
    [mean-err-ok] (mean cell error — CI enforces it at a genuine
    sampling rate, where a program whose footprint concentrates in a
    few cache sets can blow any per-cell bound). *)

val render_scale :
  ?settings:Locality_driver.Settings.t -> ?factor:int -> unit -> string
(** [factor] is the geometry multiplier ([memoria bench
    --scale N]); default 4, i.e. effective n = 128. *)

val render_err :
  ?settings:Locality_driver.Settings.t -> Table2.row list -> string
