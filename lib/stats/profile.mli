(** The [--profile] table: phase timings (with a self-time flat view),
    cache counters, histogram and gauge summaries from an event stream,
    rendered with {!Report}. *)

val render : Locality_obs.Summary.t -> string
(** Plain-text tables — per-span totals (count, total/min/max ms, share
    of traced time), per-span self time ranked largest first (shares
    sum to 100), counter sums, histogram digests (count, mean, bucket
    p50/p95, max) and gauge levels. Empty sections are omitted; an
    empty summary renders a one-line note. *)
