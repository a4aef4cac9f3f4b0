(** Metrics exporter behind the [--metrics FILE] flag.

    Renders an aggregated {!Summary.t} as OpenMetrics text (counters,
    gauges, log2-bucket histograms, per-span totals labelled by span
    name) or, when the path ends in [.json], as a single JSON document.
    Metric naming is a stable contract documented in [doc/SCHEMA.md]. *)

val to_text : Summary.t -> string
(** Test oracle: the document {!write} writes for a path not ending in
    [.json].

    OpenMetrics text exposition, terminated by [# EOF]. *)

val to_json : Summary.t -> string
(** Test oracle: the document {!write} writes for a [.json] path.

    The same data as one schema-versioned JSON object. *)

val write : path:string -> Summary.t -> unit
(** Write to [path]; format chosen by extension ([.json] → JSON,
    anything else → OpenMetrics text). *)
