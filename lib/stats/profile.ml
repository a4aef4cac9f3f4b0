module Summary = Locality_obs.Summary
module Hist = Locality_obs.Hist

let span_table (spans : Summary.span_row list) =
  let total_all =
    List.fold_left (fun acc (r : Summary.span_row) -> Int64.add acc r.total_ns)
      0L spans
  in
  let share ns =
    if Int64.equal total_all 0L then "-"
    else
      Csv.float4 (100.0 *. Int64.to_float ns /. Int64.to_float total_all)
  in
  Report.render ~title:"Profile: phases"
    ~note:"total/min/max in milliseconds; share is of the summed span time"
    [
      Report.Left; Report.Right; Report.Right; Report.Right; Report.Right;
      Report.Right;
    ]
    [ "span"; "count"; "total_ms"; "min_ms"; "max_ms"; "share_pct" ]
    (List.map
       (fun (r : Summary.span_row) ->
         [
           r.name;
           string_of_int r.count;
           Csv.float4 (Summary.ms r.total_ns);
           Csv.float4 (Summary.ms r.min_ns);
           Csv.float4 (Summary.ms r.max_ns);
           share r.total_ns;
         ])
       spans)

(* The flat view: self time excludes children, so shares sum to 100%
   of the traced wall clock instead of double-counting nesting. *)
let self_table (s : Summary.t) =
  let ranked = Summary.self_ranking s in
  let total_self =
    List.fold_left (fun acc (r : Summary.span_row) -> Int64.add acc r.self_ns)
      0L ranked
  in
  let share ns =
    if Int64.equal total_self 0L then "-"
    else
      Csv.float4 (100.0 *. Int64.to_float ns /. Int64.to_float total_self)
  in
  Report.render ~title:"Profile: self time"
    ~note:"own work per span (children excluded); shares sum to 100"
    [ Report.Left; Report.Right; Report.Right ]
    [ "span"; "self_ms"; "self_pct" ]
    (List.map
       (fun (r : Summary.span_row) ->
         [ r.name; Csv.float4 (Summary.ms r.self_ns); share r.self_ns ])
       ranked)

let counter_table counters =
  Report.render ~title:"Profile: counters"
    [ Report.Left; Report.Right ]
    [ "counter"; "total" ]
    (List.map (fun (name, v) -> [ name; string_of_int v ]) counters)

let hist_table hists =
  Report.render ~title:"Profile: histograms"
    ~note:"log2 buckets; p50/p95 are bucket upper bounds"
    [
      Report.Left; Report.Right; Report.Right; Report.Right; Report.Right;
      Report.Right;
    ]
    [ "histogram"; "count"; "mean"; "p50"; "p95"; "max" ]
    (List.map
       (fun (name, (h : Hist.t)) ->
         [
           name;
           string_of_int h.Hist.count;
           Csv.float4 (Hist.mean h);
           string_of_int (Hist.quantile h 0.5);
           string_of_int (Hist.quantile h 0.95);
           string_of_int (if h.Hist.count = 0 then 0 else h.Hist.max);
         ])
       hists)

let gauge_table gauges =
  Report.render ~title:"Profile: gauges"
    [ Report.Left; Report.Right ]
    [ "gauge"; "value" ]
    (List.map (fun (name, v) -> [ name; Printf.sprintf "%g" v ]) gauges)

let render (s : Summary.t) =
  if
    s.Summary.spans = [] && s.Summary.counters = []
    && s.Summary.histograms = [] && s.Summary.gauges = []
  then "Profile: no events recorded (tracing disabled?)\n"
  else
    let parts =
      (if s.Summary.spans = [] then []
       else [ span_table s.Summary.spans; self_table s ])
      @ (if s.Summary.counters = [] then []
         else [ counter_table s.Summary.counters ])
      @ (if s.Summary.histograms = [] then []
         else [ hist_table s.Summary.histograms ])
      @ if s.Summary.gauges = [] then [] else [ gauge_table s.Summary.gauges ]
    in
    String.concat "\n" parts
