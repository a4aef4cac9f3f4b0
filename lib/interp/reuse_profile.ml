module Sample = Locality_sample.Sample

let profile ?(line_bytes = 32) ?params (p : Program.t) =
  let s = Sample.create ~rate:1.0 ~max_tracked:max_int ~sets:1 ~line_bytes () in
  let rb = Trace.run_create ~sink:(Sample.consume_runchunk s) () in
  let r = Walk.run ?params rb p in
  Sample.profile s ~labels:(Trace.run_labels rb) ~ops:r.Walk.ops
