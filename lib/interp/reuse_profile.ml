module Reuse = Locality_cachesim.Reuse

let profile ?(line_bytes = 32) ?params (p : Program.t) =
  let tracker = Reuse.create ~line_bytes () in
  let rb =
    Trace.run_create
      ~sink:(fun rc ->
        Trace.Runchunk.iter rc (fun ~label:_ ~addr ~write:_ ->
            Reuse.access tracker addr))
      ()
  in
  ignore (Walk.run ?params rb p);
  tracker
