(* The correctness reference: the interpreter's per-access observer
   feeding the cache simulator one access at a time through
   [Cache.access_full] — none of the capture, run compression or bulk
   replay machinery the timed operations go through. A timed result is
   correct when its counts equal this path's. *)

module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Exec = Locality_interp.Exec
module Measure = Locality_interp.Measure

type counts = {
  accesses : int;
  hits : int;
  cold : int;
  opt_accesses : int;
  opt_hits : int;
  opt_cold : int;
  ops : int;
}

type tally = {
  cache : Cache.t;
  mutable a : int;
  mutable h : int;
  mutable c : int;
  mutable oa : int;
  mutable oh : int;
  mutable oc : int;
}

(* One interpretation of [p] feeding a cache per geometry. *)
let simulate_all ~configs ?(labels = []) (p : Program.t) =
  let marked = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace marked l ()) labels;
  let ts =
    List.map
      (fun config ->
        { cache = Cache.create config; a = 0; h = 0; c = 0; oa = 0; oh = 0; oc = 0 })
      configs
  in
  let on_access ~label ~addr ~write =
    let opt = Hashtbl.mem marked label in
    List.iter
      (fun t ->
        let cls, _ = Cache.access_full t.cache ~write addr in
        t.a <- t.a + 1;
        if opt then t.oa <- t.oa + 1;
        match cls with
        | `Hit ->
          t.h <- t.h + 1;
          if opt then t.oh <- t.oh + 1
        | `Cold ->
          t.c <- t.c + 1;
          if opt then t.oc <- t.oc + 1
        | `Miss -> ())
      ts
  in
  let observer = { Exec.on_access; on_stmt = (fun ~label:_ -> ()) } in
  let r = Exec.run ~observer p in
  List.map
    (fun t ->
      { accesses = t.a; hits = t.h; cold = t.c; opt_accesses = t.oa;
        opt_hits = t.oh; opt_cold = t.oc; ops = r.Exec.ops })
    ts

let simulate ~config ?labels p = List.hd (simulate_all ~configs:[ config ] ?labels p)

let miss_pct c =
  if c.accesses = 0 then 0.0
  else 100.0 *. float_of_int (c.accesses - c.hits) /. float_of_int c.accesses

let cycles c =
  Machine.cycles Machine.default_timing ~ops:c.ops ~hits:c.hits ~misses:(c.accesses - c.hits)

(* [Ok ()] when a timed run reports exactly the reference counts. *)
let check ~what c (r : Measure.run) =
  let w = r.Measure.whole and o = r.Measure.optimized in
  let got =
    [ w.Measure.accesses; w.Measure.hits; w.Measure.cold; o.Measure.accesses;
      o.Measure.hits; o.Measure.cold; r.Measure.ops ]
  and want =
    [ c.accesses; c.hits; c.cold; c.opt_accesses; c.opt_hits; c.opt_cold; c.ops ]
  in
  if got = want then Ok ()
  else
    let show l = String.concat "," (List.map string_of_int l) in
    Error
      (Printf.sprintf "%s: got [%s], reference [%s]" what (show got) (show want))
