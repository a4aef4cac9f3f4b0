(* The serve workload's request stream: a pure function of the seed.

   About nine in ten requests are warm — drawn uniformly from a fixed
   hot set of suite kernels x sizes x geometries that set-up answers
   once, so at run time they are store reads. The rest are cold: a
   fresh seeded fuzz-generator program shipped as inline source, which
   the daemon must parse, optimize, capture, replay and store. *)

module Request = Locality_driver.Request
module Rng = Locality_fuzz.Rng

let hot_kernels = [ "matmul"; "lu"; "cholesky"; "jacobi2d"; "transpose"; "adi" ]
let hot_sizes = [ 32; 48 ]
let machines = [ "cache1"; "cache2" ]

(* (kernel, n, machine), in a fixed order. *)
let hot_set =
  List.concat_map
    (fun k ->
      List.concat_map (fun n -> List.map (fun m -> (k, n, m)) machines) hot_sizes)
    hot_kernels

let hot = Array.of_list hot_set
let cold_share = 0.1

(* Fuzz-generator size budget of a cold program: a few loops and
   statements, milliseconds of pipeline work each. *)
let cold_size = 20

type kind = Warm of int  (** index into [hot] *) | Cold of int  (** cold index *)

type item = { index : int; kind : kind; id : string; request : Request.t }

let hot_request ~id k =
  let kernel, n, machine = hot.(k) in
  Request.make ~id ~n ~machines:[ Request.Named machine ]
    ~replay:Locality_interp.Measure.Runs (Request.Kernel kernel)

(* Cold program [c] of the stream for [seed]: its name and source. *)
let cold_text ~seed c =
  let p = Locality_fuzz.Gen.generate ~seed ~index:c ~size:cold_size in
  (Printf.sprintf "cold-%d-%d" seed c, Pretty.program_to_string p)

let cold_request ~seed ~id c =
  let name, text = cold_text ~seed c in
  Request.make ~id ~machines:[ Request.Named "cache1" ]
    ~replay:Locality_interp.Measure.Runs (Request.Text { name; text })

type t = { seed : int; rng : Rng.t; mutable next : int; mutable cold : int }

let create ~seed = { seed; rng = Rng.make seed; next = 0; cold = 0 }

let next t =
  let index = t.next in
  t.next <- index + 1;
  if Rng.chance t.rng cold_share then begin
    let c = t.cold in
    t.cold <- c + 1;
    let id = Printf.sprintf "c%d" index in
    { index; kind = Cold c; id; request = cold_request ~seed:t.seed ~id c }
  end
  else
    let k = Rng.int t.rng (Array.length hot) in
    let id = Printf.sprintf "w%d" index in
    { index; kind = Warm k; id; request = hot_request ~id k }

let line item = Request.to_json item.request
