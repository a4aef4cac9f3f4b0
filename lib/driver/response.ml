(* Wire responses — see response.mli. *)

module Cache = Locality_cachesim.Cache
module Measure = Locality_interp.Measure
module Compound = Locality_core.Compound
module Json = Locality_obs.Json

type t =
  | Result of { id : string; emit_program : bool; result : Driver.result }
  | Tuned of { id : string; tune : string }
  | Failed of { id : string; message : string }
  | Timeout of { id : string; timeout_ms : int }
  | Overloaded of { id : string; retry_after_ms : int }

let of_run ~id ?(emit_program = false) = function
  | Ok result -> Result { id; emit_program; result }
  | Error message -> Failed { id; message }

let of_tune ~id = function
  | Ok json -> Tuned { id; tune = String.trim json }
  | Error message -> Failed { id; message }

(* Fixed-point float rendering keeps the bytes deterministic across
   callers; six decimals is enough for modelled seconds and speedups. *)
let jfloat v = Printf.sprintf "%.6f" v

let region_fields (r : Measure.region) =
  [
    ("accesses", Json.int r.Measure.accesses);
    ("hits", Json.int r.Measure.hits);
    ("cold", Json.int r.Measure.cold);
  ]

let run_json (r : Measure.run) =
  Json.obj
    (region_fields r.Measure.whole
    @ [
        ("optimized", Json.obj (region_fields r.Measure.optimized));
        ("ops", Json.int r.Measure.ops);
        ("cycles", jfloat r.Measure.cycles);
        ("seconds", jfloat r.Measure.seconds);
      ])

let measured_json (m : Driver.measured) =
  Json.obj
    [
      ("machine", Json.str m.Driver.machine.Cache.name);
      ("original", run_json m.Driver.original_run);
      ("transformed", run_json m.Driver.transformed_run);
      ("speedup", jfloat m.Driver.speedup);
    ]

let compound_json (s : Compound.stats) =
  Json.obj
    [
      ("nests", Json.int (List.length s.Compound.nests));
      ("fusion_candidates", Json.int s.Compound.fusion_candidates);
      ("fusions_applied", Json.int s.Compound.fusions_applied);
      ("distributions", Json.int s.Compound.distributions);
    ]

let to_json t =
  match t with
  | Result { id; emit_program; result } ->
    Json.versioned
      ([
         ("id", Json.str id);
         ("status", Json.str "ok");
         ("name", Json.str result.Driver.name);
         ("optimized_labels", Json.strings result.Driver.optimized_labels);
         ( "compound",
           match result.Driver.compound with
           | Some s -> compound_json s
           | None -> "null" );
         ( "measured",
           Json.list (List.map measured_json result.Driver.measured) );
       ]
      @
      if emit_program then
        [
          ( "program",
            Json.str (Pretty.program_to_string result.Driver.transformed) );
        ]
      else [])
  | Tuned { id; tune } ->
    (* [tune] is already a rendered JSON object (the tuner's own
       versioned document); embed it verbatim so the daemon's reply and
       [memoria tune --json] byte-match. *)
    Json.versioned
      [ ("id", Json.str id); ("status", Json.str "ok"); ("tune", tune) ]
  | Failed { id; message } ->
    Json.versioned
      [
        ("id", Json.str id);
        ("status", Json.str "error");
        ("error", Json.str message);
      ]
  | Timeout { id; timeout_ms } ->
    Json.versioned
      [
        ("id", Json.str id);
        ("status", Json.str "timeout");
        ("timeout_ms", Json.int timeout_ms);
      ]
  | Overloaded { id; retry_after_ms } ->
    Json.versioned
      [
        ("id", Json.str id);
        ("status", Json.str "overloaded");
        ("retry_after_ms", Json.int retry_after_ms);
      ]
