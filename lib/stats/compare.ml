module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Measure = Locality_interp.Measure
module Analytic = Locality_analytic.Analytic
module Json = Locality_obs.Json

type row = {
  r_unit : string;
  r_class : string;
  r_formula : string;
  r_sim_accesses : int;
  r_sim_misses : int;
  r_ana_accesses : int;
  r_ana_misses : int;
  r_sim_rate : float;
  r_ana_rate : float;
  r_abs_err : float;
}

type t = {
  c_name : string;
  c_config : Cache.config;
  c_exact : bool;
  c_verdict : [ `Compared of row list * row | `Fallback of string ];
}

let miss_rate ~accesses ~misses =
  if accesses = 0 then 0.0
  else 100.0 *. float_of_int misses /. float_of_int accesses

let make_row ~unit ~cls ~formula ~sim_acc ~sim_miss ~ana_acc ~ana_miss =
  let r_sim_rate = miss_rate ~accesses:sim_acc ~misses:sim_miss in
  let r_ana_rate = miss_rate ~accesses:ana_acc ~misses:ana_miss in
  {
    r_unit = unit;
    r_class = cls;
    r_formula = formula;
    r_sim_accesses = sim_acc;
    r_sim_misses = sim_miss;
    r_ana_accesses = ana_acc;
    r_ana_misses = ana_miss;
    r_sim_rate;
    r_ana_rate;
    r_abs_err = Float.abs (r_ana_rate -. r_sim_rate);
  }

let run ?(config = Machine.cache1) ?(store = None) ~name (p : Program.t) =
  match Analytic.estimate ~config p with
  | Error reason ->
    { c_name = name; c_config = config; c_exact = false;
      c_verdict = `Fallback reason }
  | Ok est -> (
    (* One batch, one walk: the whole program, then each unit's
       statements as the optimized region. *)
    let query labels = Measure.query ~config ~optimized_labels:labels () in
    let units = List.map (fun node -> query (Loop.labels [ node ])) p.Program.body in
    match (Measure.prepare ~store p).Measure.runs (query [] :: units) with
    | [] -> invalid_arg "Compare.run: no whole-program run"
    | whole_sim :: unit_sims ->
    let rows =
      List.map2
        (fun (u : Analytic.unit_report) (sim : Measure.run) ->
          let reg = sim.Measure.optimized in
          make_row ~unit:u.Analytic.u_name
            ~cls:(match u.Analytic.u_class with
                 | Analytic.Exact -> "exact"
                 | Analytic.Approx -> "approx")
            ~formula:u.Analytic.u_formula
            ~sim_acc:reg.Measure.accesses
            ~sim_miss:(reg.Measure.accesses - reg.Measure.hits)
            ~ana_acc:u.Analytic.u_accesses ~ana_miss:u.Analytic.u_misses)
        est.Analytic.e_units unit_sims
    in
    let whole =
      make_row ~unit:"(whole)"
        ~cls:(if est.Analytic.e_exact then "exact" else "approx")
        ~formula:"-"
        ~sim_acc:whole_sim.Measure.whole.Measure.accesses
        ~sim_miss:
          (whole_sim.Measure.whole.Measure.accesses
          - whole_sim.Measure.whole.Measure.hits)
        ~ana_acc:est.Analytic.e_whole.Analytic.c_accesses
        ~ana_miss:
          (est.Analytic.e_whole.Analytic.c_accesses
          - est.Analytic.e_whole.Analytic.c_hits)
    in
    { c_name = name; c_config = config; c_exact = est.Analytic.e_exact;
      c_verdict = `Compared (rows, whole) })

(* ------------------------------------------------------- rendering --- *)

let render t =
  let b = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  addf "analytic vs simulated: %s on %s" t.c_name t.c_config.Cache.name;
  (match t.c_verdict with
  | `Fallback reason -> addf "fallback: %s (simulator is authoritative)" reason
  | `Compared (rows, whole) ->
    addf "%-10s %-7s %-17s %12s %12s %9s %9s %8s" "unit" "class" "formula"
      "sim misses" "ana misses" "sim%" "ana%" "abs err";
    List.iter
      (fun r ->
        addf "%-10s %-7s %-17s %12d %12d %9s %9s %8s" r.r_unit r.r_class
          r.r_formula r.r_sim_misses r.r_ana_misses
          (Report.fmt_pct r.r_sim_rate)
          (Report.fmt_pct r.r_ana_rate)
          (Report.fmt_pct r.r_abs_err))
      (rows @ [ whole ]);
    addf "whole-program class: %s"
      (if t.c_exact then "exact (analytic counts are simulator-equal)"
       else "approx (bracketed estimates)"));
  Buffer.contents b

(* ------------------------------------------------------------ JSON --- *)

(* Shape documented in doc/SCHEMA.md; bump [Json.schema_version] only on
   incompatible changes. *)

let float_json f = Printf.sprintf "%.4f" f

let row_json r =
  Json.obj
    [
      ("unit", Json.str r.r_unit);
      ("class", Json.str r.r_class);
      ("formula", Json.str r.r_formula);
      ("sim_accesses", Json.int r.r_sim_accesses);
      ("sim_misses", Json.int r.r_sim_misses);
      ("analytic_accesses", Json.int r.r_ana_accesses);
      ("analytic_misses", Json.int r.r_ana_misses);
      ("sim_miss_rate", float_json r.r_sim_rate);
      ("analytic_miss_rate", float_json r.r_ana_rate);
      ("abs_error", float_json r.r_abs_err);
    ]

let to_json t =
  let common =
    [
      ("program", Json.str t.c_name);
      ("cache", Json.str t.c_config.Cache.name);
      ("exact", if t.c_exact then "true" else "false");
    ]
  in
  (match t.c_verdict with
  | `Fallback reason ->
    Json.versioned (common @ [ ("fallback", Json.str reason) ])
  | `Compared (rows, whole) ->
    Json.versioned
      (common
      @ [
          ("units", Json.list (List.map row_json rows));
          ("whole", row_json whole);
        ]))
  ^ "\n"
