(** Side-by-side validation of the closed-form analytic locality model
    against the trace-replay simulator: per top-level unit (loop nest
    or straight-line statement) and for the whole program, both miss
    rates plus the absolute error between them — the report behind
    [memoria explain --compare]. *)

module Cache = Locality_cachesim.Cache

type row = {
  r_unit : string;  (** loop index of the nest, or the statement label *)
  r_class : string;  (** "exact" | "approx" *)
  r_formula : string;  (** which analytic closed form fired *)
  r_sim_accesses : int;
  r_sim_misses : int;
  r_ana_accesses : int;
  r_ana_misses : int;
  r_sim_rate : float;  (** simulated miss rate, percent of accesses *)
  r_ana_rate : float;  (** analytic miss rate, percent of accesses *)
  r_abs_err : float;  (** |r_ana_rate - r_sim_rate| *)
}

type t = {
  c_name : string;
  c_config : Cache.config;
  c_exact : bool;  (** analytic claimed whole-program exactness *)
  c_verdict : [ `Compared of row list * row | `Fallback of string ];
      (** per-unit rows plus the whole-program row, or the analytic
          fallback reason (the simulator row set is skipped then) *)
}

val run :
  ?config:Cache.config -> ?store:Locality_store.Store.t option ->
  name:string -> Program.t -> t
(** Analyze and simulate the program under one geometry (default
    {!Locality_cachesim.Machine.cache1}). The simulator side is one
    batch on one walk: the whole program, then one query per unit with
    that unit's statement labels as the optimized region, so per-unit
    numbers come from the same replay machinery as every table. The
    program is measured at its own parameter values. *)

val render : t -> string

val to_json : t -> string
(** Versioned document; see [doc/SCHEMA.md]. *)
