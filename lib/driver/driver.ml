(* The unified pipeline behind the CLI, the benchmark harness and the
   table generators — see driver.mli for the contract. *)

module Cache = Locality_cachesim.Cache
module Measure = Locality_interp.Measure
module Store = Locality_store.Store
module Compound = Locality_core.Compound
module Suite = Locality_suite
module Obs = Locality_obs.Obs

type source =
  | Source_program of { name : string; program : Program.t }
  | Source_file of string
  | Source_text of { name : string; text : string }
  | Source_kernel of string
  | Source_suite of string
  | Source_entry of Suite.Programs.entry

type transform =
  | Keep
  | Compound of {
      try_reversal : bool option;
      interference_limit : int option;
    }
  | Provided of { transformed : Program.t; optimized_labels : string list }

type config = {
  source : source;
  n : int option;
  scale : int;
  cls : int;
  transform : transform;
  machines : Cache.config list;
  params : (string * int) list option;
  replay : Measure.replay_mode;
  sample_rate : float;
  use_labels : bool;
  store : Store.t option;
}

let config ?n ?(scale = 1) ?(cls = 4)
    ?(transform = Compound { try_reversal = None; interference_limit = None })
    ?(machines = []) ?params
    ?(replay = Measure.Runs)
    ?(sample_rate = Locality_sample.Sample.default_rate) ?(use_labels = false)
    ?(store = None) source =
  if scale < 1 then invalid_arg "Driver.config: scale must be >= 1";
  if not (sample_rate > 0.0 && sample_rate <= 1.0) then
    invalid_arg "Driver.config: sample_rate must be in (0, 1]";
  { source; n; scale; cls; transform; machines; params; replay;
    sample_rate; use_labels; store }

type measured = {
  machine : Cache.config;
  original_run : Measure.run;
  transformed_run : Measure.run;
  speedup : float;
}

type result = {
  name : string;
  original : Program.t;
  transformed : Program.t;
  compound : Compound.stats option;
  optimized_labels : string list;
  measured : measured list;
}

(* ----------------------------------------------------------- load --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let override_params n (p : Program.t) =
  { p with Program.params = List.map (fun (x, _) -> (x, n)) p.Program.params }

let resize n p = match n with None -> p | Some n -> override_params n p

(* Every error leaving this module reads "<name>:<detail>" with the
   source name appearing exactly once — the stable format the wire
   protocol (doc/PROTOCOL.md) and [memoria suite] print verbatim.
   Messages that already carry the prefix (a [Sys_error] from opening
   the file, the lexer's "path:line:col:" diagnostics) pass through
   untouched. *)
let named_error name msg =
  let prefix = name ^ ":" in
  let n = String.length prefix in
  if String.length msg >= n && String.sub msg 0 n = prefix then msg
  else Printf.sprintf "%s: %s" name msg

let parse_text ~name text =
  try
    let p =
      Obs.span "parse" ~args:[ ("file", name) ] (fun () ->
          Locality_lang.Lower.parse_program text)
    in
    Ok p
  with
  | Locality_lang.Lexer.Error (msg, loc) ->
    Error
      (Printf.sprintf "%s:%s: lexical error: %s" name
         (Locality_lang.Lexer.pp_loc loc) msg)
  | Locality_lang.Parser.Error (msg, loc) ->
    Error
      (Printf.sprintf "%s:%s: syntax error: %s" name
         (Locality_lang.Lexer.pp_loc loc) msg)
  | Locality_lang.Lower.Error msg -> Error (named_error name msg)

let load ?n source =
  match source with
  | Source_program { name; program } -> Ok (name, resize n program)
  | Source_kernel name -> (
    match List.assoc_opt name Suite.Kernels.all with
    | Some mk -> Ok (name, mk (Option.value n ~default:64))
    | None ->
      Error
        (Printf.sprintf "%s: unknown kernel (try: %s)" name
           (String.concat ", " (List.map fst Suite.Kernels.all))))
  | Source_suite name -> (
    match Suite.Programs.find name with
    | Some e -> Ok (name, Suite.Programs.program_of ?n e)
    | None ->
      Error
        (Printf.sprintf "%s: unknown suite program (see Programs.all)" name))
  | Source_entry e -> Ok (e.Suite.Programs.name, Suite.Programs.program_of ?n e)
  | Source_text { name; text } ->
    Result.map (fun p -> (name, resize n p)) (parse_text ~name text)
  | Source_file path -> (
    match read_file path with
    | exception Sys_error msg -> Error (named_error path msg)
    | text -> Result.map (fun p -> (path, resize n p)) (parse_text ~name:path text))

(* ------------------------------------------------------------ run --- *)

let changed (s : Compound.nest_stat) =
  s.Compound.permuted || s.Compound.fused_enabling || s.Compound.distributed

(* The optimizer is deterministic in its program and knobs, so its
   output is cacheable like a trace: keyed on the canonical program
   text plus every knob, holding the transformed program and the
   statistics. (The store's format version retires entries if the
   marshalled shape of either ever changes.) Builds of one text can
   label it differently (lu's L1/L2, its printed text's S1/S2), so the
   entry also holds the original program as it was labelled when
   stored: a hit continues with that original, and the pair keeps
   naming the optimized region consistently. *)
let analysis_key ~cls ~try_reversal ~interference_limit program =
  let bool_tag = function None -> "-" | Some b -> string_of_bool b in
  let int_tag = function None -> "-" | Some i -> string_of_int i in
  Store.key ~kind:"analysis"
    [
      string_of_int cls;
      bool_tag try_reversal;
      int_tag interference_limit;
      Pretty.program_to_string program;
    ]

let compound_cached ~store ~cls ~try_reversal ~interference_limit program =
  Store.memo store
    (fun () -> analysis_key ~cls ~try_reversal ~interference_limit program)
    (fun () ->
      let p', stats =
        Compound.run_program ?try_reversal ?interference_limit ~cls program
      in
      (program, p', stats))

let run_loaded cfg name program =
  let program, transformed, compound, optimized_labels =
    match cfg.transform with
    | Keep -> (program, program, None, [])
    | Provided { transformed; optimized_labels } ->
      (program, transformed, None, optimized_labels)
    | Compound { try_reversal; interference_limit } ->
      let program, p', stats =
        Obs.span "optimize" (fun () ->
            compound_cached ~store:cfg.store ~cls:cfg.cls ~try_reversal
              ~interference_limit program)
      in
      let labels =
        List.concat_map
          (fun s -> if changed s then s.Compound.labels else [])
          stats.Compound.nests
      in
      (program, p', Some stats, labels)
  in
  (* One batch per program version, covering every machine: its misses
     share one walk, and with a warm store no walk happens at all. *)
  let labels = if cfg.use_labels then optimized_labels else [] in
  let queries =
    List.map
      (fun config -> { Measure.config; labels })
      cfg.machines
  in
  let runs p =
    (Measure.prepare ~mode:cfg.replay ~rate:cfg.sample_rate ?params:cfg.params
       ~store:cfg.store p)
      .Measure.runs queries
  in
  let orig = runs program in
  let final = match cfg.transform with Keep -> orig | _ -> runs transformed in
  let measured =
    List.map2
      (fun machine (o, f) ->
        let speedup = o.Measure.cycles /. f.Measure.cycles in
        (* Milli-units: histograms take ints, and log2 buckets on raw
           ratios would collapse every speedup below 2x into one
           bucket. A program with no array traffic reads 0/0, which has
           no bucket. *)
        if Obs.enabled () && Float.is_finite speedup then
          Obs.histogram "driver.speedup_milli"
            (int_of_float (speedup *. 1000.0));
        { machine; original_run = o; transformed_run = f; speedup })
      cfg.machines (List.combine orig final)
  in
  { name; original = program; transformed; compound; optimized_labels;
    measured }

(* --scale multiplies the effective size: an explicit -n scales from
   that base, otherwise from the conventional default of 64. Scale 1
   leaves an absent -n absent (kernels and suite entries keep their own
   defaults). *)
let effective_n cfg =
  if cfg.scale = 1 then cfg.n
  else Some (cfg.scale * Option.value cfg.n ~default:64)

let run cfg =
  match load ?n:(effective_n cfg) cfg.source with
  | Error msg -> Error msg
  | Ok (name, program) -> (
    try Ok (run_loaded cfg name program)
    with e -> Error (named_error name (Printexc.to_string e)))

let run_exn cfg = match run cfg with Ok r -> r | Error msg -> failwith msg
