(* Settings resolved once at an executable's edge — see settings.mli. *)

module Measure = Locality_interp.Measure
module Store = Locality_store.Store
module Pool = Locality_par.Pool
module Sample = Locality_sample.Sample

type t = {
  jobs : int;
  replay : Measure.replay_mode;
  sample_rate : float;
  store : Store.t option;
}

let default () =
  {
    jobs = Pool.default_jobs ();
    replay = Measure.Runs;
    sample_rate = Sample.default_rate;
    store = None;
  }

let open_store root =
  try Some (Store.open_root root)
  with e ->
    Printf.eprintf "memoria: ignoring MEMORIA_STORE=%s (%s)\n%!" root
      (Printexc.to_string e);
    None

let of_env ?(cores = Domain.recommended_domain_count ())
    ?(open_store = open_store) env =
  let var name = List.assoc_opt name env in
  let cores = max 1 cores in
  let jobs =
    match
      Option.bind (var "MEMORIA_JOBS") (fun s ->
          int_of_string_opt (String.trim s))
    with
    | Some j when j >= 1 -> min j cores
    | _ -> min 8 cores
  in
  {
    jobs;
    replay =
      Option.value ~default:Measure.Runs
        (Option.bind (var "MEMORIA_REPLAY") Measure.mode_of_string);
    sample_rate =
      (match Option.bind (var "MEMORIA_SAMPLE_RATE") float_of_string_opt with
      | Some r when r > 0.0 && r <= 1.0 -> r
      | _ -> Sample.default_rate);
    store =
      (match var "MEMORIA_STORE" with
      | None | Some "" -> None
      | Some root -> open_store root);
  }

let environment entries =
  List.filter_map
    (fun kv ->
      Option.map
        (fun i ->
          (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1)))
        (String.index_opt kv '='))
    (Array.to_list entries)

let config s =
  Driver.config ~replay:s.replay ~sample_rate:s.sample_rate ~store:s.store
