module Obs = Locality_obs.Obs
module Pool = Locality_par.Pool

type failure = {
  index : int;
  findings : Oracle.finding list;
  program : Program.t;
  shrunk : Program.t;
  shrink_steps : int;
}

type outcome = {
  generated : int;
  failures : failure list;
  corpus_files : string list;
}

let check_one ~oracles p =
  match Oracle.check ~oracles p with
  | findings -> findings
  | exception e ->
    [
      {
        Oracle.kind = `Exec;
        detail = "exception: " ^ Printexc.to_string e;
      };
    ]

let run ?jobs ?(oracles = Oracle.all) ?corpus_dir ~seed ~count ~max_size () =
  let work index =
    let p = Gen.generate ~seed ~index ~size:max_size in
    Obs.counter "fuzz.programs" 1;
    match check_one ~oracles p with
    | [] -> None
    | findings ->
      Obs.counter "fuzz.failures" 1;
      (* Shrink against exactly the disagreements that fired — oracle
         kind plus whether it was a genuine disagreement or an escaping
         exception — so minimisation cannot wander onto a different
         class of bug (e.g. from a wrong transform onto a program that
         merely crashes the interpreter). *)
      let signature (f : Oracle.finding) =
        (f.Oracle.kind, String.starts_with ~prefix:"exception:" f.Oracle.detail)
      in
      let signatures = List.sort_uniq compare (List.map signature findings) in
      let kinds = List.sort_uniq compare (List.map fst signatures) in
      let fails q =
        List.exists
          (fun f -> List.mem (signature f) signatures)
          (check_one ~oracles:kinds q)
      in
      let shrunk, shrink_steps = Shrink.shrink ~fails p in
      Obs.counter "fuzz.shrink_steps" shrink_steps;
      Some { index; findings; program = p; shrunk; shrink_steps }
  in
  (* The compiler probe is a lazy value; forcing it from several pool
     domains at once raises, and the raise would read as an [`Exec]
     finding. Force it here, before the fan-out. *)
  if List.mem `Cgen oracles then ignore (Oracle.cgen_available ());
  let results = Pool.map ?jobs work (List.init count (fun i -> i)) in
  let failures = List.filter_map Fun.id results in
  let corpus_files =
    match corpus_dir with
    | None -> []
    | Some dir ->
      List.map
        (fun f ->
          Corpus.save ~dir ~seed ~index:f.index
            ~finding:(List.hd f.findings) f.shrunk)
        failures
  in
  { generated = count; failures; corpus_files }
