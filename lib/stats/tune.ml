(* `memoria tune`: enumerate → screen → confirm. See tune.mli. *)

module D = Locality_driver.Driver
module C = Locality_core
module An = Locality_dep.Analysis
module Dep = Locality_dep.Depend
module Measure = Locality_interp.Measure
module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Store = Locality_store.Store
module Obs = Locality_obs.Obs
module Json = Locality_obs.Json
module Pool = Locality_par.Pool

type spec = {
  tiles : int list;
  unrolls : int list;
  top_k : int;
  max_candidates : int;
}

let default_spec =
  { tiles = [ 8; 16; 32; 64 ]; unrolls = [ 2; 4; 8 ]; top_k = 5;
    max_candidates = 4096 }

let quick_spec =
  { tiles = [ 16 ]; unrolls = [ 4 ]; top_k = 1; max_candidates = 96 }

let spec_of_request (ts : Locality_driver.Request.tune_spec) =
  let module R = Locality_driver.Request in
  {
    tiles = Option.value ts.R.t_tiles ~default:default_spec.tiles;
    unrolls = Option.value ts.R.t_unrolls ~default:default_spec.unrolls;
    top_k = Option.value ts.R.t_top_k ~default:default_spec.top_k;
    max_candidates =
      Option.value ts.R.t_max_candidates ~default:default_spec.max_candidates;
  }

type structure = Asis | Fused | Distributed

type candidate = {
  structure : structure;
  perm : string list option;
  tile : int option;
  unroll : (string * int) option;
}

let structure_tag = function
  | Asis -> "asis"
  | Fused -> "fused"
  | Distributed -> "dist"

(* The canonical candidate encoding: the store-key component and the
   lexicographic tie-break, so it must be injective on the space. *)
let encode c =
  Printf.sprintf "S=%s;P=%s;T=%s;U=%s" (structure_tag c.structure)
    (match c.perm with None -> "-" | Some o -> String.concat "," o)
    (match c.tile with None -> "-" | Some t -> string_of_int t)
    (match c.unroll with
    | None -> "-"
    | Some (l, f) -> Printf.sprintf "%s*%d" l f)

type status = Illegal | Screened | Confirmed

type row = {
  enc : string;
  status : status;
  analytic_miss : float option;
  simulated_miss : float option;
}

type result = {
  t_name : string;
  t_machine : Cache.config;
  t_n : int option;
  t_generated : int;
  t_pruned : int;
  t_screened : int;
  t_confirmed : int;
  t_truncated : int;
  t_baseline_miss : float;
  t_memorder_miss : float;
  t_rows : row list;
  t_winner : row option;
  t_winner_program : Program.t;
}

(* ------------------------------------------------------ enumeration --- *)

let spine_names (l : Loop.t) =
  List.map (fun (h : Loop.header) -> h.Loop.index) (Loop.loops_on_spine l)

(* All permutations of [names], the identity first, the rest in the
   lexicographic order induced by the input order — fixed for a fixed
   input, independent of any runtime state. *)
let permutations names =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> not (String.equal y x)) l in
          List.map (fun p -> x :: p) (perms rest))
        l
  in
  names :: List.filter (fun p -> p <> names) (perms names)

(* Deepest top-level nest (first on ties): the tuned region. *)
let target_index (p : Program.t) =
  let best = ref (-1) and besti = ref (-1) in
  List.iteri
    (fun i node ->
      match node with
      | Loop.Loop l ->
        let d = Loop.depth l in
        if d > !best then begin
          best := d;
          besti := i
        end
      | Loop.Stmt _ -> ())
    p.Program.body;
  if !besti < 0 then None else Some !besti

(* Spines deeper than this would make the permutation factor explode;
   keep the identity and memory order only, and let the report say so
   via the truncation count. *)
let max_perm_depth = 5

let enumerate ~spec ~cls (nest : Loop.t) =
  let cross structure base =
    match base with
    | None -> [ { structure; perm = None; tile = None; unroll = None } ]
    | Some b when not (Loop.is_perfect b) ->
      [ { structure; perm = None; tile = None; unroll = None } ]
    | Some b ->
      let names = spine_names b in
      let perms =
        if List.length names > max_perm_depth then
          let mo = C.Memorder.order (C.Memorder.compute ~cls b) in
          names :: (if mo = names then [] else [ mo ])
        else permutations names
      in
      let tiles = None :: List.map (fun t -> Some t) spec.tiles in
      let unrolls =
        None
        :: List.concat_map
             (fun l -> List.map (fun f -> Some (l, f)) spec.unrolls)
             names
      in
      List.concat_map
        (fun perm ->
          List.concat_map
            (fun tile ->
              List.map
                (fun unroll -> { structure; perm = Some perm; tile; unroll })
                unrolls)
            tiles)
        perms
  in
  (* Fusion only enables permutation here (Section 4.3.2): a nest it
     hands back unchanged, as it does every perfect nest, would repeat
     the as-is subtree candidate for candidate, so it lists none. *)
  let fused =
    match C.Fusion.fuse_all_inner ~cls nest with
    | Some l when l = nest -> []
    | fused -> cross Fused fused
  in
  cross Asis (Some nest)
  @ fused
  @ [ { structure = Distributed; perm = None; tile = None; unroll = None } ]

let nest_at (p : Program.t) nest_idx =
  if nest_idx < 0 then None
  else
    match List.nth_opt p.Program.body nest_idx with
    | Some (Loop.Loop nest) -> Some nest
    | Some (Loop.Stmt _) | None -> None

let enumerate_program ~cls spec p =
  Option.bind (target_index p) (fun idx ->
      Option.map (fun nest -> (idx, enumerate ~spec ~cls nest)) (nest_at p idx))

let candidates spec p = enumerate_program ~cls:4 spec p

(* ------------------------------------------------------ application --- *)

(* A candidate is applied in four stages, in enumeration order:
   structure, permutation, tiling, unroll-and-jam. Each stage maps the
   block that replaces the target nest to a new block, [None] when it
   rejects. [apply] composes them for one candidate; [screen_map]
   computes each distinct prefix once for the candidates that share
   it. *)

let shape ~cls nest = function
  | Asis -> Some [ Loop.Loop nest ]
  | Fused ->
    Option.map (fun l -> [ Loop.Loop l ]) (C.Fusion.fuse_all_inner ~cls nest)
  | Distributed ->
    Option.map
      (fun (r : C.Distribution.result) ->
        List.map (fun l -> Loop.Loop l) r.C.Distribution.nests)
      (C.Distribution.run ~cls nest)

let true_deps l = List.filter Dep.is_true_dep (An.deps_in_nest l)

(* [deps l] is [l]'s true dependences, asked for only when [perm]
   reorders the spine. *)
let permute ~deps block perm =
  match (perm, block) with
  | None, b -> Some b
  | Some order, [ Loop.Loop l ] ->
    if order = spine_names l then Some block
    else if not (C.Legality.permutation_legal ~deps:(deps l) ~target:order)
    then None
    else
      Option.map
        (fun l' -> [ Loop.Loop l' ])
        (C.Interchange.permute_spine l order)
  | Some _, _ -> None

(* [band l] is [Tiling.recommend]'s band for [l]; [deps l], when given,
   is [l]'s true dependences. *)
let tile ?deps ~band block t =
  match (t, block) with
  | None, b -> Some b
  | Some t, [ Loop.Loop l ] -> begin
    match band l with
    | [] -> None
    | band ->
      Option.map
        (fun l' -> [ Loop.Loop l' ])
        (C.Tiling.tile ?deps:(Option.map (fun f -> f l) deps) ~sizes:t l ~band)
  end
  | Some _, _ -> None

(* [avoid] is every statement label of the program, which the copies'
   fresh labels must dodge; [deps], when given, is the nest's true
   dependences. *)
let unroll ?deps ~avoid block u =
  match (u, block) with
  | None, b -> Some b
  | Some (loop, factor), [ Loop.Loop l ] ->
    C.Unroll.unroll_and_jam ?deps ~avoid l ~loop ~factor
  | Some _, _ -> None

(* Put the final block in place of the nest. A candidate that breaks
   program invariants is pruned, never propagated: the search must stay
   total. *)
let splice (p : Program.t) ~nest_idx block =
  let body =
    List.concat
      (List.mapi
         (fun i node -> if i = nest_idx then block else [ node ])
         p.Program.body)
  in
  let p' = { p with Program.body } in
  match Program.validate p' with
  | Ok () -> Some p'
  | Error _ -> None

let apply p ~nest_idx cand =
  let ( let* ) = Option.bind in
  let cls = 4 in
  let* nest = nest_at p nest_idx in
  let* b = shape ~cls nest cand.structure in
  let* b = permute ~deps:true_deps b cand.perm in
  let* b = tile ~band:(C.Tiling.recommend ~cls) b cand.tile in
  let* b = unroll ~avoid:(Loop.labels p.Program.body) b cand.unroll in
  splice p ~nest_idx b

(* [f] behind a one-entry cache. The enumeration lists the candidates
   sharing a prefix consecutively, so one entry per stage computes each
   distinct prefix once (any other order is still answered correctly).
   Local to one walk, in one domain. *)
let last_memo eq f =
  let last = ref None in
  fun k ->
    match !last with
    | Some (k', v) when eq k k' -> v
    | _ ->
      let v = f k in
      last := Some (k, v);
      v

(* The screen: structure, permutation and tiling run in the calling
   domain once per distinct prefix, and a rejected prefix prunes every
   candidate below it unapplied: its [f c None] runs right there, in
   enumeration order. Unroll, splice, validation and [f] run per
   candidate with a live prefix, in one fan-out over the pool; [f] gets
   what [apply] would return.

   Each distinct nest is analysed once, in the calling domain, and every
   stage that reads its dependences shares that one analysis. A shaped
   or permuted nest is analysed with its input dependences, which
   [Tiling.recommend] needs; filtered to true ones, the list serves the
   permutation test (on the shaped nest), tiling and, when no tile was
   applied, unroll-and-jam. A tiled nest's true dependences serve
   unroll-and-jam. The lists are immutable, so the fan-out reads them
   from any domain. *)
let screen_map ~cls ?jobs p ~nest_idx cands f =
  let prefixed =
    match nest_at p nest_idx with
    | None -> List.map (fun c -> Either.Left (f c None)) cands
    | Some nest ->
      (* Every candidate below a prefix gets that prefix's very nest, so
         physical identity keys the analyses of a nest. *)
      let analyse ?include_input l =
        Obs.counter "tune.dep_analyses" 1;
        An.deps_in_nest ?include_input l
      in
      let all_deps = last_memo ( == ) (analyse ~include_input:true) in
      let deps =
        last_memo ( == ) (fun l -> List.filter Dep.is_true_dep (all_deps l))
      in
      (* The identity order comes first, so when a reordering asks for
         the shaped nest's dependences, [deps] still holds them. *)
      let shaped_deps = last_memo ( == ) deps in
      let tiled_deps = last_memo ( == ) analyse in
      let band =
        last_memo ( == ) (fun l -> C.Tiling.recommend ~deps:(all_deps l) ~cls l)
      in
      let shaped = last_memo ( = ) (shape ~cls nest) in
      let permuted =
        last_memo ( = ) (fun (s, perm) ->
            Option.bind (shaped s) (fun b -> permute ~deps:shaped_deps b perm))
      in
      let tiled =
        last_memo ( = ) (fun (s, perm, t) ->
            Option.bind (permuted (s, perm)) (fun b -> tile ~deps ~band b t))
      in
      List.map
        (fun c ->
          match tiled (c.structure, c.perm, c.tile) with
          | None -> Either.Left (f c None)
          | Some b ->
            let jam_deps =
              match (c.unroll, b) with
              | Some _, [ Loop.Loop l ] ->
                Some (if c.tile = None then deps l else tiled_deps l)
              | _, _ -> None
            in
            Either.Right (c, b, jam_deps))
        cands
  in
  let avoid = Loop.labels p.Program.body in
  let live =
    Pool.map ?jobs
      (fun (c, b, deps) ->
        f c
          (Option.bind (unroll ?deps ~avoid b c.unroll) (splice p ~nest_idx)))
      (List.filter_map Either.find_right prefixed)
  in
  (* Put the live answers back among the pruned ones. *)
  let rec merge prefixed live =
    match (prefixed, live) with
    | Either.Left v :: rest, live -> v :: merge rest live
    | Either.Right _ :: rest, v :: live -> v :: merge rest live
    | [], _ | Either.Right _ :: _, [] -> []
  in
  merge prefixed live

let apply_all ?jobs p ~nest_idx cands =
  screen_map ~cls:4 ?jobs p ~nest_idx cands (fun _ applied -> applied)

(* ------------------------------------------------------- evaluation --- *)

let miss_of (r : Measure.run) =
  let w = r.Measure.whole in
  if w.Measure.accesses = 0 then 0.0
  else
    100.0
    *. float_of_int (w.Measure.accesses - w.Measure.hits)
    /. float_of_int w.Measure.accesses

(* One candidate's whole-program miss rate in one replay mode. The
   store memoizes the run under the transformed program's text, so a
   candidate reached from different starting points (the six matmul
   orders permute into each other) is measured once. *)
let measure_miss ~mode ~machine ~params ~store p =
  miss_of
    (Measure.replay_prepared ~config:machine
       (Measure.prepare ~mode ?params ~store p))

(* ------------------------------------------------------------ search --- *)

(* The wire's range rules, so a hand-built spec gets a typed error
   instead of an exception from a stage (a tile of 0, say). *)
let spec_error ~name spec =
  let module R = Locality_driver.Request in
  Option.map
    (fun (field, problem) ->
      Printf.sprintf "%s: tune spec: field %S: %s" name field problem)
    (R.tune_spec_error
       { R.t_top_k = Some spec.top_k; t_tiles = Some spec.tiles;
         t_unrolls = Some spec.unrolls;
         t_max_candidates = Some spec.max_candidates })

(* Enumerate, screen and confirm [program]; [None] when it has no loop
   nest. The rest of the result, the baseline's and the memory order's
   miss rates, comes from the baseline run beside the search. *)
let search ~spec ?n ~cls ~machine ?params ?jobs ~store ~name program =
  match Obs.span "tune.enumerate" (fun () -> enumerate_program ~cls spec program) with
  | None -> None
  | Some (nest_idx, all) ->
    let generated = List.length all in
    Obs.counter "tune.generated" generated;
    let kept, dropped =
      if generated <= spec.max_candidates then (all, 0)
      else
        let rec split n acc = function
          | rest when n = 0 -> (List.rev acc, List.length rest)
          | [] -> (List.rev acc, 0)
          | x :: rest -> split (n - 1) (x :: acc) rest
        in
        split spec.max_candidates [] all
    in
    if dropped > 0 then Obs.counter "tune.truncated" dropped;
    (* Screen every candidate; the legal ones are costed with the
       analytic fast path. *)
    let screened =
      Obs.span "tune.screen" (fun () ->
          screen_map ~cls ?jobs program ~nest_idx kept (fun cand applied ->
              let enc = encode cand in
              match applied with
              | None ->
                Obs.counter "tune.pruned_illegal" 1;
                ( { enc; status = Illegal; analytic_miss = None;
                    simulated_miss = None },
                  None )
              | Some p' ->
                Obs.counter "tune.screened" 1;
                let miss =
                  measure_miss ~mode:Measure.Analytic ~machine ~params
                    ~store p'
                in
                Obs.histogram "tune.screen.miss_bp"
                  (int_of_float (miss *. 100.0));
                ( { enc; status = Screened; analytic_miss = Some miss;
                    simulated_miss = None },
                  Some p' )))
    in
    let pruned =
      List.length (List.filter (fun (r, _) -> r.status = Illegal) screened)
    in
    (* Confirm the analytically best top-K with the exact simulator;
       ties at equal analytic score break on the encoding. *)
    let finalists =
      let legal =
        List.filter_map
          (fun (r, applied) ->
            match (r.analytic_miss, applied) with
            | Some a, Some p' -> Some (r.enc, a, p')
            | _, _ -> None)
          screened
      in
      let sorted =
        List.stable_sort
          (fun (e1, a1, _) (e2, a2, _) ->
            match compare a1 a2 with
            | 0 -> String.compare e1 e2
            | c -> c)
          legal
      in
      let rec take n = function
        | [] -> []
        | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest
      in
      take spec.top_k sorted
    in
    let confirmed =
      Obs.span "tune.confirm" (fun () ->
          Pool.map ?jobs
            (fun (enc, analytic, p') ->
              Obs.counter "tune.simulated" 1;
              let miss =
                measure_miss ~mode:Measure.Runs ~machine ~params ~store p'
              in
              Obs.histogram "tune.confirm.miss_bp"
                (int_of_float (miss *. 100.0));
              (enc, analytic, miss, p'))
            finalists)
    in
    let winner =
      match
        List.stable_sort
          (fun (e1, _, m1, _) (e2, _, m2, _) ->
            match compare m1 m2 with
            | 0 -> String.compare e1 e2
            | c -> c)
          confirmed
      with
      | [] -> None
      | w :: _ -> Some w
    in
    let rows =
      List.map
        (fun (r, _) ->
          match
            List.find_opt (fun (enc, _, _, _) -> enc = r.enc) confirmed
          with
          | Some (_, _, miss, _) ->
            { r with status = Confirmed; simulated_miss = Some miss }
          | None -> r)
        screened
    in
    let winner_row, winner_program =
      match winner with
      | Some (enc, analytic, miss, p') ->
        ( Some
            { enc; status = Confirmed; analytic_miss = Some analytic;
              simulated_miss = Some miss },
          p' )
      | None -> (None, program)
    in
    Some
      (fun ~baseline_miss ~memorder_miss ->
        {
          t_name = name;
          t_machine = machine;
          t_n = n;
          t_generated = generated;
          t_pruned = pruned;
          t_screened = List.length kept - pruned;
          t_confirmed = List.length confirmed;
          t_truncated = dropped;
          t_baseline_miss = baseline_miss;
          t_memorder_miss = memorder_miss;
          t_rows = rows;
          t_winner = winner_row;
          t_winner_program = winner_program;
        })

let run_config ?(spec = default_spec) ?jobs (cfg : D.config) =
  let n = D.effective_n cfg in
  match D.load ?n cfg.D.source with
  | Error e -> Error e
  | Ok (name, program) -> (
    match spec_error ~name spec with
    | Some e -> Error e
    | None -> (
      let cls = cfg.D.cls and params = cfg.D.params and store = cfg.D.store in
      let machine =
        match cfg.D.machines with m :: _ -> m | [] -> Machine.cache1
      in
      (* Baseline and the paper's single-pass answer, measured exactly:
         the tuned winner is judged against the compound (memory-order)
         result on the same geometry. They run on a helper beside the
         search, which reads the same loaded program. A store hit may
         hand the baseline an original labelled differently from
         [program], but labels appear in no tune output. *)
      let baseline () =
        D.run
          (D.config ~cls ~machines:[ machine ] ?params ~replay:Measure.Runs
             ~store
             (D.Source_program { name; program }))
      in
      (* The search's exception waits until the baseline's error, which
         wins, has been looked at. *)
      let searched () =
        match
          search ~spec ?n ~cls ~machine ?params ?jobs ~store ~name program
        with
        | s -> Ok s
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      match Pool.both ?jobs baseline searched with
      | Error e, _ -> Error e
      | Ok { D.measured = []; _ }, _ ->
        Error (Printf.sprintf "%s: no measurement" name)
      | Ok _, Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Ok _, Ok None -> Error (Printf.sprintf "%s: no loop nest to tune" name)
      | Ok { D.measured = m :: _; _ }, Ok (Some finish) ->
        Ok
          (finish ~baseline_miss:(miss_of m.D.original_run)
             ~memorder_miss:(miss_of m.D.transformed_run))))

let run ?spec ?n ?(machine = Machine.cache1) ?jobs ?store ~name p =
  run_config ?spec ?jobs
    (D.config ?n ~machines:[ machine ] ?store
       (D.Source_program { name; program = p }))

(* ------------------------------------------------------- reporting --- *)

let fmt_opt = function None -> "-" | Some f -> Printf.sprintf "%.2f" f

let top_rows t =
  let shown =
    List.filter (fun r -> r.status = Confirmed) t.t_rows
  in
  List.stable_sort
    (fun r1 r2 ->
      match compare r1.simulated_miss r2.simulated_miss with
      | 0 -> String.compare r1.enc r2.enc
      | c -> c)
    shown

let render t =
  let b = Buffer.create 1024 in
  let addf fmt =
    Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt
  in
  addf "tune: %s on %s%s" t.t_name t.t_machine.Cache.name
    (match t.t_n with None -> "" | Some n -> Printf.sprintf " (n=%d)" n);
  addf
    "candidates: %d generated, %d pruned illegal, %d screened (analytic), %d \
     confirmed (exact)%s"
    t.t_generated t.t_pruned t.t_screened t.t_confirmed
    (if t.t_truncated > 0 then
       Printf.sprintf ", %d dropped beyond max-candidates" t.t_truncated
     else "");
  addf "baseline miss: %.2f%%   memory order (compound) miss: %.2f%%"
    t.t_baseline_miss t.t_memorder_miss;
  (match top_rows t with
  | [] -> addf "no legal candidate was confirmed; keeping the original"
  | rows ->
    addf "%-4s %-40s %10s %10s" "rank" "candidate" "analytic%" "exact%";
    List.iteri
      (fun i r ->
        addf "%-4d %-40s %10s %10s" (i + 1) r.enc (fmt_opt r.analytic_miss)
          (fmt_opt r.simulated_miss))
      rows);
  (match t.t_winner with
  | None -> ()
  | Some w ->
    addf "winner: %s  simulated %.2f%% (memory order %.2f%%: %s)" w.enc
      (Option.value ~default:0.0 w.simulated_miss)
      t.t_memorder_miss
      (if Option.value ~default:infinity w.simulated_miss
          <= t.t_memorder_miss +. 1e-9
       then "matched or beaten"
       else "not beaten"));
  Buffer.contents b

let float_json f = Printf.sprintf "%.4f" f

let row_json r =
  Json.obj
    ([ ("candidate", Json.str r.enc);
       ( "status",
         Json.str
           (match r.status with
           | Illegal -> "illegal"
           | Screened -> "screened"
           | Confirmed -> "confirmed") );
     ]
    @ (match r.analytic_miss with
      | None -> []
      | Some a -> [ ("analytic_miss_rate", float_json a) ])
    @
    match r.simulated_miss with
    | None -> []
    | Some s -> [ ("simulated_miss_rate", float_json s) ])

let to_json t =
  Json.versioned
    ([
       ("program", Json.str t.t_name);
       ("cache", Json.str t.t_machine.Cache.name);
       ("generated", Json.int t.t_generated);
       ("pruned_illegal", Json.int t.t_pruned);
       ("screened", Json.int t.t_screened);
       ("confirmed", Json.int t.t_confirmed);
       ("truncated", Json.int t.t_truncated);
       ("baseline_miss_rate", float_json t.t_baseline_miss);
       ("memory_order_miss_rate", float_json t.t_memorder_miss);
       ("top", Json.list (List.map row_json (top_rows t)));
     ]
    @
    match t.t_winner with
    | None -> []
    | Some w -> [ ("winner", row_json w) ])
  ^ "\n"
