module C = Locality_core
module S = Locality_suite
module D = Locality_driver.Driver
module Settings = Locality_driver.Settings

type row = {
  entry : S.Programs.entry;
  loops : int;
  nests : int;
  orig : int;
  perm : int;
  fail : int;
  inner_orig : int;
  inner_perm : int;
  inner_fail : int;
  fusion_candidates : int;
  fusions : int;
  dist : int;
  dist_results : int;
  ratio_final : float;
  ratio_ideal : float;
  original : Program.t;
  transformed : Program.t;
  optimized_labels : string list;
}

let count_loops (p : Program.t) =
  let rec go_block b =
    List.fold_left
      (fun acc node ->
        match node with
        | Loop.Stmt _ -> acc
        | Loop.Loop l -> acc + 1 + go_block l.Loop.body)
      0 b
  in
  go_block p.Program.body

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let ratio_avg eval_n pairs =
  let ratios =
    List.filter_map
      (fun (a, b) ->
        let fa = Poly.eval a (fun _ -> eval_n) in
        let fb = Poly.eval b (fun _ -> eval_n) in
        if fb > 0.0 then Some (fa /. fb) else None)
      pairs
  in
  match ratios with
  | [] -> 1.0
  | _ -> List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)

let compute_row ?(settings = Settings.default ()) ?(n = 24) entry =
  let r = D.run_exn (Settings.config settings ~n (D.Source_entry entry)) in
  let original = r.D.original in
  let stats = Option.get r.D.compound in
  let nests = stats.C.Compound.nests in
  let count f = List.length (List.filter f nests) in
  let eval_n = float_of_int n in
  {
    entry;
    loops = count_loops original;
    nests = List.length nests;
    orig = count (fun s -> s.C.Compound.orig_mem_order);
    perm =
      count (fun s ->
          (not s.C.Compound.orig_mem_order) && s.C.Compound.final_mem_order);
    fail = count (fun s -> not s.C.Compound.final_mem_order);
    inner_orig = count (fun s -> s.C.Compound.orig_inner_ok);
    inner_perm =
      count (fun s ->
          (not s.C.Compound.orig_inner_ok) && s.C.Compound.final_inner_ok);
    inner_fail = count (fun s -> not s.C.Compound.final_inner_ok);
    fusion_candidates = stats.C.Compound.fusion_candidates;
    fusions = stats.C.Compound.fusions_applied;
    dist = stats.C.Compound.distributions;
    dist_results = stats.C.Compound.distribution_results;
    ratio_final =
      ratio_avg eval_n
        (List.map
           (fun s -> (s.C.Compound.cost_orig, s.C.Compound.cost_final))
           nests);
    ratio_ideal =
      ratio_avg eval_n
        (List.map
           (fun s -> (s.C.Compound.cost_orig, s.C.Compound.cost_ideal))
           nests);
    original;
    transformed = r.D.transformed;
    optimized_labels = r.D.optimized_labels;
  }

(* Rows are independent per program, so they are computed on the domain
   pool; results come back in suite order regardless of pool size. *)
let compute ?(settings = Settings.default ()) ?n () =
  Locality_par.Pool.map ~jobs:settings.Settings.jobs
    (compute_row ~settings ?n)
    S.Programs.all

let render rows =
  let header =
    [
      "Program"; "Lines"; "Loops"; "Nests"; "Orig%"; "Perm%"; "Fail%";
      "iOrig%"; "iPerm%"; "iFail%"; "FusC"; "FusA"; "DistD"; "DistR";
      "Final"; "Ideal";
    ]
  in
  let body =
    List.map
      (fun r ->
        [
          r.entry.S.Programs.name;
          string_of_int r.entry.S.Programs.lines;
          string_of_int r.loops;
          string_of_int r.nests;
          Printf.sprintf "%.0f" (pct r.orig r.nests);
          Printf.sprintf "%.0f" (pct r.perm r.nests);
          Printf.sprintf "%.0f" (pct r.fail r.nests);
          Printf.sprintf "%.0f" (pct r.inner_orig r.nests);
          Printf.sprintf "%.0f" (pct r.inner_perm r.nests);
          Printf.sprintf "%.0f" (pct r.inner_fail r.nests);
          string_of_int r.fusion_candidates;
          string_of_int r.fusions;
          string_of_int r.dist;
          string_of_int r.dist_results;
          Printf.sprintf "%.2f" r.ratio_final;
          Printf.sprintf "%.2f" r.ratio_ideal;
        ])
      rows
  in
  let subtotal label rows =
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
    let tn = sum (fun r -> r.nests) in
    [
      label; ""; string_of_int (sum (fun r -> r.loops));
      string_of_int tn;
      Printf.sprintf "%.0f" (pct (sum (fun r -> r.orig)) tn);
      Printf.sprintf "%.0f" (pct (sum (fun r -> r.perm)) tn);
      Printf.sprintf "%.0f" (pct (sum (fun r -> r.fail)) tn);
      Printf.sprintf "%.0f" (pct (sum (fun r -> r.inner_orig)) tn);
      Printf.sprintf "%.0f" (pct (sum (fun r -> r.inner_perm)) tn);
      Printf.sprintf "%.0f" (pct (sum (fun r -> r.inner_fail)) tn);
      string_of_int (sum (fun r -> r.fusion_candidates));
      string_of_int (sum (fun r -> r.fusions));
      string_of_int (sum (fun r -> r.dist));
      string_of_int (sum (fun r -> r.dist_results));
      ""; "";
    ]
  in
  let groups =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun r ->
        let g = r.entry.S.Programs.group in
        if Hashtbl.mem seen g then None
        else begin
          Hashtbl.replace seen g ();
          Some g
        end)
      rows
  in
  let group_rows =
    List.map
      (fun g ->
        subtotal (g ^ " subtotal")
          (List.filter (fun r -> r.entry.S.Programs.group = g) rows))
      groups
  in
  Report.render
    ~title:"Table 2: Memory Order Statistics"
    ~note:
      "Synthetic reconstructions of the paper's 35 programs (Lines = paper's \
       size). Orig/Perm/Fail = % of nests in / permuted into / failing \
       memory order; iXxx = same for the innermost loop; Final/Ideal = \
       average LoopCost(original)/LoopCost(version)."
    [ Report.Left ]
    header
    (body @ group_rows @ [ subtotal "totals" rows ])
