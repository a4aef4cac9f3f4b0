module Obs = Locality_obs.Obs
module Event = Locality_obs.Event
module Json = Locality_obs.Json
module Compound = Locality_core.Compound

type entry = {
  decision : Event.decision;
  notes : Event.t list;
}

type t = {
  name : string;
  entries : entry list;
  stats : Compound.stats;
  transformed : Program.t;
  block_notes : Event.t list;
  events : Event.t list;
}

let entries t = t.entries
let stats t = t.stats
let events t = t.events

let is_instant (e : Event.t) =
  match e.Event.payload with Event.Instant _ -> true | _ -> false

let run ?cls ?interference_limit ~name program =
  let (transformed, stats), events =
    Obs.collect (fun () ->
        Compound.run_program ?cls ?interference_limit program)
  in
  let decisions =
    List.filter_map
      (fun (e : Event.t) ->
        match e.Event.payload with
        | Event.Decision d -> Some d
        | _ -> None)
      events
  in
  let entries =
    List.map
      (fun (d : Event.decision) ->
        let notes =
          List.filter
            (fun (e : Event.t) ->
              is_instant e && String.equal e.Event.ctx d.Event.nest)
            events
        in
        { decision = d; notes })
      decisions
  in
  let claimed = Hashtbl.create 16 in
  List.iter
    (fun (d : Event.decision) -> Hashtbl.replace claimed d.Event.nest ())
    decisions;
  let block_notes =
    List.filter
      (fun (e : Event.t) ->
        is_instant e && not (Hashtbl.mem claimed e.Event.ctx))
      events
  in
  { name; entries; stats; transformed; block_notes; events }

(* ----------------------------------------------------- narrative --- *)

let order_str = String.concat ","

let note_line (e : Event.t) =
  match e.Event.payload with
  | Event.Instant { name; args } ->
    let kv = List.map (fun (k, v) -> k ^ "=" ^ v) args in
    Printf.sprintf "    - %s %s" name (String.concat " " kv)
  | _ -> ""

let entry_lines { decision = d; notes } =
  let b = Buffer.create 256 in
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  addf "%s (depth %d, statements %s)" d.Event.nest d.Event.depth
    (String.concat "," d.Event.labels);
  addf "  action: %s" (Event.action_to_string d.Event.action);
  addf "  reason: %s" d.Event.reason;
  let achieved =
    String.concat " ; " (List.map order_str d.Event.achieved_orders)
  in
  addf "  loop order: %s -> %s  (memory order %s)"
    (order_str d.Event.original_order)
    achieved
    (order_str d.Event.memory_order);
  addf "  LoopCost, most to least expensive innermost candidate:";
  List.iter (fun (x, c) -> addf "    %s: %s" x c) d.Event.costs;
  (match notes with
  | [] -> ()
  | _ :: _ ->
    addf "  notes:";
    List.iter (fun e -> addf "%s" (note_line e)) notes);
  Buffer.contents b

let render t =
  let s = t.stats in
  let b = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (fun x -> Buffer.add_string b (x ^ "\n")) fmt in
  addf "memoria explain: %s" t.name;
  addf
    "%d nest(s) of depth >= 2; %d fusion candidate(s), %d fusion(s) applied, \
     %d distribution(s) producing %d nest(s)"
    (List.length s.Compound.nests)
    s.Compound.fusion_candidates s.Compound.fusions_applied
    s.Compound.distributions s.Compound.distribution_results;
  Buffer.add_string b "\n";
  List.iter
    (fun e ->
      Buffer.add_string b (entry_lines e);
      Buffer.add_string b "\n")
    t.entries;
  (match t.block_notes with
  | [] -> ()
  | _ :: _ ->
    addf "block-level notes (cross-nest fusion and other passes):";
    List.iter (fun e -> addf "%s" (note_line e)) t.block_notes);
  Buffer.contents b

(* ---------------------------------------------------------- JSON --- *)

(* The document shape is written down in doc/SCHEMA.md; bump
   [Json.schema_version] only on incompatible changes. *)

let note_json (e : Event.t) =
  match e.Event.payload with
  | Event.Instant { name; args } ->
    Some
      (Json.obj
         [
           ("name", Json.str name);
           ("args", Json.obj (List.map (fun (k, v) -> (k, Json.str v)) args));
         ])
  | _ -> None

let entry_json { decision = d; notes } =
  Json.obj
    [
      ("nest", Json.str d.Event.nest);
      ("labels", Json.strings d.Event.labels);
      ("depth", Json.int d.Event.depth);
      ("action", Json.str (Event.action_to_string d.Event.action));
      ("reason", Json.str d.Event.reason);
      ("original_order", Json.strings d.Event.original_order);
      ("achieved_orders", Json.list (List.map Json.strings d.Event.achieved_orders));
      ("memory_order", Json.strings d.Event.memory_order);
      ("loop_costs", Json.obj (List.map (fun (x, c) -> (x, Json.str c)) d.Event.costs));
      ("notes", Json.list (List.filter_map note_json notes));
    ]

let to_json t =
  let s = t.stats in
  Json.versioned
    [
      ("program", Json.str t.name);
      ("nests", Json.int (List.length s.Compound.nests));
      ("fusion_candidates", Json.int s.Compound.fusion_candidates);
      ("fusions_applied", Json.int s.Compound.fusions_applied);
      ("distributions", Json.int s.Compound.distributions);
      ("distribution_results", Json.int s.Compound.distribution_results);
      ("decisions", Json.list (List.map entry_json t.entries));
      ("block_notes", Json.list (List.filter_map note_json t.block_notes));
    ]
  ^ "\n"
