(* The telemetry sink: persists one Record per invocation into a
   telemetry/ namespace beside the store's objects/, one JSON file per
   run, published with the store's atomic tmp+rename so concurrent runs
   sharing a store never interleave. Everything is best-effort — a full
   disk or unwritable store must never fail the run that produced the
   record. *)

module Store = Locality_store.Store

let dir store = Filename.concat (Store.root store) "telemetry"

(* Best-effort `git describe` so records say what code produced them;
   one lazy subprocess per process, "unknown" anywhere git isn't. *)
let git_version =
  lazy
    (try
       let ic =
         Unix.open_process_in "git describe --always --dirty 2>/dev/null"
       in
       let line = try input_line ic with End_of_file -> "" in
       match (Unix.close_process_in ic, line) with
       | Unix.WEXITED 0, line when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

let git_describe () = Lazy.force git_version

let now_epoch_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* <ts_ns>-<pid>.json sorts chronologically by name and cannot collide
   across concurrent processes sharing a store. *)
let filename (r : Record.t) =
  Printf.sprintf "%020Ld-%d.json" r.Record.ts_ns (Unix.getpid ())

let publish store r =
  let path = Filename.concat (dir store) (filename r) in
  if Store.atomic_write ~path (Record.to_json r) then Some path else None

(* History, oldest first. Unreadable or unparsable files are skipped —
   a corrupt record costs one data point, never the command. *)
let load_dir d =
  let names = try Sys.readdir d with Sys_error _ -> [||] in
  Array.sort String.compare names;
  Array.to_list names
  |> List.filter_map (fun name ->
         if Filename.check_suffix name ".json" then
           let path = Filename.concat d name in
           try
             let ic = open_in_bin path in
             Fun.protect
               ~finally:(fun () -> close_in_noerr ic)
               (fun () ->
                 Record.of_string
                   (really_input_string ic (in_channel_length ic)))
           with Sys_error _ | End_of_file -> None
         else None)
  |> List.stable_sort (fun (a : Record.t) b ->
         Int64.compare a.Record.ts_ns b.Record.ts_ns)

let load store = load_dir (dir store)
