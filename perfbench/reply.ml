(* Reading the daemon's reply lines: the outcome a reply counts as, and
   the form in which two replies are compared. *)

module Jsonin = Locality_telemetry.Jsonin

let status_and_id reply =
  match Jsonin.parse_opt reply with
  | None -> (None, None)
  | Some doc ->
    let str k = Option.bind (Jsonin.member k doc) Jsonin.to_string_opt in
    (str "status", str "id")

(* Classify one reply for the tally: a typed non-ok status is a failure
   of that kind, a wrong id or an unreadable line a mismatch. *)
let classify ~id reply =
  match status_and_id reply with
  | Some "ok", Some got when got = id -> Bstat.Ok_op
  | Some "ok", _ | None, _ -> Bstat.Failed "mismatch"
  | Some status, _ -> Bstat.Failed status

(* A response line with the tickets in its ["optimized_labels"] array
   renamed L1, L2, ... in order of first appearance. Statement labels
   are drawn from a process-wide counter when a program is built or
   parsed, so two processes answering the same request name the same
   statements differently; the structure must still agree. *)
let canonical_labels reply =
  let key = "\"optimized_labels\":[" in
  let klen = String.length key in
  let rec find i =
    if i + klen > String.length reply then None
    else if String.sub reply i klen = key then Some (i + klen)
    else find (i + 1)
  in
  match find 0 with
  | None -> reply
  | Some start -> (
    match String.index_from_opt reply start ']' with
    | None -> reply
    | Some stop ->
      let inner = String.sub reply start (stop - start) in
      let labels = if inner = "" then [] else String.split_on_char ',' inner in
      let names = Hashtbl.create 8 in
      let rename l =
        match Hashtbl.find_opt names l with
        | Some n -> n
        | None ->
          let n = Printf.sprintf "\"L%d\"" (Hashtbl.length names + 1) in
          Hashtbl.replace names l n;
          n
      in
      String.sub reply 0 start
      ^ String.concat "," (List.map rename labels)
      ^ String.sub reply stop (String.length reply - stop))

(* The outcome of a reply given [want], the in-process response to the
   same request. A refusal (overloaded, timeout) counts as its kind with
   nothing to compare. Any other reply, an error envelope included, must
   equal [want] up to label tickets, or it is a mismatch. *)
let outcome ~id ~want reply =
  match classify ~id reply with
  | Bstat.Failed ("overloaded" | "timeout") as refusal -> refusal
  | o -> if canonical_labels (Lazy.force want) = canonical_labels reply then o else Bstat.Failed "mismatch"
