(* Minimal JSON emission shared by every machine-readable surface (the
   Chrome trace exporter here, `memoria explain --json` in lib/stats).
   Emitters build strings bottom-up; there is deliberately no printer
   state, so output is deterministic and composable. *)

let schema_version = 1

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = "\"" ^ escape s ^ "\""
let int = string_of_int
let list items = "[" ^ String.concat "," items ^ "]"
let strings l = list (List.map str l)

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let versioned fields = obj (("schema_version", int schema_version) :: fields)
