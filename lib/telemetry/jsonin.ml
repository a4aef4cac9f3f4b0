(* Minimal JSON reader for wire requests: the dual of the emitter in
   Locality_obs.Json. A hand-rolled recursive descent keeps the library
   dependency-free; it accepts standard RFC 8259 documents (which is all
   our own emitter produces) and raises [Parse_error] on anything
   malformed — the request reader turns that into a typed error. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type state = {
  src : string;
  mutable pos : int;
  (* Byte offset of every object key parsed, newest first — the request
     reader ([Locality_driver.Request]) turns these into line:col
     positions for its unknown-field diagnostics. *)
  mutable keys : (string * int) list;
}

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      go ()
    | _ -> ()
  in
  go ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail "expected '%c' at %d, got '%c'" c st.pos x
  | None -> fail "expected '%c' at %d, got end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "bad literal at %d" st.pos

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string at %d" st.pos
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'; advance st
      | Some '\\' -> Buffer.add_char buf '\\'; advance st
      | Some '/' -> Buffer.add_char buf '/'; advance st
      | Some 'b' -> Buffer.add_char buf '\b'; advance st
      | Some 'f' -> Buffer.add_char buf '\012'; advance st
      | Some 'n' -> Buffer.add_char buf '\n'; advance st
      | Some 'r' -> Buffer.add_char buf '\r'; advance st
      | Some 't' -> Buffer.add_char buf '\t'; advance st
      | Some 'u' ->
        advance st;
        if st.pos + 4 > String.length st.src then
          fail "truncated \\u escape at %d" st.pos;
        let hex = String.sub st.src st.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex)
          with _ -> fail "bad \\u escape at %d" st.pos
        in
        st.pos <- st.pos + 4;
        (* Our own emitter only \u-escapes control characters; anything
           outside one byte degrades to '?' rather than full UTF-8. *)
        if code < 0x100 then Buffer.add_char buf (Char.chr code)
        else Buffer.add_char buf '?'
      | _ -> fail "bad escape at %d" st.pos);
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail "bad number %S at %d" s start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input at %d" st.pos
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key_pos = st.pos in
        let k = parse_string st in
        st.keys <- (k, key_pos) :: st.keys;
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((k, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((k, v) :: acc)
        | _ -> fail "expected ',' or '}' at %d" st.pos
      in
      Obj (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail "expected ',' or ']' at %d" st.pos
      in
      List (elements [])
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse_keyed src =
  let st = { src; pos = 0; keys = [] } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then fail "trailing garbage at %d" st.pos;
  (v, List.rev st.keys)

let parse src = fst (parse_keyed src)

let parse_opt src = try Some (parse src) with Parse_error _ -> None

let line_col src pos =
  let pos = min (max pos 0) (String.length src) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to pos - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, pos - !bol + 1)

(* ---------------------------------------------------- accessors --- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_float_opt = function Num f -> Some f | _ -> None

let to_int_opt = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let obj_fields = function Obj fields -> Some fields | _ -> None
