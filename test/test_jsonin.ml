(* The JSON reader behind the wire request parser: values, malformed
   documents, and everything the shared emitter writes. *)

module Jsonin = Locality_telemetry.Jsonin

let checkb = Alcotest.check Alcotest.bool

let test_jsonin_values () =
  let open Jsonin in
  checkb "null" true (parse_opt "null" = Some Null);
  checkb "bool" true (parse_opt " true " = Some (Bool true));
  checkb "int" true (parse_opt "42" = Some (Num 42.0));
  checkb "float" true (parse_opt "-2.5e2" = Some (Num (-250.0)));
  checkb "string escapes" true
    (parse_opt {|"a\n\"b\"A"|} = Some (Str "a\n\"b\"A"));
  checkb "array" true (parse_opt "[1,2]" = Some (List [ Num 1.0; Num 2.0 ]));
  checkb "object" true
    (parse_opt {|{"k":1,"l":[]}|} = Some (Obj [ ("k", Num 1.0); ("l", List []) ]));
  checkb "empties" true (parse_opt {|{"a":{},"b":[]}|} <> Some Null)

let test_jsonin_rejects_malformed () =
  let bad s = Jsonin.parse_opt s = None in
  checkb "trailing garbage" true (bad "{} x");
  checkb "unterminated string" true (bad {|{"a":"b|});
  checkb "missing colon" true (bad {|{"a" 1}|});
  checkb "bare word" true (bad "flase");
  checkb "truncated object" true (bad {|{"a":1,|});
  checkb "empty input" true (bad "")

(* The reader accepts everything the shared emitter writes. *)
let test_jsonin_reads_emitter () =
  let module Json = Locality_obs.Json in
  let doc =
    Json.versioned
      [
        ("s", Json.str "line\nbreak \"and\" \\slash\\");
        ("n", Json.int (-7));
        ("l", Json.strings [ "a"; "b" ]);
        ("o", Json.obj [ ("inner", Json.int 1) ]);
      ]
  in
  match Jsonin.parse_opt doc with
  | None -> Alcotest.fail "emitter output did not parse"
  | Some v ->
    checkb "string round-trips" true
      (Option.bind (Jsonin.member "s" v) Jsonin.to_string_opt
      = Some "line\nbreak \"and\" \\slash\\");
    checkb "int round-trips" true
      (Option.bind (Jsonin.member "n" v) Jsonin.to_int_opt = Some (-7))

let suite =
  [
    ("jsonin values", `Quick, test_jsonin_values);
    ("jsonin rejects malformed", `Quick, test_jsonin_rejects_malformed);
    ("jsonin reads the emitter", `Quick, test_jsonin_reads_emitter);
  ]
