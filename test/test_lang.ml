(* Tests for the kernel-language frontend: lexer, parser, lowering, and a
   parse -> pretty-print -> parse round trip. *)

open Locality_ir
module L = Locality_lang
module Exec = Locality_interp.Exec

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let matmul_src =
  {|
PROGRAM matmul
PARAMETER (N = 16)
REAL A(N,N), B(N,N), C(N,N)
DO J = 1, N
  DO K = 1, N
    DO I = 1, N
      C(I,J) = C(I,J) + A(I,K)*B(K,J)
    ENDDO
  ENDDO
ENDDO
END
|}

let test_lex_basics () =
  let toks = List.map fst (L.Lexer.tokenize "DO I = 1, N") in
  checkb "DO tokenized" true
    (toks
    = [
        L.Token.KW_DO;
        L.Token.IDENT "I";
        L.Token.EQUAL;
        L.Token.INT 1;
        L.Token.COMMA;
        L.Token.IDENT "N";
        L.Token.NEWLINE;
        L.Token.EOF;
      ])

let test_lex_comments_and_floats () =
  let toks = List.map fst (L.Lexer.tokenize "X = 2.5e-1 ! trailing\nC full line\nY = 1.0d0\n") in
  checkb "float and comment" true
    (List.mem (L.Token.FLOAT 0.25) toks && List.mem (L.Token.FLOAT 1.0) toks);
  (* 'C ' at column 1 is a Fortran comment: no Y? C is comment only when
     followed by space; "C full line" is a comment. *)
  checkb "comment line skipped" false
    (List.exists (function L.Token.IDENT "full" -> true | _ -> false) toks)

(* Fuzzer-found: a scalar named C. "C = ..." is an assignment, not a
   comment — at column 1 and indented — while "C full line" stays a
   comment. The whole program must survive pretty -> parse -> pretty. *)
let test_c_scalar_not_comment () =
  let src =
    "PROGRAM p\nPARAMETER (N = 4)\nREAL*8 A(N)\nC = 2.0\nDO I = 1, N\n  C = C + 0.5\n  A(I) = C\nENDDO\nEND\n"
  in
  let p1 = L.Lower.parse_program src in
  checkb "top-level C assignment kept" true
    (List.exists
       (function
         | Loop.Stmt s -> s.Stmt.lhs = Stmt.Scalar_set "C"
         | Loop.Loop _ -> false)
       p1.Program.body);
  let text = Pretty.program_to_string p1 in
  let p2 = L.Lower.parse_program text in
  checks "stable round trip" text (Pretty.program_to_string p2);
  (* A genuine comment line is still skipped. *)
  let toks = List.map fst (L.Lexer.tokenize "C this is commentary\nC = 1.0\n") in
  checkb "comment still skipped" false
    (List.exists (function L.Token.IDENT "commentary" -> true | _ -> false) toks);
  checkb "assignment lexed" true
    (List.exists (function L.Token.FLOAT 1.0 -> true | _ -> false) toks)

let test_lex_real_star8 () =
  let toks = List.map fst (L.Lexer.tokenize "REAL*8 A(N)") in
  checkb "REAL*8 collapses" true (List.hd toks = L.Token.KW_REAL)

let test_lex_error () =
  try
    ignore (L.Lexer.tokenize "A = 1 @ 2");
    Alcotest.fail "expected lexer error"
  with L.Lexer.Error (msg, loc) ->
    checki "error line" 1 loc.L.Lexer.line;
    checki "error column" 7 loc.L.Lexer.col;
    checks "offending text in message" "unexpected character @" msg

let test_parse_matmul () =
  let ast = L.Parser.parse matmul_src in
  checks "name" "matmul" ast.L.Ast.name;
  checki "one param" 1 (List.length ast.L.Ast.params);
  checki "three arrays" 3 (List.length ast.L.Ast.decls);
  checki "one top stmt" 1 (List.length ast.L.Ast.body)

let test_parse_error_location () =
  try
    ignore (L.Parser.parse "PROGRAM p\nDO I = 1\nEND\n");
    Alcotest.fail "expected parse error"
  with L.Parser.Error (msg, loc) ->
    checki "error on line 2" 2 loc.L.Lexer.line;
    checki "error at column 9" 9 loc.L.Lexer.col;
    checkb "message names the found token" true
      (let sub = "found" in
       let n = String.length msg and m = String.length sub in
       let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
       go 0)

(* Lexer/parser locations must survive into the driver's error string:
   "path:line:col: lexical|syntax error: ...". *)
let test_driver_error_locations () =
  let module D = Locality_driver.Driver in
  let write name contents =
    let path = Filename.concat (Filename.get_temp_dir_name ()) name in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    path
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let lexbad = write "memoria_lexbad.f" "PROGRAM p\nA = 1 @ 2\nEND\n" in
  (match D.run (D.config ~machines:[] ~store:None (D.Source_file lexbad)) with
  | Ok _ -> Alcotest.fail "expected a lexical error"
  | Error msg ->
    checkb "file, loc and token in message" true
      (contains msg (lexbad ^ ":2:7: lexical error: unexpected character @")));
  let parsebad = write "memoria_parsebad.f" "PROGRAM p\nDO I = 1\nEND\n" in
  (match D.run (D.config ~machines:[] ~store:None (D.Source_file parsebad)) with
  | Ok _ -> Alcotest.fail "expected a syntax error"
  | Error msg ->
    checkb "syntax error carries loc" true
      (contains msg (parsebad ^ ":2:9: syntax error:")));
  Sys.remove lexbad;
  Sys.remove parsebad

let test_lower_matmul () =
  let p = L.Lower.parse_program matmul_src in
  checks "program name" "matmul" p.Program.name;
  checki "N default" 16 (List.assoc "N" p.Program.params);
  let l = List.hd (Program.top_loops p) in
  checki "depth 3" 3 (Loop.depth l);
  checkb "perfect" true (Loop.is_perfect l)

let test_lower_intrinsics_and_scalars () =
  let src =
    {|
PROGRAM k
PARAMETER (N = 8)
REAL A(N)
s = 2.0
DO I = 1, N
  A(I) = SQRT(A(I)) + MIN(s, 1.5) - ABS(A(I))
ENDDO
END
|}
  in
  let p = L.Lower.parse_program src in
  let res = Exec.run p in
  (* 8 loop iterations plus the scalar assignment *)
  checki "iterations" 9 res.Exec.iterations

let test_lower_errors () =
  let expect_error src =
    try
      ignore (L.Lower.parse_program src);
      Alcotest.fail "expected lowering error"
    with L.Lower.Error _ -> ()
  in
  expect_error "PROGRAM p\nREAL A(4)\nB(1) = 0.0\nEND\n";
  expect_error "PROGRAM p\nREAL A(4)\nA(1,2) = 0.0\nEND\n";
  expect_error "PROGRAM p\nREAL A(4)\nA(1) = FOO(3.0)\nEND\n";
  expect_error "PROGRAM p\nREAL A(4)\nA(1.5) = 0.0\nEND\n"

let test_roundtrip () =
  (* parse -> pretty -> parse -> same execution result *)
  let p1 = L.Lower.parse_program matmul_src in
  let text = Pretty.program_to_string p1 in
  let p2 = L.Lower.parse_program text in
  checkb "roundtrip equivalent" true (Exec.equivalent p1 p2)

let test_roundtrip_after_compound () =
  let p1 = L.Lower.parse_program matmul_src in
  let p1', _ = Locality_core.Compound.run_program ~cls:4 p1 in
  let text = Pretty.program_to_string p1' in
  let p2 = L.Lower.parse_program text in
  checkb "transformed roundtrip equivalent" true (Exec.equivalent p1 p2)

let test_roundtrip_after_unroll_replace () =
  (* The register-blocked form prints Div bounds (8*(N/8)), stepped
     loops, scalar temporaries and store-backs — all of which the
     frontend must accept back. *)
  let module C = Locality_core in
  let p1 = L.Lower.parse_program matmul_src in
  let nest = List.hd (Program.top_loops p1) in
  match C.Unroll.unroll_and_jam nest ~loop:"J" ~factor:4 with
  | None -> Alcotest.fail "unroll refused"
  | Some block -> (
    match
      C.Unroll.map_main block ~loop:"J" ~factor:4 ~f:(fun main ->
          (C.Scalar_replacement.apply main).C.Scalar_replacement.nest)
    with
    | None -> Alcotest.fail "main nest not found"
    | Some block' ->
      let p1' = Program.map_body (fun _ -> block') p1 in
      let text = Pretty.program_to_string p1' in
      let p2 = L.Lower.parse_program text in
      checkb "register-blocked roundtrip equivalent" true
        (Exec.equivalent p1 p2))

let test_negative_step_parse () =
  let src =
    "PROGRAM p\nREAL A(10)\nDO I = 10, 1, -1\n  A(I) = I\nENDDO\nEND\n"
  in
  let p = L.Lower.parse_program src in
  let res = Exec.run p in
  checki "ten iterations" 10 res.Exec.iterations

let test_kernel_files_parse_optimize_check () =
  (* Every shipped .f kernel must parse, lower, optimize legally, and
     round-trip through the pretty printer. *)
  let dir = "../../../kernels" in
  let dir = if Sys.file_exists dir then dir else "kernels" in
  if Sys.file_exists dir then
    Array.iter
      (fun file ->
        if Filename.check_suffix file ".f" then begin
          let path = Filename.concat dir file in
          let ic = open_in_bin path in
          let src = really_input_string ic (in_channel_length ic) in
          close_in ic;
          let p = L.Lower.parse_program src in
          (* Shrink for interpretation. *)
          let p =
            { p with Program.params = List.map (fun (x, _) -> (x, 10)) p.Program.params }
          in
          let p', _ = Locality_core.Compound.run_program ~cls:4 p in
          checkb (file ^ " preserved") true (Exec.equivalent ~tol:1e-6 p p');
          let p2 = L.Lower.parse_program (Pretty.program_to_string p') in
          checkb (file ^ " reparses") true (Exec.equivalent ~tol:1e-6 p p2)
        end)
      (Sys.readdir dir)
  else Alcotest.fail ("kernels directory not found from " ^ Sys.getcwd ())

let test_min_in_bounds_parses () =
  let src =
    "PROGRAM t\nPARAMETER (N = 20)\nREAL A(N)\nDO I = 1, N, 4\n  DO II = I, MIN(I+3, N)\n    A(II) = II\n  ENDDO\nENDDO\nEND\n"
  in
  let p = L.Lower.parse_program src in
  let res = Exec.run p in
  checki "all iterations" 20 res.Exec.iterations

let suite =
  [
    ("kernel files parse + optimize + check", `Quick, test_kernel_files_parse_optimize_check);
    ("MIN in loop bounds", `Quick, test_min_in_bounds_parses);
    ("lexer basics", `Quick, test_lex_basics);
    ("lexer comments and floats", `Quick, test_lex_comments_and_floats);
    ("lexer REAL*8", `Quick, test_lex_real_star8);
    ("lexer error reporting", `Quick, test_lex_error);
    ("C scalar is not a comment", `Quick, test_c_scalar_not_comment);
    ("driver error locations", `Quick, test_driver_error_locations);
    ("parser matmul", `Quick, test_parse_matmul);
    ("parser error location", `Quick, test_parse_error_location);
    ("lowering matmul", `Quick, test_lower_matmul);
    ("lowering intrinsics/scalars", `Quick, test_lower_intrinsics_and_scalars);
    ("lowering error cases", `Quick, test_lower_errors);
    ("parse/pretty round trip", `Quick, test_roundtrip);
    ("round trip after compound", `Quick, test_roundtrip_after_compound);
    ("round trip after unroll+replace", `Quick, test_roundtrip_after_unroll_replace);
    ("negative step loop", `Quick, test_negative_step_parse);
  ]
