type t =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | KW_PROGRAM
  | KW_PARAMETER
  | KW_REAL
  | KW_DO
  | KW_ENDDO
  | KW_END
  | LPAREN
  | RPAREN
  | COMMA
  | EQUAL
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | NEWLINE
  | EOF

let to_string = function
  | IDENT s -> Printf.sprintf "identifier %s" s
  | INT n -> Printf.sprintf "integer %d" n
  | FLOAT f -> Printf.sprintf "float %g" f
  | KW_PROGRAM -> "PROGRAM"
  | KW_PARAMETER -> "PARAMETER"
  | KW_REAL -> "REAL"
  | KW_DO -> "DO"
  | KW_ENDDO -> "ENDDO"
  | KW_END -> "END"
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | EQUAL -> "="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | NEWLINE -> "newline"
  | EOF -> "end of input"
