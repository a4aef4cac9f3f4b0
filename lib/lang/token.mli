(** Tokens of the Fortran-77-style kernel language. *)

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

val to_string : t -> string
