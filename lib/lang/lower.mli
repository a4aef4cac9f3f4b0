(** Lowering from the surface AST to the IR.

    Array names come from the declarations; [SQRT], [ABS], [EXP], [SIN],
    [COS], [MIN] and [MAX] are intrinsics; any other called name must be a
    declared array. Identifiers that are neither loop indices, parameters
    nor arrays denote scalar variables. *)

exception Error of string

val parse_program : string -> Program.t
(** Parse and lower in one step.
    @raise Parser.Error / Lexer.Error / Error. *)
