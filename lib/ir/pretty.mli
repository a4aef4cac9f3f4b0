(** Fortran-77-style pretty-printing of programs — the output side of the
    source-to-source translator. *)

val program_to_string : Program.t -> string
val block_to_string : Loop.block -> string
