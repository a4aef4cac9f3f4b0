(** C code generation.

    Emits a transformed program as a self-contained C translation unit so
    optimized kernels can be compiled and run natively. Arrays keep the
    IR's column-major layout via explicit linearized indexing (so the C
    code walks memory exactly as the cost model assumed), subscripts stay
    1-based by over-allocating one element per dimension, and a [main]
    driver initialises the arrays with the same deterministic values as
    the interpreter and prints a checksum — letting native runs be
    validated against {!Locality_interp.Exec}. *)

val program_to_c : ?driver:bool -> Program.t -> string
(** The full translation unit; [driver] (default true) includes [main]. *)
