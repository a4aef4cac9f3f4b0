(** Column-major (Fortran) memory layout for the declared arrays of a
    program.

    Each array is placed at a line-aligned base address; the first
    subscript varies fastest. Subscripts are 1-based, as in Fortran. *)

type t

val build : param:(string -> int) -> Decl.t list -> t
(** Lay out the arrays in declaration order from byte 0, each base
    aligned to 128 bytes. [param] evaluates symbolic extents.
    @raise Invalid_argument on non-positive extents, on extent products
    that overflow the native int, and when the layout no longer fits the
    {!Chunk.max_addr} packed-record address space (scaled geometries:
    the error names the array and suggests reducing [--scale]). *)

val address : t -> string -> int array -> int
(** Byte address of an element given its 1-based subscripts.
    @raise Invalid_argument for unknown arrays or rank mismatch;
    subscripts outside the declared extents raise too (bounds check). *)

val flat_offset : t -> string -> int array -> int
(** Column-major element offset (0-based) of a subscript vector. *)

val size_elements : t -> string -> int
val elem_size : t -> string -> int
