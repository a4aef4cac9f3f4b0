(** Packed trace records.

    One array-element access packed into a single OCaml int: a byte
    address, a write bit and an interned statement-label id. The
    run-compressed trace stream ({!Runchunk}) stores its per-access
    records and its group base records in this packing, so replay is a
    tight loop over unboxed ints with no per-access closure dispatch. *)

val max_addr : int
(** Largest representable byte address (32 bits). *)

val max_label : int
(** Largest representable interned label id (29 bits). *)

val pack : addr:int -> write:bool -> label:int -> int
(** Pack one record. @raise Invalid_argument when the address or label id
    exceeds the field width. *)

val addr : int -> int
val write : int -> bool
val label : int -> int
(** Field accessors on a packed record. *)
