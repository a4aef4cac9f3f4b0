(** v2 trace blocks: per-access records mixed with strided-run groups.

    A run group compresses one innermost-loop instance with affine
    references into [1 + 2*nrefs] words — header (trip count, reference
    count), then per reference a {!Chunk}-packed base record and a byte
    stride — replacing [trip * nrefs] individual records. Words with the
    tag bit clear are ordinary {!Chunk} records, so loops that do not
    qualify share the same stream. Replay preserves the source loop's
    exact per-iteration interleaving: iteration [t] touches reference
    [j]'s address [base_j + t * stride_j] in reference order. *)

type t = {
  data : int array;
  mutable len : int;  (** words used *)
  mutable logical : int;  (** accesses represented, groups expanded *)
}

val max_trip : int

val create : int -> t
(** [create capacity] allocates a chunk of [capacity] words.
    @raise Invalid_argument when smaller than the largest single item. *)

val room : t -> int
(** Words still free. *)

val logical_records : t -> int
(** Test oracle: the number of accesses the chunk expands to, which tests
    check against the trace that filled it. *)

val is_header : int -> bool
val header_trip : int -> int
val header_nrefs : int -> int

val group_words : nrefs:int -> int
(** Stream words one group occupies. *)

val push_access : t -> int -> unit
(** Append one {!Chunk}-packed record; the caller guarantees room. *)

val push_group :
  t -> trip:int -> packed:int array -> bases:int array -> strides:int array ->
  int -> unit
(** [push_group c ~trip ~packed ~bases ~strides n] appends an [n]-reference
    group; [packed.(j)] is a {!Chunk}-packed record with a zero address
    field, or-ed with the validated [bases.(j)]. The caller guarantees
    room ({!group_words}). *)

val reset : t -> unit
val copy : t -> t

val iter : t -> (label:int -> addr:int -> write:bool -> unit) -> unit
(** Expand to individual accesses in replay order (groups round-robin). *)
