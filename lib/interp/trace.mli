(** Run-compressed address traces.

    A chunked trace buffer decouples trace generation from cache
    simulation: the measurement walker ({!Walk}) appends packed records
    (address, write bit, interned statement-label id — see
    {!Locality_cachesim.Chunk}) and strided-run group descriptors to one
    {!Locality_cachesim.Runchunk} stream, and the buffer hands full
    blocks to a sink. A qualifying innermost-loop instance costs
    [1 + 2*nrefs] words instead of [trip * nrefs] records. Capacity is
    counted in stream words. Measurement simulates each chunk as it
    fills, so no trace is held; {!run_capturing} keeps the chunks for
    tools that inspect the trace. *)

module Chunk = Locality_cachesim.Chunk
module Runchunk = Locality_cachesim.Runchunk

type runbuf

val run_create :
  ?chunk_words:int -> sink:(Runchunk.t -> unit) -> unit -> runbuf
(** The sink borrows the chunk only for the duration of the call; the
    buffer is reused afterwards. A sink that keeps the data must
    {!Runchunk.copy} it. [chunk_words] (tests only) defaults to 4096,
    32 KiB: a few thousand words hold a small program's whole trace,
    and a longer trace just flushes more chunks. *)

val run_intern : runbuf -> string -> int
(** Stable id for a statement label; meant to be called once per
    statement at compile time, not per access. *)

val run_labels : runbuf -> string array
(** Interned labels, indexed by id. *)

val run_record : runbuf -> label:int -> addr:int -> write:bool -> unit
(** Append one per-access record (the fallback for loops that do not
    qualify for run compression). *)

val run_group :
  runbuf -> trip:int -> packed:int array -> bases:int array ->
  strides:int array -> int -> unit
(** [run_group t ~trip ~packed ~bases ~strides n] appends one
    [n]-reference strided-run group; [packed.(j)] is a {!Chunk}-packed
    record with a zero address field (label id and write flag,
    precomputed at closure-compile time), [bases]/[strides] the byte
    base address and per-iteration byte stride of each reference for
    this loop instance. Groups that cannot fit even an empty chunk
    degrade to per-access records, so emission never fails. *)

val run_flush : runbuf -> unit
val run_total : runbuf -> int
(** Logical accesses represented (groups expanded). *)

type captured_runs = {
  run_chunks : Runchunk.t list;  (** in recording order, independently owned *)
  run_trace_labels : string array;
  run_records : int;  (** logical accesses, groups expanded *)
  run_groups : int;
  run_stream_words : int;
}

val run_capturing :
  ?chunk_words:int -> unit -> runbuf * (unit -> captured_runs)

val iter_run_chunks : captured_runs -> (Runchunk.t -> unit) -> unit

val iter_runs :
  captured_runs -> (label:int -> addr:int -> write:bool -> unit) -> unit
(** Expanded access sequence, groups round-robin, in recording order. *)
