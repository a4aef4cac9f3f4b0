(* The v2 trace block: a mixed stream of per-access records and
   strided-run group descriptors, packed into one flat int array.

   Affine kernels emit constant-stride address streams from their
   innermost loops, so instead of trip x refs individual records a
   qualifying loop instance is stored as one group descriptor:

     header word          bit 62 set (the word is negative), trip count
                          in bits 0..30, reference count in bits 31..61
     then per reference   word 1: base address / write flag / label id,
                                  packed exactly like {!Chunk} records
                          word 2: byte stride per iteration (plain int,
                                  may be negative or zero)

   A word with bit 62 clear is an ordinary {!Chunk}-packed access record
   — loops that do not qualify fall back to per-access records in the
   same stream, and a per-access-only stream is a valid run chunk.

   The logical access sequence of a group preserves the exact
   per-iteration interleaving of the source loop: iteration t touches
   each reference j in order, at address base_j + t * stride_j. *)

type t = {
  data : int array;
  mutable len : int;
  mutable logical : int;  (** accesses represented, groups expanded *)
}

let max_trip = (1 lsl 31) - 1
let max_nrefs = (1 lsl 30) - 1
let tag_bit = 1 lsl 62

let create capacity =
  if capacity < 8 then invalid_arg "Runchunk.create: capacity too small";
  { data = Array.make capacity 0; len = 0; logical = 0 }

let room c = Array.length c.data - c.len
let logical_records c = c.logical

let header ~trip ~nrefs =
  if trip < 0 || trip > max_trip then
    invalid_arg (Printf.sprintf "Runchunk.header: trip %d out of range" trip);
  if nrefs <= 0 || nrefs > max_nrefs then
    invalid_arg (Printf.sprintf "Runchunk.header: nrefs %d out of range" nrefs);
  tag_bit lor trip lor (nrefs lsl 31)

(* The tag bit is the native int's sign bit, so headers are exactly the
   negative words of the stream. *)
let is_header w = w < 0
let header_trip w = w land max_trip
let header_nrefs w = (w lsr 31) land max_nrefs

let group_words ~nrefs = 1 + (2 * nrefs)

let push_access c r =
  if r < 0 then invalid_arg "Runchunk.push_access: header-tagged word";
  c.data.(c.len) <- r;
  c.len <- c.len + 1;
  c.logical <- c.logical + 1

(* [push_group c ~trip ~packed ~bases ~strides n] appends one group of
   [n] references; [packed.(j)] is a {!Chunk}-packed record whose
   address field is zero (label and write flag only) and is or-ed with
   the validated base address. The caller guarantees room. *)
let push_group c ~trip ~packed ~bases ~strides n =
  let h = header ~trip ~nrefs:n in
  let data = c.data in
  let at = c.len in
  data.(at) <- h;
  for j = 0 to n - 1 do
    let base = bases.(j) in
    if base < 0 || base > Chunk.max_addr then
      invalid_arg
        (Printf.sprintf "Runchunk.push_group: base address %d out of range" base);
    data.(at + 1 + (2 * j)) <- packed.(j) lor base;
    data.(at + 2 + (2 * j)) <- strides.(j)
  done;
  c.len <- at + group_words ~nrefs:n;
  c.logical <- c.logical + (trip * n)

let reset c =
  c.len <- 0;
  c.logical <- 0

let copy c = { data = Array.sub c.data 0 c.len; len = c.len; logical = c.logical }

(* Expand the stream back to individual accesses, round-robin across a
   group's references — the order the originating loop touched memory. *)
let iter c f =
  let data = c.data in
  let i = ref 0 in
  while !i < c.len do
    let w = Array.unsafe_get data !i in
    if not (is_header w) then begin
      f ~label:(Chunk.label w) ~addr:(Chunk.addr w) ~write:(Chunk.write w);
      incr i
    end
    else begin
      let trip = header_trip w and nrefs = header_nrefs w in
      for t = 0 to trip - 1 do
        for j = 0 to nrefs - 1 do
          let r = data.(!i + 1 + (2 * j)) in
          let stride = data.(!i + 2 + (2 * j)) in
          f ~label:(Chunk.label r)
            ~addr:(Chunk.addr r + (t * stride))
            ~write:(Chunk.write r)
        done
      done;
      i := !i + group_words ~nrefs
    end
  done
