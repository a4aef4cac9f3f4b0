(* The packed trace record shared between the trace producer
   (lib/interp/trace.ml) and the cache simulators. One record per
   array-element access, packed into a single OCaml int:

     bits 0..31   byte address
     bit  32      write flag
     bits 33..61  interned statement-label id

   Keeping the record flat (no per-access closure, no boxing) is what
   lets a trace be recorded once and replayed against several cache
   configurations at memory bandwidth. *)

let max_addr = 0xFFFF_FFFF
let max_label = (1 lsl 29) - 1

let pack ~addr ~write ~label =
  if addr < 0 || addr > max_addr then
    invalid_arg (Printf.sprintf "Chunk.pack: address %d out of range" addr);
  if label < 0 || label > max_label then
    invalid_arg (Printf.sprintf "Chunk.pack: label id %d out of range" label);
  addr lor ((if write then 1 else 0) lsl 32) lor (label lsl 33)

let addr r = r land max_addr
let write r = r land (1 lsl 32) <> 0
let label r = r lsr 33
