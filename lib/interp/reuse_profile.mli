(** Reuse-distance profiling of whole programs: one {!Walk} pass
    feeding the {!Locality_cachesim.Reuse} tracker. *)

module Reuse = Locality_cachesim.Reuse

val profile :
  ?line_bytes:int -> ?params:(string * int) list -> Program.t -> Reuse.t
(** Walk the program and return its reuse-distance profile
    (line granularity, default 32 bytes). *)
