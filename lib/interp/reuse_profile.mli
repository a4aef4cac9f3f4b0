(** Reuse-distance profiling of whole programs: one {!Walk} pass
    feeding an exact, fully associative {!Locality_sample.Sample}
    profiler. *)

val profile :
  ?line_bytes:int ->
  ?params:(string * int) list ->
  Program.t ->
  Locality_sample.Sample.profile
(** Walk the program and return its reuse-distance profile at line
    granularity (default 32 bytes). The profiler runs at rate 1.0 with
    one set and no bound on tracked lines, so it never adapts its rate
    and every distance is exact at any size. *)
