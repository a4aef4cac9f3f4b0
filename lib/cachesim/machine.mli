(** The two cache geometries of the paper's evaluation (Table 4), plus a
    simple cycle-count timing model used for Tables 1 and 3. *)

val cache1 : Cache.config
(** IBM RS/6000 model 540: 64 KB, 4-way set associative, 128-byte lines. *)

val cache2 : Cache.config
(** Intel i860: 8 KB, 2-way set associative, 32-byte lines. *)

type timing = {
  cycles_per_op : float;  (** arithmetic / loop overhead per operation *)
  cycles_per_hit : float;
  miss_penalty : float;
}

val default_timing : timing

val cycles :
  timing -> ops:int -> hits:int -> misses:int -> float

val seconds : timing -> ops:int -> hits:int -> misses:int -> float
(** Cycle count at a 50 MHz clock (RS/6000-540 class). *)
