(** Table 2 — memory order statistics for the whole suite. *)

type row = {
  entry : Locality_suite.Programs.entry;
  loops : int;  (** DO statements in the generated program *)
  nests : int;  (** nests of depth >= 2 considered *)
  orig : int;  (** nests originally in memory order *)
  perm : int;  (** nests permuted into memory order *)
  fail : int;
  inner_orig : int;  (** nests whose inner loop was already best *)
  inner_perm : int;
  inner_fail : int;
  fusion_candidates : int;
  fusions : int;
  dist : int;
  dist_results : int;
  ratio_final : float;  (** avg original/final LoopCost, at default N *)
  ratio_ideal : float;
  original : Program.t;
  transformed : Program.t;
  optimized_labels : string list;
      (** statements in nests the compiler actually changed *)
}

val count_loops : Program.t -> int
(** Test oracle: the loop count of a row, for checking the suite
    generator. *)

val compute_row :
  ?settings:Locality_driver.Settings.t -> ?n:int ->
  Locality_suite.Programs.entry -> row
(** Test oracle: one row of {!compute}, for tests that check a row or a
    subset of the suite. *)

val compute :
  ?settings:Locality_driver.Settings.t -> ?n:int -> unit -> row list
(** All 35 programs at cache line size 4. Rows are computed in parallel
    on a pool of the settings' width (default
    {!Locality_driver.Settings.default}); the result list is in suite
    order and identical for every pool size. *)

val render : row list -> string

val pct : int -> int -> float
(** [pct part whole] in percent; 0 when whole is 0. *)
