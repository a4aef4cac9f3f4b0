(** Figures 2, 3, 7 (kernel cost tables and measured behaviour) and
    Figures 8 and 9 (memory-order histograms). *)

val fig2 : ?settings:Locality_driver.Settings.t -> ?n_sim:int -> unit -> string
(** Matrix multiply: symbolic LoopCost per reference group and candidate
    loop, the cost ranking over all six orders, and simulated miss-model
    times per order on both cache geometries. *)

val fig3 : ?settings:Locality_driver.Settings.t -> ?n:int -> unit -> string
(** ADI integration: unfused vs fused LoopCost (the fusion profitability
    test of Section 4.3.1) and the transformed program. *)

val fig7 : ?settings:Locality_driver.Settings.t -> ?n_sim:int -> unit -> string
(** Cholesky: cost table, the distributed + interchanged program, and
    measured original-vs-transformed times. *)

val fig8 : Table2.row list -> string
(** Histogram: programs bucketed by %% of nests in memory order, original
    vs transformed. *)

val fig9 : Table2.row list -> string
(** Same for the innermost loop. *)
