(** Log2-bucketed histogram accumulator behind {!Obs.histogram}.

    Bucket 0 holds values [<= 0]; bucket [i] (1..62) holds
    [2^(i-1) <= v <= 2^i - 1], so every OCaml int maps to a fixed
    63-bucket array, so the result of folding a deterministic event
    stream is itself deterministic. *)

type t = {
  counts : int array;  (** per-bucket observation counts *)
  mutable count : int;  (** total observations *)
  mutable sum : int;
  mutable min : int;  (** [max_int] while empty *)
  mutable max : int;  (** [min_int] while empty *)
}

val create : unit -> t
val observe : t -> int -> unit

val bucket_of : int -> int
(** Test oracle: the bucket layout {!observe} and {!cumulative} use.

    Index of the bucket holding the value. *)

val bucket_le : int -> int
(** Test oracle: the bucket bounds {!cumulative} and {!quantile} report.

    Inclusive upper bound of bucket [i] ([max_int] for the last). *)

val mean : t -> float

val quantile : t -> float -> int
(** [quantile t q] for [0 < q <= 1]: the upper bound of the bucket
    holding the q-th observation, clamped to the observed maximum —
    exact to within the bucket width. 0 when empty. *)

val cumulative : t -> (int * int) list
(** [(le, cumulative count)] per bucket up to the last non-empty one —
    the OpenMetrics bucket shape. *)
