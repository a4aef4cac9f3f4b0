(** Typed observability events.

    Everything the tracing core records is one of these: a closed span
    (timed phase), an instant note, a counter increment, or a compound
    transformation {e decision}. Payloads carry only plain strings and
    ints so the library stays dependency-free; producers render
    polynomials and dependences before emitting. *)

type args = (string * string) list
(** Ordered key/value annotations. *)

type action = Permute | Fuse | Distribute | Reverse | No_change
(** What the compound algorithm did to a nest (reversal subsumes the
    permutation it enabled). *)

val action_to_string : action -> string

type decision = {
  nest : string;  (** the nest's context key (see {!Obs.with_ctx}) *)
  labels : string list;  (** statement labels of the original nest *)
  depth : int;
  action : action;
  reason : string;  (** human-readable explanation of the choice *)
  original_order : string list;  (** loop order before, outermost first *)
  achieved_orders : string list list;
      (** loop order of each resulting nest (several after distribution) *)
  memory_order : string list;  (** the cost model's desired order *)
  costs : (string * string) list;
      (** loop -> LoopCost polynomial, ranked most- to least-expensive *)
}
(** One record per {!Locality_core.Compound} nest_stat: the chosen
    action, why, and the LoopCost evidence. *)

type payload =
  | Span of {
      name : string;
      begin_ns : int64;
      dur_ns : int64;
      self_ns : int64;
          (** duration minus the summed durations of direct child spans
              closed on the same domain — the span's own work *)
      stack : string list;
          (** names of the enclosing open spans on this domain at open
              time, outermost first (the collapsed-stack path) *)
      args : args;
    }
  | Instant of { name : string; args : args }
  | Counter of { name : string; delta : int }
  | Hist of { name : string; value : int }
      (** one observation of the named log2-bucketed histogram *)
  | Gauge of { name : string; value : float }
      (** point-in-time level; aggregation keeps the last write *)
  | Decision of decision

type t = {
  ts_ns : int64;  (** monotonic close/emit time *)
  dom : int;  (** recording domain id *)
  ctx : string;  (** innermost decision context, [""] at top level *)
  payload : payload;
}

val fingerprint : t -> string
(** Test oracle: what tests compare event streams by across job counts.

    Deterministic rendering without timestamps, durations or domain ids
    — what must be identical across [MEMORIA_JOBS] settings. *)
