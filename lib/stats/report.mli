(** Plain-text table rendering for the experiment reports. *)

type align = Left | Right

val render :
  title:string -> ?note:string -> align list -> string list -> string list list -> string
(** [render ~title aligns header rows] lays the table out with padded
    columns; [aligns] applies per column (missing entries default to
    Right). *)

val fmt_pct : float -> string

val histogram :
  title:string -> buckets:(string * int) list -> total:int -> string
(** ASCII bar chart: one row per bucket, bars scaled to the largest. *)
