(** CSV export of the experiment data, for plotting or further analysis
    outside the harness. *)

val float4 : float -> string
(** Fixed four-place formatting, shared by every ratio / hit-rate column
    and the profile table. *)

val float6 : float -> string
(** Fixed six-place formatting for simulated seconds. *)

val escape : string -> string
(** RFC-4180-style quoting when a field contains a comma, quote or
    newline. *)

val of_rows : string list -> string list list -> string
(** Header plus rows. *)

val table2 : Table2.row list -> string
val table3 : Perf.perf_row list -> string
val table4 : Perf.hit_row list -> string

val write_all :
  ?settings:Locality_driver.Settings.t -> dir:string -> Table2.row list -> unit
(** Write table2.csv, table3.csv and table4.csv under [dir] (created if
    missing). *)
