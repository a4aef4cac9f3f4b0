(** CSV export of the experiment data, for plotting or further analysis
    outside the harness. *)

val float4 : float -> string
(** Fixed four-place formatting, shared by every ratio / hit-rate column
    and the profile table. *)

val escape : string -> string
(** Test oracle: the quoting every table writer applies.

    RFC-4180-style quoting when a field contains a comma, quote or
    newline. *)

val table2 : Table2.row list -> string
(** Test oracle: the table2.csv document {!write_all} writes. *)

val write_all :
  ?settings:Locality_driver.Settings.t -> dir:string -> Table2.row list -> unit
(** Write table2.csv, table3.csv and table4.csv under [dir] (created if
    missing). *)
