(** Collapsed-stack (flamegraph.pl / speedscope) export of span self
    times: one ["a;b;c weight"] line per unique stack, weight = summed
    self time in nanoseconds, lines sorted lexicographically. *)

val to_string : Event.t list -> string
(** Test oracle: the document {!write} writes. *)

val write : path:string -> Event.t list -> unit
