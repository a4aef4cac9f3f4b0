(** Reproducer corpus: minimized failing programs, one mini-language
    file each, replayed by the test suite.

    A corpus file is the shrunk program's canonical {!Pretty} text
    prefixed by [!]-comment headers recording the generating seed and
    index, the oracle that failed and its one-line detail — everything
    needed to regenerate or triage the finding. The frontend treats the
    headers as comments, so a corpus file parses as an ordinary
    program. *)

val save :
  dir:string ->
  seed:int ->
  index:int ->
  finding:Oracle.finding ->
  Program.t ->
  string
(** Write the reproducer under [dir] (created if missing) and return
    its path. *)

val load_dir : string -> (string * Program.t) list
(** Test oracle: reads back the reproducers {!save} writes; the corpus
    replay test runs every one.

    Parse every [.f] file in a directory, sorted by name; [[]] when
    the directory does not exist. Raises on unparsable entries — a
    broken corpus file is itself a regression. *)
