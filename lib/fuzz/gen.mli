(** Seeded random loop-nest generator.

    Programs are built from a [size] budget (roughly the number of loops
    and statements) and draw from the whole surface the optimizer and
    the frontend claim to support: rectangular and triangular bounds,
    MIN/MAX/DIV bound expressions, stepped and reversed loops, imperfect
    and multi-statement bodies, scalar temporaries and reductions, and
    aliased references (several references to one array per statement,
    reads overlapping writes).

    Guarantees, by construction:
    - {!Program.validate} accepts every generated program;
    - every subscript stays inside its declared extent for every
      iteration (arrays carry two elements of slack per dimension);
    - execution terminates and touches no unset scalar;
    - value growth is bounded (multiplicative constants are small, no
      EXP), so checksums stay finite in practice;
    - generation is a pure function of [(seed, index)], labels included
      ({!Program.make} names statements [S1], [S2], ... in textual
      order), so parallel generation is byte-for-byte reproducible. *)

val generate : seed:int -> index:int -> size:int -> Program.t
(** [generate ~seed ~index ~size] is program [index] of the stream for
    [seed], with at most roughly [size] loops-plus-statements (minimum
    effective size 4). *)
