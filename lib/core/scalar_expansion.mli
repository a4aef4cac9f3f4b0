(** Scalar expansion.

    A scalar temporary assigned and used inside a loop creates anti- and
    output dependences that tie every statement into one recurrence,
    defeating loop distribution. Expanding the scalar into an array
    indexed by the loop removes those dependences. The paper's Memoria
    detects when expansion would enable distribution (Section 5.1); here
    the transformation itself is provided, plus the detection helper. *)

val expand :
  Program.t -> loop:string -> scalar:string -> (Program.t, string) result
(** Expand [scalar] along [loop] inside the program: a fresh rank-1
    array (named after the scalar, [<scalar>_X]) with the loop's extent
    is declared, and every read/write of the scalar inside the loop body
    becomes a subscripted access. Fails when the scalar escapes (is used
    outside the loop), the loop is missing, or bounds are not affine. *)
