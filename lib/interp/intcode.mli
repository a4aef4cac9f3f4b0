(** The integer side of a program, compiled for the address-only walker
    {!Walk}: loop indices and parameters resolved to slots of an
    [int array] environment, integer expressions compiled to closures
    over it, the checked byte address of every array reference, its
    byte stride per iteration of an innermost loop, and the loop driver
    itself.

    The ["Fastexec: "] prefix of two error messages below names no
    module: it is frozen wire text. [Driver.run] reports these messages
    verbatim and [memoria serve] replies carry them (doc/PROTOCOL.md),
    so their bytes do not change. *)

type env = int array
(** Loop indices and parameters by slot. *)

type t

val prepare : ?params:(string * int) list -> Program.t -> t
(** Resolve parameters (the program's defaults, with [params]
    overriding) and lay the arrays out.
    @raise Invalid_argument ["Fastexec: unbound parameter <x>"] when an
    extent names an unknown parameter, and whatever {!Locality_cachesim.Layout.build}
    raises. *)

val expr : t -> Expr.t -> env -> int
(** Compile an integer expression. Evaluation raises
    [Invalid_argument "Fastexec: division by zero"]. *)

val has_div : Expr.t -> bool
(** Whether evaluating the expression can raise (it divides). *)

val address : t -> Reference.t -> env -> int
(** The reference's byte address.
    @raise Invalid_argument ["index out of bounds"] when its flat
    column-major element offset falls outside the array. Subscripts are
    not checked one by one against their extents. *)

val stride : t -> idx:string -> step:int -> Reference.t -> (env -> int) option
(** The reference's byte stride per iteration of a loop over [idx] with
    [step], as a closure that is invariant while one instance of that
    loop runs — when every subscript is affine in [idx] there; [None]
    when MIN, MAX or a division involves [idx]. *)

val loop : t -> Loop.header -> env:('c -> env) -> ('c -> unit) -> 'c -> unit
(** [loop t h ~env body] runs [body] once per iteration of [h] with the
    index slot set. The upper bound is evaluated before the lower one,
    and the index keeps its last value after the loop. *)

val trip : lb:int -> ub:int -> step:int -> int
(** Iterations of [DO i = lb, ub, step]. *)

val index_slot : t -> string -> int

val env : t -> env
(** A fresh environment holding the parameters. Call it after compiling:
    compilation allocates the slots it sizes. *)
