(** Hand-written kernels used throughout the paper.

    Each takes its problem size; arrays are double precision, stored
    column-major. Loop orders in names are outermost-first. *)

val matmul : ?order:string -> int -> Program.t
(** Figure 2: [C(I,J) += A(I,K) * B(K,J)]. [order] is a permutation of
    ["IJK"] (default the worst-case ["IJK"]). *)

val matmul_orders : string list
(** The six loop orders, in the paper's Figure 2 ranking from best
    to worst: JKI, KJI, JIK, IJK, KIJ, IKJ. *)

val cholesky : ?form:[ `KIJ | `KJI ] -> int -> Program.t
(** Figure 7: Cholesky factorisation. [`KIJ] is the original form; [`KJI]
    the distributed-and-interchanged form the paper derives. *)

val lu : int -> Program.t
(** Right-looking LU factorisation (no pivoting) with the update written
    in row-oriented (I,J) order; distribution plus interchange turn it
    into the column-oriented form. *)

val adi_fragment : int -> Program.t
(** Figure 3(b): the scalarized Fortran-90 ADI integration fragment (two
    K loops inside an I loop). *)

val adi_fused : int -> Program.t
(** Figure 3(c): after fusion and interchange. *)

val erlebacher_hand : int -> Program.t
(** Section 4.3.4: 3-D ADI solver, hand-coded style — single-statement
    loops, mostly in memory order. *)

val erlebacher_distributed : int -> Program.t
(** Every nest permuted into memory order, still fully distributed. *)

val erlebacher_fused : int -> Program.t
(** The fused version produced by the Fuse algorithm. *)

val gmtry : int -> Program.t
(** SPEC Dnasa7 kernel: Gaussian elimination across rows — no spatial
    locality until distribution + permutation fix it (Section 5.7). *)

val vpenta : int -> Program.t
(** Dnasa7 kernel: simultaneous pentadiagonal inversion, scalarized
    vector style with poor stride. *)

val simple_hydro : int -> Program.t
(** "Simple": 2-D hydrodynamics fragment written in vectorizable form —
    the recurrence carried by the outer loop (Section 5.7). *)

val jacobi2d : int -> Program.t
(** 5-point Jacobi sweep in the wrong loop order. *)

val btrix : int -> Program.t
(** Dnasa7-style block-tridiagonal sweep over a rank-3 array with a small
    leading block dimension; the sweep loop is misplaced. *)

val shallow_water : int -> Program.t
(** swm256-style fragment: three fusable stencil sweeps over shared
    fields, already in memory order. *)

val transpose : int -> Program.t
(** [B(I,J) = A(J,I)] — one array is always accessed across columns. *)

val all : (string * (int -> Program.t)) list
(** Every kernel by name, for tests and the CLI. *)
