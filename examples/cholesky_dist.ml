(* Figure 7 of the paper: Cholesky factorisation. Memory order (KJI)
   cannot be reached by permutation alone; loop distribution splits the
   update statement into its own nest, which a triangular interchange
   then reorders.

   Run with: dune exec examples/cholesky_dist.exe *)

open Locality_ir
module Core = Locality_core
module Kernels = Locality_suite.Kernels
module Measure = Locality_interp.Measure
module Machine = Locality_cachesim.Machine

let () =
  let chol = Kernels.cholesky ~form:`KIJ 64 in
  print_endline "Cholesky, KIJ form (Figure 7a):";
  print_endline (Pretty.program_to_string chol);

  let nest = List.hd (Program.top_loops chol) in
  Format.printf "\n%a\n" Core.Memorder.pp (Core.Memorder.compute ~cls:4 nest);
  Format.print_flush ();

  (* Distribution at the I level peels S2 off so S3's nest can move. *)
  (match Core.Distribution.run ~cls:4 nest with
  | Some res ->
    Printf.printf "distributed at level %d into %d partitions\n"
      res.Core.Distribution.level res.Core.Distribution.partitions
  | None -> print_endline "distribution found nothing (unexpected)");

  let transformed, _ = Core.Compound.run_program ~cls:4 chol in
  print_endline "\nAfter Compound (Figure 7b):";
  print_endline (Pretty.program_to_string transformed);

  let before = Measure.measure ~config:Machine.cache2 chol in
  let after = Measure.measure ~config:Machine.cache2 transformed in
  Printf.printf "\nmodelled speedup on the i860-style cache: %.2fx\n"
    (before.Measure.cycles /. after.Measure.cycles);
  Printf.printf "results unchanged: %b\n"
    (Locality_interp.Exec.equivalent ~tol:1e-6 chol transformed)
