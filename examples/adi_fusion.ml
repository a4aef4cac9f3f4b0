(* Figure 3 of the paper: loop fusion on the scalarized ADI integration
   fragment. Fusing the two K loops creates group-temporal reuse and,
   more importantly, produces a perfect nest that can be interchanged
   into memory order.

   Run with: dune exec examples/adi_fusion.exe *)

open Locality_ir
module Core = Locality_core
module Kernels = Locality_suite.Kernels
module Measure = Locality_interp.Measure
module Machine = Locality_cachesim.Machine

let () =
  let adi = Kernels.adi_fragment 64 in
  print_endline "Fortran-90-style scalarized ADI (Figure 3b):";
  print_endline (Pretty.program_to_string adi);

  (* Fusion profitability, straight from the cost model. *)
  let outer = List.hd (Program.top_loops adi) in
  (match Loop.inner_loops outer with
  | [ k1; k2 ] ->
    let cost l = Core.Loopcost.loop_cost ~nest:l ~cls:4 "K" in
    let fused = Core.Fusion.fuse_to_depth k1 k2 ~depth:1 in
    Format.printf "\nLoopCost(K) of the S1 nest:   %a\n" Poly.pp (cost k1);
    Format.printf "LoopCost(K) of the S2 nest:   %a\n" Poly.pp (cost k2);
    Format.printf "LoopCost(K) after fusion:     %a\n" Poly.pp (cost fused);
    Format.printf "legal? %b\n"
      (Core.Fusion.legal ~outer:[ outer.Loop.header ] k1 k2 ~depth:1)
  | _ -> ());

  let transformed, stats = Core.Compound.run_program ~cls:4 adi in
  print_endline "\nAfter Compound (fusion enabling interchange, Figure 3c):";
  print_endline (Pretty.program_to_string transformed);
  (match stats.Core.Compound.nests with
  | [ s ] ->
    Printf.printf "\nfusion enabled permutation: %b\n" s.Core.Compound.fused_enabling
  | _ -> ());

  let before = Measure.measure ~config:Machine.cache2 adi in
  let after = Measure.measure ~config:Machine.cache2 transformed in
  Printf.printf "modelled speedup on the i860-style cache: %.2fx\n"
    (before.Measure.cycles /. after.Measure.cycles)
