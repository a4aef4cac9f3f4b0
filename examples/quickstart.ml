(* Quickstart: build a kernel, ask the compiler to optimize it, and see
   what changed and why.

   Run with: dune exec examples/quickstart.exe *)

open Locality_ir
module Core = Locality_core
module Measure = Locality_interp.Measure
module Machine = Locality_cachesim.Machine

let () =
  (* 1. Write matrix multiply the "wrong" way: the I loop — which walks
     down columns with unit stride — is outermost. *)
  let program =
    let open Builder in
    let n = v "N" in
    program "quickstart"
      ~params:[ ("N", 64) ]
      ~arrays:[ ("A", [ n; n ]); ("B", [ n; n ]); ("C", [ n; n ]) ]
      [
        do_ "I" (i 1) n
          [
            do_ "J" (i 1) n
              [
                do_ "K" (i 1) n
                  [
                    asn
                      (r "C" [ v "I"; v "J" ])
                      (ld "C" [ v "I"; v "J" ]
                      +! (ld "A" [ v "I"; v "K" ] *! ld "B" [ v "K"; v "J" ]));
                  ];
              ];
          ];
      ]
  in
  print_endline "Original program:";
  print_endline (Pretty.program_to_string program);

  (* 2. What does the cost model think? LoopCost estimates the cache
     lines touched with each loop innermost (cls = 4 elements/line). *)
  let nest = List.hd (Program.top_loops program) in
  let mo = Core.Memorder.compute ~cls:4 nest in
  Format.printf "\n%a\n" Core.Memorder.pp mo;
  Format.print_flush ();

  (* 3. Run the compound transformation algorithm. *)
  let transformed, stats = Core.Compound.run_program ~cls:4 program in
  print_endline "Transformed program:";
  print_endline (Pretty.program_to_string transformed);
  List.iter
    (fun (s : Core.Compound.nest_stat) ->
      Format.printf
        "\nnest: permuted=%b  LoopCost %a -> %a (ideal %a)\n"
        s.Core.Compound.permuted Poly.pp s.Core.Compound.cost_orig Poly.pp
        s.Core.Compound.cost_final Poly.pp s.Core.Compound.cost_ideal)
    stats.Core.Compound.nests;

  (* 4. Check the transformation is worth it on a simulated cache, and
     that the program still computes the same thing. *)
  let before = Measure.measure ~config:Machine.cache2 program in
  let after = Measure.measure ~config:Machine.cache2 transformed in
  Printf.printf
    "simulated (i860-style cache): %.2f%% -> %.2f%% hits, modelled speedup %.2fx\n"
    (Measure.hit_rate before.Measure.whole)
    (Measure.hit_rate after.Measure.whole)
    (before.Measure.cycles /. after.Measure.cycles);
  Printf.printf "results unchanged: %b\n"
    (Locality_interp.Exec.equivalent program transformed)
