(* Focused unit tests for smaller APIs: trips under unusual steps,
   memory-order ties, CSV writing, hierarchy arithmetic, measure
   attribution with the fast executor, normalisation over parameters,
   and end-to-end scalar expansion + compound. *)

open Locality_ir
module C = Locality_core
module S = Locality_suite
module St = Locality_stats
module Exec = Locality_interp.Exec
module Measure = Locality_interp.Measure
module Cache = Locality_cachesim.Cache
module H = Locality_cachesim.Hierarchy

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf = Alcotest.check (Alcotest.float 1e-9)

let pcheck name expected actual =
  Alcotest.check (Alcotest.testable Poly.pp Poly.equal) name expected actual

(* ----------------------------------------------------------- trips --- *)

let trip l = C.Trip.closed_trip (C.Trip.env_of_nest l) l.Loop.header

let test_trip_stepped () =
  (* (N - 1 + 2) / 2 = (N+1)/2 *)
  pcheck "half trip"
    (Poly.div_rat (Poly.add (Poly.var "N") Poly.one) (Rat.of_int 2))
    (trip (Loop.loop ~step:2 "I" (Expr.Int 1) (Expr.Var "N") []));
  (* (1 - N - 1) / -1 = N *)
  pcheck "downward trip" (Poly.var "N")
    (trip (Loop.loop ~step:(-1) "I" (Expr.Var "N") (Expr.Int 1) []))

(* ------------------------------------------------------ memory order --- *)

let test_memorder_tie_keeps_original () =
  (* Transpose: both orders cost the same; the stable sort must not
     gratuitously permute. *)
  let p = S.Kernels.transpose 16 in
  let nest = List.hd (Program.top_loops p) in
  let mo = C.Memorder.compute ~cls:4 nest in
  checks "tied order keeps source order" "I J"
    (String.concat " " (C.Memorder.order mo));
  checkb "counted as memory order" true (C.Memorder.is_memory_order mo)

(* ------------------------------------------------------------ csv ---- *)

let test_csv_write_all () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "memoria_csv_test" in
  let rows =
    List.filter_map
      (fun n -> Option.map (St.Table2.compute_row ~n:6) (S.Programs.find n))
      [ "mdg"; "tomcatv" ]
  in
  St.Csv.write_all ~dir rows;
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      checkb (f ^ " exists") true (Sys.file_exists path);
      let ic = open_in path in
      let header = input_line ic in
      close_in ic;
      checkb (f ^ " has header") true (String.length header > 10))
    [ "table2.csv"; "table3.csv"; "table4.csv" ]

(* ------------------------------------------------------- hierarchy --- *)

let test_hierarchy_amat_arithmetic () =
  let h =
    H.create
      ~l1:{ Cache.name = "l1"; size_bytes = 64; assoc = 1; line_bytes = 32 }
      ~l2:{ Cache.name = "l2"; size_bytes = 256; assoc = 2; line_bytes = 32 }
  in
  (* One memory access (1+8+40), one L1 hit (1): AMAT = 25.0. *)
  ignore (H.access h 0);
  ignore (H.access h 0);
  checkf "amat" 25.0 (H.amat h);
  checki "l1 stats accesses" 2 (H.l1_stats h).Cache.accesses

let test_hierarchy_rejects_bad_lines () =
  Alcotest.check_raises "L2 line < L1 line"
    (Invalid_argument "Hierarchy.create: L2 line smaller than L1 line")
    (fun () ->
      ignore
        (H.create
           ~l1:{ Cache.name = "a"; size_bytes = 128; assoc = 1; line_bytes = 64 }
           ~l2:{ Cache.name = "b"; size_bytes = 256; assoc = 1; line_bytes = 32 }))

(* --------------------------------------------------------- measure --- *)

let test_measure_attribution () =
  (* Label only the statement of one of two nests: exactly its accesses
     are attributed to the optimized region. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "attr" ~params:[ ("N", 12) ]
      ~arrays:[ ("X", [ nn; nn ]); ("Y", [ nn; nn ]) ]
      [
        do_ "Ja" (i 1) nn
          [ do_ "Ia" (i 1) nn [ asn ~label:"L1" (r "X" [ v "Ia"; v "Ja" ]) (f 1.0) ] ];
        do_ "Jb" (i 1) nn
          [ do_ "Ib" (i 1) nn [ asn ~label:"L2" (r "Y" [ v "Ib"; v "Jb" ]) (f 2.0) ] ];
      ]
  in
  let r = Measure.measure ~optimized_labels:[ "L1" ] p in
  checki "half the accesses attributed"
    (r.Measure.whole.Measure.accesses / 2)
    r.Measure.optimized.Measure.accesses

(* ------------------------------------- scalar expansion end to end --- *)

let test_expansion_then_compound () =
  (* The paper's workflow (Section 5.1): Memoria detects that scalar
     expansion enables distribution; expansion is applied, then the
     compound algorithm distributes and permutes. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "sexp2" ~params:[ ("N", 12) ]
      ~arrays:[ ("A", [ nn; nn ]); ("B", [ nn; nn ]) ]
      [
        do_ "I" (i 1) nn
          [
            sasn ~label:"E1" "t" (ld "A" [ i 1; v "I" ] *! f 0.5);
            do_ "J" (i 1) nn
              [
                asn ~label:"E2" (r "B" [ v "I"; v "J" ])
                  (ld "B" [ v "I"; v "J" ] +! sc "t");
              ];
          ];
      ]
  in
  (* Without expansion the scalar blocks distribution of the I body. *)
  let nest = List.hd (Program.top_loops p) in
  checkb "blocked" true (C.Distribution.partitions_at nest ~level:1 = None);
  match C.Scalar_expansion.expand p ~loop:"I" ~scalar:"t" with
  | Error m -> Alcotest.fail m
  | Ok p1 ->
    let p2, st = C.Compound.run_program ~cls:4 p1 in
    checkb "distribution happened" true (st.C.Compound.distributions >= 1);
    (* B's final contents are unchanged by the whole pipeline. *)
    let b_of q = List.assoc "B" (Exec.run q).Exec.arrays in
    let b0 = b_of p and b2 = b_of p2 in
    Array.iteri
      (fun i x ->
        if Float.abs (x -. b2.(i)) > 1e-9 then Alcotest.fail "B changed")
      b0

(* ----------------------------------------------------------- decl --- *)

let test_decl_and_reference_api () =
  let d = Decl.make ~elem_size:4 "Q" [ Expr.Int 3; Expr.Var "N" ] in
  checki "rank" 2 (Decl.rank d);
  checki "elem size" 4 d.Decl.elem_size;
  let r = Reference.make "Q" [ Expr.Var "I"; Expr.Int 2 ] in
  checks "printed" "Q(I,2)" (Reference.to_string r)

let suite =
  [
    ("trips under steps", `Quick, test_trip_stepped);
    ("memory-order tie stability", `Quick, test_memorder_tie_keeps_original);
    ("csv write_all", `Quick, test_csv_write_all);
    ("hierarchy amat arithmetic", `Quick, test_hierarchy_amat_arithmetic);
    ("hierarchy config validation", `Quick, test_hierarchy_rejects_bad_lines);
    ("measure attribution by label", `Quick, test_measure_attribution);
    ("scalar expansion then compound", `Quick, test_expansion_then_compound);
    ("decl and reference api", `Quick, test_decl_and_reference_api);
  ]
