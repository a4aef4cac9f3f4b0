(* Tests for the dependence analysis library: direction-vector lattice,
   subscript tests, pairwise dependences, and the statement graph. *)

open Locality_ir
module D = Locality_dep.Direction
module Dep = Locality_dep.Depend
module An = Locality_dep.Analysis
module G = Locality_dep.Graph

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------------------------------------------------------- Direction *)

let test_direction_predicates () =
  checkb "Dist 0 must_zero" true (D.must_zero (Dist 0));
  checkb "Dist 2 must_pos" true (D.must_pos (Dist 2));
  checkb "Pos not may_zero" false (D.may_zero D.Pos);
  checkb "NonNeg may_zero" true (D.may_zero D.NonNeg);
  checkb "Any may everything" true
    (D.may_pos D.Any && D.may_neg D.Any && D.may_zero D.Any)

let test_lex () =
  checkb "(1,-1) lex nonneg" true (D.lex_nonneg [ Dist 1; Dist (-1) ]);
  checkb "(-1,1) not lex nonneg" false (D.lex_nonneg [ Dist (-1); Dist 1 ]);
  checkb "(0,0) lex nonneg" true (D.lex_nonneg [ Dist 0; Dist 0 ]);
  checkb "(0+,0) lex nonneg" true (D.lex_nonneg [ D.NonNeg; Dist 0 ]);
  checkb "(*,1) not lex nonneg" false (D.lex_nonneg [ D.Star; Dist 1 ]);
  checkb "(0,*) may_lex_neg" true (D.may_lex_neg [ Dist 0; D.Star ]);
  checkb "(1,*) not may_lex_neg" false (D.may_lex_neg [ Dist 1; D.Star ]);
  checkb "(0,0) not may_lex_pos" false (D.may_lex_pos [ Dist 0; Dist 0 ]);
  checkb "(0+,0) may_lex_pos" true (D.may_lex_pos [ D.NonNeg; Dist 0 ])

let test_meet () =
  checkb "Dist/Dist equal" true (D.meet (Dist 2) (Dist 2) = Some (Dist 2));
  checkb "Dist/Dist conflict" true (D.meet (Dist 2) (Dist 3) = None);
  checkb "Any refines to Dist" true (D.meet D.Any (Dist 1) = Some (Dist 1));
  checkb "Star refines to Dist" true (D.meet D.Star (Dist 1) = Some (Dist 1));
  checkb "Pos/Neg conflict" true (D.meet D.Pos D.Neg = None);
  checkb "Pos with Dist -1 conflict" true (D.meet D.Pos (Dist (-1)) = None);
  checkb "NonNeg/NonPos is zero" true (D.meet D.NonNeg D.NonPos = Some (Dist 0))

let test_restrict () =
  checkb "restrict (-1,...) nonneg empty" true
    (D.restrict_lex_nonneg [ Dist (-1); Dist 0 ] = None);
  checkb "restrict any-leading" true
    (D.restrict_lex_nonneg [ D.Any; Dist 0 ] = Some [ D.NonNeg; Dist 0 ]);
  checkb "restrict pos of zero is none" true
    (D.restrict_lex_pos [ Dist 0; Dist 0 ] = None);
  checkb "negate involutive" true
    (D.negate (D.negate [ Dist 3; D.Pos; D.Star ]) = [ Dist 3; D.Pos; D.Star ])

let test_permute_vec () =
  let d =
    {
      Dep.src_label = "S";
      snk_label = "S";
      src_ref = Reference.make "A" [];
      snk_ref = Reference.make "A" [];
      kind = Dep.Flow;
      vec = [ D.Dist 1; D.Dist (-1); D.Star ];
      loops = [ "I"; "J"; "K" ];
      li = false;
      li_always = false;
      zero_prefix = 0;
    }
  in
  checkb "swap first two" true
    (Locality_core.Legality.reorder_vec d ~target:[ "J"; "I"; "K" ]
    = [ D.Dist (-1); D.Dist 1; D.Star ])

let test_small_constant () =
  checkb "(0,1) small at 2" true (D.small_constant_at [ Dist 0; Dist 1 ] 2);
  checkb "(1,1) not small at 2" false (D.small_constant_at [ Dist 1; Dist 1 ] 2);
  checkb "(0,Any) small at 2" true (D.small_constant_at [ Dist 0; D.Any ] 2);
  checkb "(0,3) not small at 2" false (D.small_constant_at [ Dist 0; Dist 3 ] 2)

(* ------------------------------------------------------- whole kernels *)

let matmul_loop () =
  let open Builder in
  let nn = v "N" in
  let p =
    program "matmul"
      ~params:[ ("N", 64) ]
      ~arrays:[ ("A", [ nn; nn ]); ("B", [ nn; nn ]); ("C", [ nn; nn ]) ]
      [
        do_ "J" (i 1) nn
          [
            do_ "K" (i 1) nn
              [
                do_ "I" (i 1) nn
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
  List.hd (Program.top_loops p)

let test_matmul_deps () =
  let l = matmul_loop () in
  let deps = An.deps_in_nest l in
  (* Flow (write->read), anti (read->write), and the carried output
     self-dependence on C; A and B are read-only. *)
  checki "three true deps" 3 (List.length deps);
  List.iter
    (fun (d : Dep.t) ->
      checks "all on C" "C" d.src_ref.Reference.array;
      checkb "J entry zero" true (D.must_zero (List.nth d.vec 0));
      checkb "I entry zero" true (D.must_zero (List.nth d.vec 2));
      checkb "K entry may_pos" true (D.may_pos (List.nth d.vec 1)))
    deps;
  let kinds = List.map (fun (d : Dep.t) -> d.kind) deps in
  checkb "has flow" true (List.mem Dep.Flow kinds);
  checkb "has anti" true (List.mem Dep.Anti kinds);
  checkb "has output" true (List.mem Dep.Output kinds)

let test_matmul_input_deps () =
  let l = matmul_loop () in
  let deps = An.deps_in_nest ~include_input:true l in
  let inputs = List.filter (fun (d : Dep.t) -> d.kind = Dep.Input) deps in
  (* C-read with itself is not a pair; A and B reads pair with C's read
     only when arrays match, so the input deps are on... none between
     distinct arrays. Identical refs appear once per statement scan, so
     expect zero input deps here. *)
  checki "no input deps in matmul" 0 (List.length inputs)

let stencil_nest () =
  (* DO I = 2, N ; DO J = 1, N-1 : A(I,J) = A(I-1,J+1) — the classic
     interchange-preventing dependence with distance (+1,-1). *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "stencil"
      ~params:[ ("N", 64) ]
      ~arrays:[ ("A", [ nn; nn ]) ]
      [
        do_ "I" (i 2) nn
          [
            do_ "J" (i 1) (nn -$ i 1)
              [ asn (r "A" [ v "I"; v "J" ]) (ld "A" [ v "I" -$ i 1; v "J" +$ i 1 ]) ];
          ];
      ]
  in
  List.hd (Program.top_loops p)

let test_stencil_distance () =
  let deps = An.deps_in_nest (stencil_nest ()) in
  let flows = List.filter (fun (d : Dep.t) -> d.kind = Dep.Flow) deps in
  checki "one flow dep" 1 (List.length flows);
  let d = List.hd flows in
  checkb "distance (1,-1)" true (d.vec = [ D.Dist 1; D.Dist (-1) ]);
  checkb "not loop independent" true (not d.li);
  (* Interchanged the vector becomes (-1, 1): illegal. *)
  checkb "interchange illegal" false
    (D.lex_nonneg (Locality_core.Legality.reorder_vec d ~target:(List.rev d.loops)))

let test_ziv_independent () =
  (* A(1,I) versus A(2,I): never the same location. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "ziv"
      ~params:[ ("N", 8) ]
      ~arrays:[ ("A", [ nn; nn ]) ]
      [
        do_ "I" (i 1) nn
          [ asn (r "A" [ i 1; v "I" ]) (ld "A" [ i 2; v "I" ]) ];
      ]
  in
  let deps = An.deps_in_nest (List.hd (Program.top_loops p)) in
  checki "no deps" 0 (List.length deps)

let test_step_scaled_distance () =
  (* DO I = 1, 20, 2 : A(I) = A(I-2) — index distance 2 is ONE iteration;
     A(I) = A(I-1) touches only odd vs even elements: independent. *)
  let open Builder in
  let p =
    program "st2" ~arrays:[ ("A", [ i 32 ]) ]
      [
        do_ ~step:2 "I" (i 3) (i 21)
          [ asn ~label:"W2" (r "A" [ v "I" ]) (ld "A" [ v "I" -$ i 2 ] +! f 1.0) ];
      ]
  in
  let deps =
    List.filter Dep.is_true_dep
      (An.deps_in_nest (List.hd (Program.top_loops p)))
  in
  (match List.filter (fun (d : Dep.t) -> d.kind = Dep.Flow) deps with
  | [ d ] -> checkb "iteration distance 1" true (d.vec = [ D.Dist 1 ])
  | l -> Alcotest.failf "expected one flow dep, got %d" (List.length l));
  let p2 =
    program "st2b" ~arrays:[ ("A", [ i 32 ]) ]
      [
        do_ ~step:2 "I" (i 3) (i 21)
          [ asn (r "A" [ v "I" ]) (ld "A" [ v "I" -$ i 1 ] +! f 1.0) ];
      ]
  in
  let deps2 =
    List.filter Dep.is_true_dep
      (An.deps_in_nest (List.hd (Program.top_loops p2)))
  in
  checki "odd/even disjoint: no deps" 0 (List.length deps2)

let test_strong_siv_out_of_range () =
  (* A(I) = A(I-100) in a loop of 10 iterations: distance exceeds trip. *)
  let open Builder in
  let p =
    program "range"
      ~arrays:[ ("A", [ i 1000 ]) ]
      [ do_ "I" (i 101) (i 110) [ asn (r "A" [ v "I" ]) (ld "A" [ v "I" -$ i 100 ]) ] ]
  in
  let deps = An.deps_in_nest (List.hd (Program.top_loops p)) in
  checki "no deps" 0 (List.length deps)

let test_triangular_range_refinement () =
  (* Cholesky-style: S2 writes A(I,K); S3 reads A(J,K) etc. The key fact:
     A(I,J) with J in [K+1,I] can never alias A(I,K) on the same K
     iteration, because J > K. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "tri"
      ~params:[ ("N", 16) ]
      ~arrays:[ ("A", [ nn; nn ]) ]
      [
        do_ "K" (i 1) nn
          [
            do_ "I" (v "K" +$ i 1) nn
              [
                asn ~label:"S2" (r "A" [ v "I"; v "K" ]) (ld "A" [ v "I"; v "K" ] /! f 2.0);
                do_ "J" (v "K" +$ i 1) (v "I")
                  [
                    asn ~label:"S3"
                      (r "A" [ v "I"; v "J" ])
                      (ld "A" [ v "I"; v "J" ] -! (ld "A" [ v "I"; v "K" ] *! ld "A" [ v "J"; v "K" ]));
                  ];
              ];
          ];
      ]
  in
  let l = List.hd (Program.top_loops p) in
  let deps = An.deps_in_nest l in
  (* Dependences between S3's write A(I,J) and S2's refs A(I,K) must not
     be loop-independent: J >= K+1 rules out the same-K solution. The
     A(I,K) read in S3 against S2's A(I,K) *is* loop-independent. *)
  let is_aij (r : Reference.t) =
    Reference.equal r (Reference.make "A" [ Expr.Var "I"; Expr.Var "J" ])
  in
  let crossing =
    List.filter
      (fun (d : Dep.t) ->
        (not (String.equal d.src_label d.snk_label))
        && (is_aij d.src_ref || is_aij d.snk_ref)
        && (String.equal d.src_label "S2" || String.equal d.snk_label "S2"))
      deps
  in
  checkb "some S2/S3 crossing deps" true (crossing <> []);
  List.iter
    (fun (d : Dep.t) ->
      checkb
        (Printf.sprintf "S2/S3 dep not loop independent: %s"
           (Format.asprintf "%a" Dep.pp d))
        false d.li)
    crossing;
  (* And the identical A(I,K) pair is loop-independent. *)
  let li_deps = List.filter (fun (d : Dep.t) -> d.li) deps in
  checkb "A(I,K) S2->S3 dep is li" true
    (List.exists
       (fun (d : Dep.t) ->
         String.equal d.src_label "S2" && String.equal d.snk_label "S3")
       li_deps)

let test_gmtry_refined_vectors () =
  (* ikj-form Gaussian elimination: the per-slot sign refinement must
     recover the exact directions (0,+,+) and (+,+,0) that the coupled
     triangular subscripts imply — this is what lets the compiler reach
     the KJI memory order. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "ge" ~params:[ ("N", 16) ] ~arrays:[ ("RX", [ nn; nn ]) ]
      [
        do_ "I" (i 2) nn
          [
            do_ "J" (i 1) (v "I" -$ i 1)
              [
                do_ "K" (v "J" +$ i 1) nn
                  [
                    asn ~label:"GE"
                      (r "RX" [ v "I"; v "K" ])
                      (ld "RX" [ v "I"; v "K" ]
                      -! (ld "RX" [ v "I"; v "J" ] *! ld "RX" [ v "J"; v "K" ]));
                  ];
              ];
          ];
      ]
  in
  let deps =
    List.filter Dep.is_true_dep
      (An.deps_in_nest (List.hd (Program.top_loops p)))
  in
  let find snk_sub2 =
    List.find_opt
      (fun (d : Dep.t) ->
        d.kind = Dep.Flow
        && (not (Reference.equal d.src_ref d.snk_ref))
        && Reference.equal d.snk_ref
             (Reference.make "RX" [ Expr.Var "I"; Expr.Var snk_sub2 ]))
      deps
  in
  (match find "J" with
  | Some d ->
    checkb "write->RX(I,J): (0,+,+)" true
      (d.vec = [ D.Dist 0; D.Pos; D.Pos ])
  | None -> Alcotest.fail "missing flow to RX(I,J)");
  match
    List.find_opt
      (fun (d : Dep.t) ->
        d.kind = Dep.Flow
        && Reference.equal d.snk_ref
             (Reference.make "RX" [ Expr.Var "J"; Expr.Var "K" ]))
      deps
  with
  | Some d ->
    checkb "write->RX(J,K): (+,+,0)" true
      (d.vec = [ D.Pos; D.Pos; D.Dist 0 ])
  | None -> Alcotest.fail "missing flow to RX(J,K)"

(* Brute-force soundness of the direction lattice: interpret each element
   as a set of distances in [-3,3] and check [meet] never loses a
   distance allowed by both operands, and the predicates agree with the
   sets. *)
let all_elts =
  [
    D.Dist (-2); D.Dist (-1); D.Dist 0; D.Dist 1; D.Dist 2;
    D.Pos; D.Neg; D.NonNeg; D.NonPos; D.Ne; D.Any; D.Star;
  ]

let allows e d =
  match e with
  | D.Dist k -> d = k
  | D.Pos -> d > 0
  | D.Neg -> d < 0
  | D.NonNeg -> d >= 0
  | D.NonPos -> d <= 0
  | D.Ne -> d <> 0
  | D.Any | D.Star -> true

let sample = [ -3; -2; -1; 0; 1; 2; 3 ]

let test_lattice_predicates_sound () =
  List.iter
    (fun e ->
      checkb "may_pos sound" true
        (D.may_pos e = List.exists (fun d -> d > 0 && allows e d) sample);
      checkb "may_neg sound" true
        (D.may_neg e = List.exists (fun d -> d < 0 && allows e d) sample);
      checkb "may_zero sound" true (D.may_zero e = allows e 0))
    all_elts

let test_meet_sound () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let both = List.filter (fun d -> allows a d && allows b d) sample in
          match D.meet a b with
          | None ->
            checkb
              (Printf.sprintf "meet %s %s = None implies empty" (D.to_string [ a ])
                 (D.to_string [ b ]))
              true (both = [])
          | Some m ->
            List.iter
              (fun d ->
                checkb
                  (Printf.sprintf "meet %s %s keeps %d" (D.to_string [ a ])
                     (D.to_string [ b ]) d)
                  true (allows m d))
              both)
        all_elts)
    all_elts

let test_negate_sound () =
  List.iter
    (fun e ->
      List.iter
        (fun d ->
          checkb "negate mirrors the set" true
            (allows e d = allows (D.negate_elt e) (-d)))
        sample)
    all_elts

(* Vector-level soundness: interpret vectors as sets of distance tuples
   over the sample range and check the lexicographic predicates and
   restrictions against brute force. *)
let elt_gen = QCheck.Gen.oneofl all_elts
let vec_gen = QCheck.Gen.(list_size (int_range 1 3) elt_gen)
let vec_arb = QCheck.make ~print:D.to_string vec_gen

let rec tuples = function
  | [] -> [ [] ]
  | e :: rest ->
    let tails = tuples rest in
    List.concat_map
      (fun d -> if allows e d then List.map (fun t -> d :: t) tails else [])
      sample

let rec lex_sign = function
  | [] -> 0
  | d :: rest -> if d <> 0 then compare d 0 else lex_sign rest

let prop_lex_predicates_sound =
  QCheck.Test.make ~name:"lexicographic predicates sound (brute force)"
    ~count:300 vec_arb (fun v ->
      let ts = tuples v in
      let has_neg = List.exists (fun t -> lex_sign t < 0) ts in
      let has_pos = List.exists (fun t -> lex_sign t > 0) ts in
      (* Realisations within the sample imply the may-predicates; and
         lex_nonneg (a must-claim) implies no negative realisation. *)
      ((not has_neg) || D.may_lex_neg v)
      && ((not has_pos) || D.may_lex_pos v)
      && ((not (D.lex_nonneg v)) || not has_neg))

let prop_restrict_sound =
  QCheck.Test.make ~name:"restrict_lex_nonneg keeps all nonneg tuples"
    ~count:300 vec_arb (fun v ->
      let ts = List.filter (fun t -> lex_sign t >= 0) (tuples v) in
      match D.restrict_lex_nonneg v with
      | None -> ts = []
      | Some v' ->
        List.for_all
          (fun t -> List.for_all2 allows v' t)
          ts)

let prop_restrict_pos_sound =
  QCheck.Test.make ~name:"restrict_lex_pos keeps all positive tuples"
    ~count:300 vec_arb (fun v ->
      let ts = List.filter (fun t -> lex_sign t > 0) (tuples v) in
      match D.restrict_lex_pos v with
      | None -> ts = []
      | Some v' ->
        List.for_all (fun t -> List.for_all2 allows v' t) ts)

(* --------------------------------------------------------------- Graph *)

let test_graph_scc () =
  let mk_dep src snk =
    {
      Dep.src_label = src;
      snk_label = snk;
      src_ref = Reference.make "A" [];
      snk_ref = Reference.make "A" [];
      kind = Dep.Flow;
      vec = [];
      loops = [];
      li = true;
      li_always = true;
      zero_prefix = 0;
    }
  in
  let g =
    G.build
      ~nodes:[ "S1"; "S2"; "S3"; "S4" ]
      ~deps:[ mk_dep "S1" "S2"; mk_dep "S2" "S3"; mk_dep "S3" "S2"; mk_dep "S3" "S4" ]
  in
  let sccs = G.sccs g in
  checki "three components" 3 (List.length sccs);
  checkb "S2,S3 together" true (List.mem [ "S2"; "S3" ] sccs);
  (* Topological order: S1 first, S4 last. *)
  checkb "S1 first" true (List.hd sccs = [ "S1" ]);
  checkb "S4 last" true (List.nth sccs 2 = [ "S4" ])

let test_graph_input_dropped () =
  let input_dep =
    {
      Dep.src_label = "S1";
      snk_label = "S2";
      src_ref = Reference.make "A" [];
      snk_ref = Reference.make "A" [];
      kind = Dep.Input;
      vec = [];
      loops = [];
      li = true;
      li_always = true;
      zero_prefix = 0;
    }
  in
  let g = G.build ~nodes:[ "S1"; "S2" ] ~deps:[ input_dep ] in
  let edge line = List.mem "->" (String.split_on_char ' ' line) in
  checkb "no edges" false
    (List.exists edge (String.split_on_char '\n' (G.to_dot g)))

(* ------------------------------------------------- interval prover --- *)

module P = Locality_dep.Prove

let aff e =
  match Affine.of_expr e with
  | Some a -> a
  | None -> Alcotest.fail "expected affine"

let header index lb ub step = { Loop.index; lb; ub; step }

let test_prove_rectangular () =
  let open Expr in
  let b = P.of_headers [ header "I" (Int 1) (Var "N") 1 ] in
  checkb "I - 1 >= 0" true (P.nonneg b (aff (Sub (Var "I", Int 1))));
  checkb "N - I >= 0" true (P.nonneg b (aff (Sub (Var "N", Var "I"))));
  checkb "I >= 1" true (P.positive b (aff (Var "I")));
  checkb "I - N - 1 < 0" true
    (P.negative b (aff (Sub (Var "I", Add (Var "N", Int 1)))));
  checkb "I - 2 not provably nonneg" false
    (P.nonneg b (aff (Sub (Var "I", Int 2))));
  (* Parameters are assumed >= 1. *)
  checkb "N >= 1" true (P.positive b (aff (Var "N")));
  checkb "N - 1 >= 0" true (P.nonneg b (aff (Sub (Var "N", Int 1))));
  checkb "N - 2 unknown" false (P.nonneg b (aff (Sub (Var "N", Int 2))))

let test_prove_triangular () =
  let open Expr in
  let b =
    P.of_headers
      [
        header "I" (Int 1) (Var "N") 1;
        header "J" (Add (Var "I", Int 1)) (Var "N") 1;
      ]
  in
  checkb "J - I >= 1" true (P.positive b (aff (Sub (Var "J", Var "I"))));
  checkb "I - J < 0" true (P.negative b (aff (Sub (Var "I", Var "J"))));
  checkb "J - I <> 0" true (P.nonzero b (aff (Sub (Var "J", Var "I"))));
  (* Independent loops: the sign of I - J is genuinely unknown. *)
  let b2 =
    P.of_headers
      [ header "I" (Int 1) (Var "N") 1; header "J" (Int 1) (Var "N") 1 ]
  in
  checkb "independent not nonneg" false (P.nonneg b2 (aff (Sub (Var "I", Var "J"))));
  checkb "independent not negative" false
    (P.negative b2 (aff (Sub (Var "I", Var "J"))))

let test_prove_negative_step () =
  let open Expr in
  (* DO I = N, 1, -1 iterates the same values as DO I = 1, N. *)
  let b = P.of_headers [ header "I" (Var "N") (Int 1) (-1) ] in
  checkb "I >= 1 downward" true (P.positive b (aff (Var "I")));
  checkb "N - I >= 0 downward" true (P.nonneg b (aff (Sub (Var "N", Var "I"))))

let prop_prove_sound_brute_force =
  (* Random affine facts over a fixed box: whatever the prover claims
     must hold at every point (it may refuse true facts, never assert
     false ones). *)
  let gen =
    QCheck.Gen.(
      quad (int_range (-3) 3) (int_range (-3) 3) (int_range (-6) 6)
        (int_range 0 1))
  in
  QCheck.Test.make ~name:"interval prover sound (brute force)" ~count:300
    (QCheck.make gen) (fun (ci, cj, c0, tri) ->
      let jlb = if tri = 1 then Expr.Var "I" else Expr.Int 1 in
      let b =
        P.of_headers
          [ header "I" (Expr.Int 1) (Expr.Int 5) 1; header "J" jlb (Expr.Int 8) 1 ]
      in
      let a =
        aff
          (Expr.Add
             ( Expr.Add
                 ( Expr.Mul (Expr.Int ci, Expr.Var "I"),
                   Expr.Mul (Expr.Int cj, Expr.Var "J") ),
               Expr.Int c0 ))
      in
      let values = ref [] in
      for i = 1 to 5 do
        for j = (if tri = 1 then i else 1) to 8 do
          values := ((ci * i) + (cj * j) + c0) :: !values
        done
      done;
      let all p = List.for_all p !values in
      ((not (P.nonneg b a)) || all (fun v -> v >= 0))
      && ((not (P.positive b a)) || all (fun v -> v >= 1))
      && ((not (P.negative b a)) || all (fun v -> v < 0))
      && ((not (P.nonzero b a)) || all (fun v -> v <> 0)))

(* --------------------------- end-to-end coverage by brute force ----- *)

(* Random depth-2 nests with affine subscripts (coupled, scaled, constant
   and transposed dimensions all possible). Every memory dependence that
   actually occurs when the iteration space is enumerated exhaustively
   must be admitted by some reported dependence vector — the analyzer is
   allowed to over-approximate, never to miss. *)

let nsize = 6

let gen_dep_nest : Loop.t QCheck.Gen.t =
  let open QCheck.Gen in
  let coeffs = oneofl [ (1, 0); (0, 1); (1, 1); (2, 0); (0, 2); (1, -1); (0, 0) ] in
  let gen_sub =
    let* a, b = coeffs in
    let* c = int_range (-2) 2 in
    (* a*I + b*J + c as an Expr *)
    let term k var acc =
      if k = 0 then acc
      else
        let t =
          if k = 1 then Expr.Var var else Expr.Mul (Expr.Int k, Expr.Var var)
        in
        match acc with
        | None -> Some t
        | Some e -> Some (Expr.Add (e, t))
    in
    let e = term a "I" None in
    let e = term b "J" e in
    let e =
      match e with
      | None -> Expr.Int c
      | Some e -> if c = 0 then e else Expr.Add (e, Expr.Int c)
    in
    return e
  in
  let gen_ref =
    let* name = oneofl [ "A"; "B" ] in
    let* s1 = gen_sub and* s2 = gen_sub in
    return (Reference.make name [ s1; s2 ])
  in
  let counter = ref 0 in
  let gen_stmt =
    let* lhs = gen_ref in
    let* r1 = gen_ref in
    incr counter;
    return
      (Loop.Stmt
         (Stmt.assign
            ~label:(Printf.sprintf "S%d" !counter)
            lhs
            (Stmt.Binop (Stmt.Fadd, Stmt.Load r1, Stmt.Const 1.0))))
  in
  let* nstmts = int_range 1 2 in
  let* stmts = list_repeat nstmts gen_stmt in
  counter := 0;
  let open Builder in
  match do_ "I" (i 1) (i nsize) [ do_ "J" (i 1) (i nsize) stmts ] with
  | Loop.Loop l -> return l
  | Loop.Stmt _ -> assert false

let admits_elt (e : D.elt) d =
  match e with
  | D.Dist k -> d = k
  | D.Pos -> d > 0
  | D.Neg -> d < 0
  | D.NonNeg -> d >= 0
  | D.NonPos -> d <= 0
  | D.Ne -> d <> 0
  | D.Any | D.Star -> true

(* All (statement, reference, access) triples of the nest body, in
   within-iteration execution order: reads of a statement before its
   write, statements in textual order. *)
let ordered_accesses (nest : Loop.t) =
  List.concat_map
    (fun s ->
      let reads =
        List.filter_map
          (fun (r, acc) -> if acc = `Read then Some (s, r, `Read) else None)
          (Stmt.refs s)
      in
      let writes =
        List.filter_map
          (fun (r, acc) -> if acc = `Write then Some (s, r, `Write) else None)
          (Stmt.refs s)
      in
      reads @ writes)
    (Loop.statements nest)

let eval_ref (r : Reference.t) i j =
  let env = function
    | "I" -> i
    | "J" -> j
    | v -> failwith ("unexpected var " ^ v)
  in
  (r.Reference.array, List.map (fun s -> Expr.eval s env) r.Reference.subs)

let covered deps ~src:(s1, r1, a1) ~snk:(s2, r2, a2) ~dist =
  let kind =
    match (a1, a2) with
    | `Write, `Read -> Dep.Flow
    | `Read, `Write -> Dep.Anti
    | `Write, `Write -> Dep.Output
    | `Read, `Read -> Dep.Input
  in
  List.exists
    (fun (d : Dep.t) ->
      d.Dep.kind = kind
      && d.Dep.src_label = s1.Stmt.label
      && d.Dep.snk_label = s2.Stmt.label
      && Reference.to_string d.Dep.src_ref = Reference.to_string r1
      && Reference.to_string d.Dep.snk_ref = Reference.to_string r2
      && List.for_all2 admits_elt d.Dep.vec dist
      && (List.exists (fun x -> x <> 0) dist || d.Dep.li))
    deps

let prop_deps_cover_brute_force =
  let print l =
    Pretty.program_to_string
      (Program.make ~name:"cover"
         [
           Decl.make "A" [ Expr.Int 99; Expr.Int 99 ];
           Decl.make "B" [ Expr.Int 99; Expr.Int 99 ];
         ]
         [ Loop.Loop l ])
  in
  QCheck.Test.make ~name:"dependence analysis covers brute force" ~count:150
    (QCheck.make ~print gen_dep_nest)
    (fun nest ->
      let deps = An.deps_in_nest nest in
      let accs = ordered_accesses nest in
      let indexed = List.mapi (fun k a -> (k, a)) accs in
      List.for_all
        (fun (k1, ((_, r1, a1) as acc1)) ->
          List.for_all
            (fun (k2, ((_, r2, a2) as acc2)) ->
              let (arr1 : string), _ = eval_ref r1 1 1
              and arr2, _ = eval_ref r2 1 1 in
              if arr1 <> arr2 || (a1 = `Read && a2 = `Read) then true
              else
                (* enumerate iteration pairs (i1,j1) -> (i2,j2) with
                   acc1 executing strictly before acc2 *)
                let ok = ref true in
                for i1 = 1 to nsize do
                  for j1 = 1 to nsize do
                    for i2 = 1 to nsize do
                      for j2 = 1 to nsize do
                        let earlier =
                          (i1, j1) < (i2, j2)
                          || ((i1, j1) = (i2, j2) && k1 < k2)
                        in
                        if earlier then begin
                          let _, c1 = eval_ref r1 i1 j1 in
                          let _, c2 = eval_ref r2 i2 j2 in
                          if c1 = c2 then
                            let dist = [ i2 - i1; j2 - j1 ] in
                            if
                              not
                                (covered deps ~src:acc1 ~snk:acc2 ~dist)
                            then ok := false
                        end
                      done
                    done
                  done
                done;
                !ok)
            indexed)
        indexed)

(* Same idea at depth 3 with triangular bounds and coupled subscripts:
   stresses the interval prover and the per-slot sign refinement. *)

let enumerate_iters (nest : Loop.t) =
  let headers = Loop.loops_on_spine nest in
  let out = ref [] in
  let rec go env = function
    | [] -> out := List.rev env :: !out
    | (h : Loop.header) :: rest ->
      let e name =
        match List.assoc_opt name env with
        | Some v -> v
        | None -> failwith ("unbound " ^ name)
      in
      let lb = Expr.eval h.Loop.lb e and ub = Expr.eval h.Loop.ub e in
      let v = ref lb in
      while
        (h.Loop.step > 0 && !v <= ub) || (h.Loop.step < 0 && !v >= ub)
      do
        go ((h.Loop.index, !v) :: env) rest;
        v := !v + h.Loop.step
      done
  in
  go [] headers;
  List.rev !out

let nsize3 = 5

let gen_dep_nest3 : Loop.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Builder in
  let gen_sub =
    let* shape =
      oneofl
        [ `Var "I"; `Var "J"; `Var "K"; `Sum ("I", "J"); `Sum ("J", "K");
          `Diff ("I", "J"); `Scale "K"; `Const ]
    in
    let* c = int_range (-1) 1 in
    let base =
      match shape with
      | `Var x -> v x
      | `Sum (x, y) -> v x +$ v y
      | `Diff (x, y) -> v x -$ v y +$ i nsize3 (* keep it positive-ish *)
      | `Scale x -> i 2 *$ v x
      | `Const -> i 3
    in
    return (if c = 0 then base else base +$ i c)
  in
  let gen_ref =
    let* name = oneofl [ "A"; "B" ] in
    let* s1 = gen_sub and* s2 = gen_sub in
    return (Reference.make name [ s1; s2 ])
  in
  let counter = ref 0 in
  let gen_stmt =
    let* lhs = gen_ref in
    let* r1 = gen_ref in
    incr counter;
    return
      (Loop.Stmt
         (Stmt.assign
            ~label:(Printf.sprintf "T%d" !counter)
            lhs
            (Stmt.Binop (Stmt.Fadd, Stmt.Load r1, Stmt.Const 1.0))))
  in
  let* nstmts = int_range 1 2 in
  let* stmts = list_repeat nstmts gen_stmt in
  counter := 0;
  let* jb = oneofl [ (i 1, i nsize3); (v "I", i nsize3); (i 1, v "I") ] in
  let* kb =
    oneofl [ (i 1, i nsize3); (v "J", i nsize3); (i 1, v "J"); (v "I", i nsize3) ]
  in
  let jlb, jub = jb and klb, kub = kb in
  match
    do_ "I" (i 1) (i nsize3) [ do_ "J" jlb jub [ do_ "K" klb kub stmts ] ]
  with
  | Loop.Loop l -> return l
  | Loop.Stmt _ -> assert false

let eval_ref_env (r : Reference.t) env =
  let e name =
    match List.assoc_opt name env with
    | Some v -> v
    | None -> failwith ("unbound " ^ name)
  in
  (r.Reference.array, List.map (fun s -> Expr.eval s e) r.Reference.subs)

let prop_deps_cover_brute_force_deep3 =
  let print l =
    Pretty.program_to_string
      (Program.make ~name:"cover3"
         [
           Decl.make "A" [ Expr.Int 99; Expr.Int 99 ];
           Decl.make "B" [ Expr.Int 99; Expr.Int 99 ];
         ]
         [ Loop.Loop l ])
  in
  QCheck.Test.make
    ~name:"dependence analysis covers brute force (triangular depth 3)"
    ~count:80
    (QCheck.make ~print gen_dep_nest3)
    (fun nest ->
      let deps = An.deps_in_nest nest in
      let iters = Array.of_list (enumerate_iters nest) in
      let indexed = List.mapi (fun k a -> (k, a)) (ordered_accesses nest) in
      List.for_all
        (fun (k1, ((_, r1, a1) as acc1)) ->
          List.for_all
            (fun (k2, ((_, r2, a2) as acc2)) ->
              if
                r1.Reference.array <> r2.Reference.array
                || (a1 = `Read && a2 = `Read)
              then true
              else begin
                let ok = ref true in
                Array.iteri
                  (fun x1 v1 ->
                    Array.iteri
                      (fun x2 v2 ->
                        let earlier = x1 < x2 || (x1 = x2 && k1 < k2) in
                        if earlier && !ok then begin
                          let _, c1 = eval_ref_env r1 v1 in
                          let _, c2 = eval_ref_env r2 v2 in
                          if c1 = c2 then begin
                            let dist =
                              List.map2
                                (fun (_, b) (_, a) -> b - a)
                                v2 v1
                            in
                            if not (covered deps ~src:acc1 ~snk:acc2 ~dist)
                            then ok := false
                          end
                        end)
                      iters)
                  iters;
                !ok
              end)
            indexed)
        indexed)

(* Negative control: the coverage predicate must actually detect a
   missing dependence, otherwise the property above is vacuous. *)
let test_coverage_check_not_vacuous () =
  let open Builder in
  let nest =
    match
      do_ "I" (i 1) (i nsize)
        [
          do_ "J" (i 1) (i nsize)
            [
              asn ~label:"S1"
                (r "A" [ v "I"; v "J" ])
                (ld "A" [ v "I" -$ i 1; v "J" ] +! f 1.0);
            ];
        ]
    with
    | Loop.Loop l -> l
    | Loop.Stmt _ -> assert false
  in
  match ordered_accesses nest with
  | [ ((_, _, `Read) as src); ((_, _, `Write) as snk) ] ->
    (* A(I-1,J) read at iteration (i+1,j) collides with the write at
       (i,j): flow distance (1,0) from the write, anti distance... here
       check the write->read flow pair the analyzer must report. *)
    checkb "real dep covered" true
      (covered (An.deps_in_nest nest) ~src:snk ~snk:src ~dist:[ 1; 0 ]);
    checkb "empty dep list is caught" false
      (covered [] ~src:snk ~snk:src ~dist:[ 1; 0 ])
  | _ -> Alcotest.fail "unexpected access shape"

(* Fuzzer-found: a reversed loop's header carries (lb, ub) = (start,
   end), so for DO J = 2, 1, -1 the value range is [ub, lb]. The
   sign-hypothesis feasibility check read them as [min, max], proving
   reversed-loop iterations out of bounds and dropping the output
   dependences between these two writes — which let distribution
   separate them and change the final writer of A(3,2,1). *)
let test_reversed_loop_output_dep () =
  let p =
    Locality_lang.Lower.parse_program
      "PROGRAM p\n\
       PARAMETER (N = 4)\n\
       REAL*8 A(N+2, N+2, N+2)\n\
       S = 0.5\n\
       DO I = 1, N-1\n\
      \  DO J = 2, 1, -1\n\
      \    DO K = 1, 1\n\
      \      A(3,2,1) = 1.0\n\
      \    ENDDO\n\
      \    A(I,J,1) = S\n\
      \  ENDDO\n\
       ENDDO\n\
       END\n"
  in
  let nest = List.hd (Program.top_loops p) in
  let cross =
    List.filter
      (fun (d : Dep.t) ->
        d.Dep.kind = Dep.Output
        && (not (String.equal d.Dep.src_label d.Dep.snk_label))
        && String.equal d.Dep.src_ref.Reference.array "A")
      (An.deps_in_nest nest)
  in
  checkb "output dep between the two writes" true (cross <> []);
  checkb "reported in both directions" true
    (List.exists
       (fun (d : Dep.t) ->
         List.exists
           (fun (d' : Dep.t) ->
             String.equal d.Dep.src_label d'.Dep.snk_label
             && String.equal d.Dep.snk_label d'.Dep.src_label)
           cross)
       cross)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_lex_predicates_sound;
      prop_restrict_sound;
      prop_restrict_pos_sound;
      prop_deps_cover_brute_force;
      prop_deps_cover_brute_force_deep3;
      prop_prove_sound_brute_force;
    ]

(* ------------------------------------------------ pair-test memo --- *)

module Compound = Locality_core.Compound
module Kernels = Locality_suite.Kernels
module Programs = Locality_suite.Programs
module Gen = Locality_fuzz.Gen
module Obs = Locality_obs.Obs
module Summary = Locality_obs.Summary

(* Every block an analysis may be asked about: the program body, each
   nest on its own, and the body of every loop at any depth under its
   enclosing headers. Sibling nests and same-headed sibling loops put
   the same paths at different common depths. *)
let blocks (p : Program.t) =
  let rec of_block outer b acc =
    List.fold_left
      (fun acc node ->
        match node with
        | Loop.Stmt _ -> acc
        | Loop.Loop l ->
          of_block (outer @ [ l.Loop.header ]) l.Loop.body
            ((outer, [ node ]) :: acc))
      ((outer, b) :: acc) b
  in
  List.rev (of_block [] p.Program.body [])

let first_nest (p : Program.t) =
  match
    List.find_map
      (function Loop.Loop l -> Some l | Loop.Stmt _ -> None)
      p.Program.body
  with
  | Some l -> l
  | None -> Alcotest.fail "program without a nest"

let pair_counters f =
  let v, events = Obs.collect f in
  let s = Summary.of_events events in
  let c name = Option.value ~default:0 (List.assoc_opt name s.Summary.counters) in
  (v, c "dep.pair_tests", c "dep.pair_lookups")

(* [Analysis.deps] gives the same list inside one memo scope as outside
   any, on every block of each program and of compound's result for it
   (permuted, fused and distributed nests). One scope spans the whole
   corpus, so the memo is asked about pairs from every program. *)
let check_memo_invisible corpus programs =
  let results = List.map (fun p -> (p, Compound.run_program ~cls:4 p)) programs in
  let count f = List.length (List.filter f results) in
  let cases =
    List.concat_map
      (fun (p, (p', _)) ->
        List.concat_map
          (fun (outer, b) -> [ (outer, b, false); (outer, b, true) ])
          (blocks p @ blocks p'))
      results
  in
  let analyse (outer, b, include_input) = An.deps ~include_input ~outer b in
  let plain = List.map analyse cases in
  let memoized, tests, lookups =
    pair_counters (fun () -> Dep.with_memo (fun () -> List.map analyse cases))
  in
  let differ = List.length (List.filter Fun.id (List.map2 ( <> ) plain memoized)) in
  checki (corpus ^ ": blocks whose dependences differ under the memo") 0 differ;
  checkb (corpus ^ ": the memo answered repeated pairs") true (lookups > tests);
  ( count (fun (_, (_, st)) ->
        List.exists (fun n -> n.Compound.permuted) st.Compound.nests),
    count (fun (_, (_, st)) ->
        st.Compound.fusions_applied > 0
        || List.exists (fun n -> n.Compound.fused_enabling) st.Compound.nests),
    count (fun (_, (_, st)) -> st.Compound.distributions > 0) )

let test_memo_invisible () =
  let kernels = List.map (fun (_, mk) -> mk 16) Kernels.all in
  let suite = List.map (fun e -> Programs.program_of ~n:16 e) Programs.all in
  let fuzz = List.init 500 (fun index -> Gen.generate ~seed:5 ~index ~size:20) in
  checki "kernels" 18 (List.length kernels);
  checki "suite programs" 35 (List.length suite);
  let add (a, b, c) (d, e, f) = (a + d, b + e, c + f) in
  let permuted, fused, distributed =
    add
      (add (check_memo_invisible "kernels" kernels)
         (check_memo_invisible "suite" suite))
      (check_memo_invisible "fuzz" fuzz)
  in
  checkb "compound permuted some nests" true (permuted > 0);
  checkb "compound fused some nests" true (fused > 0);
  checkb "compound distributed some nests" true (distributed > 0)

(* Compound tests each distinct pair once. Without the memo, lu at n=24
   ran 146 pair tests (every lookup was a test); with it, 68. A second
   run in the same scope tests nothing new. *)
let test_memo_counts () =
  let lu = Kernels.lu 24 in
  let _, tests, lookups = pair_counters (fun () -> Compound.run_program ~cls:4 lu) in
  checki "lu: distinct pairs tested" 68 tests;
  checki "lu: pair tests asked for (the count without the memo)" 146 lookups;
  let _, tests2, lookups2 =
    pair_counters (fun () ->
        Dep.with_memo (fun () ->
            ignore (Compound.run_program ~cls:4 lu);
            Compound.run_program ~cls:4 lu))
  in
  checki "two runs in one scope test each pair once" tests tests2;
  checki "two runs in one scope ask twice" (2 * lookups) lookups2;
  let _, quiet_tests, _ =
    pair_counters (fun () -> An.deps_in_nest (first_nest lu))
  in
  checki "no counter outside a scope" 0 quiet_tests

(* The scope ends when [f] raises: the next compound run opens a fresh
   one (a stale scope would absorb it and report nothing). *)
let test_memo_scope_ends_on_raise () =
  let lu = Kernels.lu 24 in
  (try
     Dep.with_memo (fun () ->
         ignore (Compound.run_program ~cls:4 lu);
         raise Exit)
   with Exit -> ());
  let _, tests, lookups =
    pair_counters (fun () -> Compound.run_program ~cls:4 lu)
  in
  checki "a fresh scope tests every pair" 68 tests;
  checki "a fresh scope counts every lookup" 146 lookups

let suite =
  props
  @ [
    ("direction predicates", `Quick, test_direction_predicates);
    ("lexicographic tests", `Quick, test_lex);
    ("meet lattice", `Quick, test_meet);
    ("restrict operations", `Quick, test_restrict);
    ("vector permutation", `Quick, test_permute_vec);
    ("small-constant (RefGroup 1b)", `Quick, test_small_constant);
    ("matmul dependences", `Quick, test_matmul_deps);
    ("matmul input deps", `Quick, test_matmul_input_deps);
    ("stencil distance (+1,-1)", `Quick, test_stencil_distance);
    ("ziv independence", `Quick, test_ziv_independent);
    ("strong siv out of range", `Quick, test_strong_siv_out_of_range);
    ("step-scaled distances", `Quick, test_step_scaled_distance);
    ("triangular range refinement", `Quick, test_triangular_range_refinement);
    ("prover rectangular facts", `Quick, test_prove_rectangular);
    ("prover triangular facts", `Quick, test_prove_triangular);
    ("prover negative step", `Quick, test_prove_negative_step);
    ("reversed-loop output dep", `Quick, test_reversed_loop_output_dep);
    ("gmtry refined vectors", `Quick, test_gmtry_refined_vectors);
    ("lattice predicates sound", `Quick, test_lattice_predicates_sound);
    ("meet sound (brute force)", `Quick, test_meet_sound);
    ("negate sound (brute force)", `Quick, test_negate_sound);
    ("coverage check not vacuous", `Quick, test_coverage_check_not_vacuous);
    ("graph scc + topo order", `Quick, test_graph_scc);
    ("graph drops input deps", `Quick, test_graph_input_dropped);
    ("pair memo: same dependences in and out of scope", `Slow,
     test_memo_invisible);
    ("pair memo: compound tests each pair once", `Quick, test_memo_counts);
    ("pair memo: scope ends on raise", `Quick, test_memo_scope_ends_on_raise);
  ]
