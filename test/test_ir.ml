(* Unit and property tests for the IR library: rationals, polynomials,
   expressions, affine forms, loops, programs, and pretty-printing. *)

open Locality_ir

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let checki = Alcotest.check Alcotest.int

(* ---------------------------------------------------------------- Rat *)

let rat = Format.asprintf "%a" Rat.pp

let test_rat_normalisation () =
  checks "6/4 reduces" "3/2" (rat (Rat.make 6 4));
  checks "negative denominator" "-1/2" (rat (Rat.make 1 (-2)));
  checks "zero" "0" (rat (Rat.make 0 5));
  checkb "integer" true (Rat.is_integer (Rat.make 8 4));
  checki "to_int" 2 (Rat.to_int (Rat.make 8 4))

let test_rat_arith () =
  let half = Rat.make 1 2 and third = Rat.make 1 3 in
  checks "1/2+1/3" "5/6" (rat (Rat.add half third));
  checks "1/2*1/3" "1/6" (rat (Rat.mul half third));
  checks "1/2 / 1/3" "3/2" (rat (Rat.div half third));
  checkb "compare" true (Rat.compare third half < 0);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Rat.div half Rat.zero))

let rat_gen =
  QCheck.Gen.(
    map2 (fun n d -> Rat.make n d) (int_range (-50) 50) (int_range 1 50))

let rat_arb = QCheck.make ~print:rat rat_gen

let prop_rat_add_comm =
  QCheck.Test.make ~name:"rat add commutative" ~count:200
    (QCheck.pair rat_arb rat_arb) (fun (a, b) ->
      Rat.equal (Rat.add a b) (Rat.add b a))

let prop_rat_mul_distributes =
  QCheck.Test.make ~name:"rat mul distributes over add" ~count:200
    (QCheck.triple rat_arb rat_arb rat_arb) (fun (a, b, c) ->
      Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))

(* --------------------------------------------------------------- Poly *)

let n = Poly.var "n"

let test_poly_basic () =
  let p = Poly.mul (Poly.add n Poly.one) (Poly.add n Poly.one) in
  checks "(n+1)^2" "n^2 + 2n + 1" (Poly.to_string p);
  checkb "equal" true
    (Poly.equal p
       (Poly.add (Poly.mul n n) (Poly.add (Poly.mul_rat (Rat.of_int 2) n) Poly.one)));
  checki "degree" 2 (Poly.degree p);
  check (Alcotest.list Alcotest.string) "vars" [ "n" ] (Poly.vars p)

let test_poly_pp_paper_style () =
  (* The matmul JKI total from Figure 2. *)
  let p =
    Poly.add
      (Poly.mul_rat (Rat.of_int 2) (Poly.mul n (Poly.mul n n)))
      (Poly.mul n n)
  in
  checks "2n^3 + n^2" "2n^3 + n^2" (Poly.to_string p);
  let q = Poly.add (Poly.div_rat (Poly.mul n (Poly.mul n n)) (Rat.of_int 4)) n in
  checks "1/4n^3 + n" "1/4n^3 + n" (Poly.to_string q)

let test_poly_compare_dominant () =
  let n3 = Poly.mul n (Poly.mul n n) in
  let n2 = Poly.mul n n in
  checkb "n^3 > 5n^2" true
    (Poly.compare_dominant n3 (Poly.mul_rat (Rat.of_int 5) n2) > 0);
  checkb "2n^3 > n^3" true
    (Poly.compare_dominant (Poly.mul_rat (Rat.of_int 2) n3) n3 > 0);
  checkb "n^3+n^2 > n^3" true
    (Poly.compare_dominant (Poly.add n3 n2) n3 > 0);
  checkb "equal" true (Poly.compare_dominant n2 n2 = 0);
  checkb "1/4 n^3 < n^3" true
    (Poly.compare_dominant (Poly.div_rat n3 (Rat.of_int 4)) n3 < 0)

let test_poly_subst_eval () =
  let p = Poly.add (Poly.mul n n) n in
  let q = Poly.subst p "n" (Poly.int 10) in
  (match Poly.is_const q with
  | Some c -> checki "subst eval" 110 (Rat.to_int c)
  | None -> Alcotest.fail "expected constant");
  check (Alcotest.float 1e-9) "eval" 110.0 (Poly.eval p (fun _ -> 10.0))

let small_poly_gen =
  let open QCheck.Gen in
  let base =
    oneof
      [ map Poly.int (int_range (-5) 5); return (Poly.var "x"); return (Poly.var "y") ]
  in
  let rec go depth =
    if depth = 0 then base
    else
      oneof
        [
          base;
          map2 Poly.add (go (depth - 1)) (go (depth - 1));
          map2 Poly.mul (go (depth - 1)) (go (depth - 1));
          map Poly.neg (go (depth - 1));
        ]
  in
  go 3

let poly_arb = QCheck.make ~print:Poly.to_string small_poly_gen

let prop_poly_ring =
  QCheck.Test.make ~name:"poly ring laws" ~count:200
    (QCheck.triple poly_arb poly_arb poly_arb) (fun (a, b, c) ->
      Poly.equal (Poly.add a b) (Poly.add b a)
      && Poly.equal (Poly.mul a b) (Poly.mul b a)
      && Poly.equal (Poly.mul a (Poly.add b c)) (Poly.add (Poly.mul a b) (Poly.mul a c))
      && Poly.equal (Poly.sub a a) Poly.zero
      && Poly.equal (Poly.mul a Poly.one) a)

let prop_poly_eval_hom =
  QCheck.Test.make ~name:"poly eval is a homomorphism" ~count:200
    (QCheck.pair poly_arb poly_arb) (fun (a, b) ->
      let env = function "x" -> 3.0 | _ -> 5.0 in
      let close x y = Float.abs (x -. y) <= 1e-6 *. (1.0 +. Float.abs x) in
      close (Poly.eval (Poly.add a b) env) (Poly.eval a env +. Poly.eval b env)
      && close (Poly.eval (Poly.mul a b) env) (Poly.eval a env *. Poly.eval b env))

(* --------------------------------------------------------------- Expr *)

let test_expr_simplify () =
  let open Expr in
  checks "fold" "5" (to_string (simplify (Add (Int 2, Int 3))));
  checks "x+0" "x" (to_string (simplify (Add (Var "x", Int 0))));
  checks "x*1" "x" (to_string (simplify (Mul (Var "x", Int 1))));
  checks "x*0" "0" (to_string (simplify (Mul (Var "x", Int 0))));
  checks "x+(-2)" "x-2" (to_string (simplify (Add (Var "x", Int (-2)))));
  checki "eval" 11 (eval (Add (Mul (Int 2, Var "x"), Int 1)) (fun _ -> 5))

let test_expr_subst_vars () =
  let open Expr in
  let e = Add (Var "I", Mul (Int 2, Var "J")) in
  check (Alcotest.list Alcotest.string) "vars" [ "I"; "J" ] (vars e);
  checks "subst" "K+2*J" (to_string (subst e "I" (Var "K")))

(* ------------------------------------------------------------- Affine *)

let test_affine_of_expr () =
  let open Expr in
  let e = Add (Sub (Mul (Int 2, Var "I"), Var "J"), Int 3) in
  match Affine.of_expr e with
  | None -> Alcotest.fail "should be affine"
  | Some a ->
    checki "coeff I" 2 (Affine.coeff a "I");
    checki "coeff J" (-1) (Affine.coeff a "J");
    checki "coeff K" 0 (Affine.coeff a "K");
    checki "const" 3 (Affine.const a);
    checki "eval" 9
      (Expr.eval (Affine.to_expr a) (fun x -> if x = "I" then 4 else 2))

let test_affine_nonaffine () =
  checkb "I*J not affine" true
    (Affine.of_expr (Expr.Mul (Var "I", Var "J")) = None);
  checkb "2*(I+J) affine" true
    (Affine.of_expr (Expr.Mul (Int 2, Add (Var "I", Var "J"))) <> None)

let test_affine_subst () =
  match Affine.of_expr (Expr.Sub (Var "J", Var "K")) with
  | None -> Alcotest.fail "affine"
  | Some a ->
    let b = Affine.subst a "J" (Affine.of_const 5) in
    checki "const after subst" 5 (Affine.const b);
    checki "K coeff" (-1) (Affine.coeff b "K")

(* --------------------------------------------------------------- Loop *)

let matmul order =
  (* order is a 3-char string like "JKI", outermost first *)
  let open Builder in
  let nn = v "N" in
  let body =
    asn
      (r "C" [ v "I"; v "J" ])
      (ld "C" [ v "I"; v "J" ] +! (ld "A" [ v "I"; v "K" ] *! ld "B" [ v "K"; v "J" ]))
  in
  let rec nest = function
    | [] -> body
    | x :: rest -> do_ (String.make 1 x) (i 1) nn [ nest rest ]
  in
  program "matmul"
    ~params:[ ("N", 64) ]
    ~arrays:[ ("A", [ nn; nn ]); ("B", [ nn; nn ]); ("C", [ nn; nn ]) ]
    [ nest (List.init (String.length order) (String.get order)) ]

let test_loop_structure () =
  let p = matmul "JKI" in
  let l = List.hd (Program.top_loops p) in
  checki "depth" 3 (Loop.depth l);
  checkb "perfect" true (Loop.is_perfect l);
  check (Alcotest.list Alcotest.string) "spine" [ "J"; "K"; "I" ]
    (List.map (fun (h : Loop.header) -> h.Loop.index) (Loop.loops_on_spine l));
  checki "statements" 1 (List.length (Loop.statements l));
  let s = List.hd (Loop.statements l) in
  (match Loop.enclosing_headers l s with
  | Some hs ->
    check (Alcotest.list Alcotest.string) "enclosing" [ "J"; "K"; "I" ]
      (List.map (fun (h : Loop.header) -> h.Loop.index) hs)
  | None -> Alcotest.fail "statement not found");
  let trip = Locality_core.Trip.(closed_trip (env_of_nest l)) l.header in
  checks "trip" "n" (Poly.to_string (Poly.subst trip "N" (Poly.var "n")))

let test_loop_imperfect () =
  let open Builder in
  let nn = v "N" in
  let l =
    Loop.loop "I" (i 1) nn
      [
        asn (r "X" [ v "I" ]) (f 0.0);
        do_ "J" (i 1) nn [ asn (r "Y" [ v "I"; v "J" ]) (f 1.0) ];
      ]
  in
  checkb "imperfect" false (Loop.is_perfect l);
  checki "depth" 2 (Loop.depth l);
  checki "inner loops" 1 (List.length (Loop.inner_loops l));
  checkb "body not all loops" false (Loop.body_is_all_loops l)

(* ------------------------------------------------------------ Program *)

let test_program_validate () =
  let open Builder in
  let nn = v "N" in
  (* Undeclared array *)
  (try
     ignore
       (program "bad" ~arrays:[ ("A", [ nn ]) ]
          [ do_ "I" (i 1) nn [ asn (r "B" [ v "I" ]) (f 0.0) ] ]);
     Alcotest.fail "expected invalid_arg"
   with Invalid_argument _ -> ());
  (* Rank mismatch *)
  (try
     ignore
       (program "bad2" ~arrays:[ ("A", [ nn ]) ]
          [ do_ "I" (i 1) nn [ asn (r "A" [ v "I"; v "I" ]) (f 0.0) ] ]);
     Alcotest.fail "expected invalid_arg"
   with Invalid_argument _ -> ());
  (* Shadowed index *)
  try
    ignore
      (program "bad3" ~arrays:[ ("A", [ nn; nn ]) ]
         [
           do_ "I" (i 1) nn
             [ do_ "I" (i 1) nn [ asn (r "A" [ v "I"; v "I" ]) (f 0.0) ] ];
         ]);
    Alcotest.fail "expected invalid_arg"
  with Invalid_argument _ -> ()

(* Labels are a function of the program: unlabelled statements are named
   S1, S2, ... in textual order, skipping labels the program already
   uses, however many programs were built before. *)
let test_program_labels () =
  let open Builder in
  let nn = v "N" in
  let build () =
    program "labels" ~params:[ ("N", 4) ] ~arrays:[ ("A", [ nn ]) ]
      [
        asn (r "A" [ i 1 ]) (f 0.0);
        do_ "I" (i 1) nn
          [
            asn ~label:"S2" (r "A" [ v "I" ]) (f 1.0);
            asn (r "A" [ v "I" ]) (f 2.0);
          ];
        asn (r "A" [ i 2 ]) (f 3.0);
      ]
  in
  ignore (build ());
  check
    Alcotest.(list string)
    "textual order, explicit S2 skipped, as in the first build"
    [ "S1"; "S2"; "S3"; "S4" ]
    (Loop.labels (build ()).Program.body)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_pretty () =
  let p = matmul "JKI" in
  let s = Pretty.program_to_string p in
  checkb "has DO J" true (contains s "DO J = 1, N");
  checkb "has stmt" true (contains s "C(I,J) = C(I,J) + A(I,K) * B(K,J)");
  checkb "has ENDDO" true (contains s "ENDDO");
  checkb "declares C" true (contains s "C(N, N)")

let suite =
  [
    ("rat normalisation", `Quick, test_rat_normalisation);
    ("rat arithmetic", `Quick, test_rat_arith);
    ("poly basic", `Quick, test_poly_basic);
    ("poly paper-style printing", `Quick, test_poly_pp_paper_style);
    ("poly dominant-term compare", `Quick, test_poly_compare_dominant);
    ("poly subst/eval", `Quick, test_poly_subst_eval);
    ("expr simplify", `Quick, test_expr_simplify);
    ("expr subst/vars", `Quick, test_expr_subst_vars);
    ("affine of_expr", `Quick, test_affine_of_expr);
    ("affine non-affine cases", `Quick, test_affine_nonaffine);
    ("affine subst", `Quick, test_affine_subst);
    ("loop structure (matmul)", `Quick, test_loop_structure);
    ("loop imperfect nest", `Quick, test_loop_imperfect);
    ("program validation", `Quick, test_program_validate);
    ("pretty printing", `Quick, test_pretty);
    ("program labels: S<k> in textual order", `Quick, test_program_labels);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_rat_add_comm;
        prop_rat_mul_distributes;
        prop_poly_ring;
        prop_poly_eval_hom;
      ]
