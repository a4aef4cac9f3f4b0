(* Tests for the interpreter and the measurement harness. *)

open Locality_ir
module Exec = Locality_interp.Exec
module Measure = Locality_interp.Measure
module Machine = Locality_cachesim.Machine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-6)

let matmul order n =
  let open Builder in
  let nn = v "N" in
  let body =
    asn ~label:"MM"
      (r "C" [ v "I"; v "J" ])
      (ld "C" [ v "I"; v "J" ] +! (ld "A" [ v "I"; v "K" ] *! ld "B" [ v "K"; v "J" ]))
  in
  let rec nest = function
    | [] -> body
    | x :: rest -> do_ (String.make 1 x) (i 1) nn [ nest rest ]
  in
  program ("matmul_" ^ order)
    ~params:[ ("N", n) ]
    ~arrays:[ ("A", [ nn; nn ]); ("B", [ nn; nn ]); ("C", [ nn; nn ]) ]
    [ nest (List.init (String.length order) (String.get order)) ]

let test_matmul_against_reference () =
  let n = 8 in
  let p = matmul "IJK" n in
  let res = Exec.run p in
  (* Reference computation with the same initial contents. *)
  let a = Array.init (n * n) (Exec.default_init "A") in
  let b = Array.init (n * n) (Exec.default_init "B") in
  let c = Array.init (n * n) (Exec.default_init "C") in
  for ii = 0 to n - 1 do
    for jj = 0 to n - 1 do
      for kk = 0 to n - 1 do
        (* column major: X(i,j) at (i-1) + (j-1)*n *)
        c.((jj * n) + ii) <-
          c.((jj * n) + ii) +. (a.((kk * n) + ii) *. b.((jj * n) + kk))
      done
    done
  done;
  let c_interp = List.assoc "C" res.Exec.arrays in
  let max_err = ref 0.0 in
  Array.iteri
    (fun i x -> max_err := Float.max !max_err (Float.abs (x -. c_interp.(i))))
    c;
  checkb "matmul matches reference" true (!max_err < 1e-9);
  checki "iterations" (n * n * n) res.Exec.iterations;
  (* 2 flops per inner iteration. *)
  checki "ops" (2 * n * n * n) res.Exec.ops;
  (* 4 element accesses per iteration: C read+write, A, B. *)
  checki "accesses" (4 * n * n * n) res.Exec.accesses

let test_all_orders_equivalent () =
  let orders = [ "IJK"; "IKJ"; "JIK"; "JKI"; "KIJ"; "KJI" ] in
  let base = matmul "IJK" 6 in
  List.iter
    (fun o ->
      checkb
        (Printf.sprintf "IJK == %s" o)
        true
        (Exec.equivalent base (matmul o 6)))
    orders

let test_negative_step () =
  let open Builder in
  let p =
    program "rev" ~arrays:[ ("A", [ i 10 ]) ]
      [
        do_ ~step:(-1) "I" (i 10) (i 1)
          [ asn (r "A" [ v "I" ]) (Stmt.Iexpr (v "I")) ];
      ]
  in
  let res = Exec.run p in
  let a = List.assoc "A" res.Exec.arrays in
  checkf "A(1)=1" 1.0 a.(0);
  checkf "A(10)=10" 10.0 a.(9);
  checki "ten iterations" 10 res.Exec.iterations

let test_scalar_and_intrinsics () =
  let open Builder in
  let p =
    program "sca" ~arrays:[ ("A", [ i 4 ]) ]
      [
        sasn "s" (f 9.0);
        do_ "I" (i 1) (i 4) [ asn (r "A" [ v "I" ]) (sqrt_ (sc "s")) ];
      ]
  in
  let res = Exec.run p in
  let a = List.assoc "A" res.Exec.arrays in
  checkf "sqrt applied" 3.0 a.(2)

let test_triangular_execution () =
  (* Sum of iterations of DO I=1,N / DO J=1,I equals N(N+1)/2. *)
  let open Builder in
  let nn = v "N" in
  let p =
    program "tri" ~params:[ ("N", 10) ]
      ~arrays:[ ("A", [ nn; nn ]) ]
      [
        do_ "I" (i 1) nn
          [ do_ "J" (i 1) (v "I") [ asn (r "A" [ v "J"; v "I" ]) (f 1.0) ] ];
      ]
  in
  let res = Exec.run p in
  checki "triangular iterations" 55 res.Exec.iterations

let test_out_of_bounds_detected () =
  let open Builder in
  let p =
    program "oob" ~arrays:[ ("A", [ i 4 ]) ]
      [ do_ "I" (i 1) (i 5) [ asn (r "A" [ v "I" ]) (f 0.0) ] ]
  in
  (try
     ignore (Exec.run p);
     Alcotest.fail "expected bounds violation"
   with Invalid_argument _ -> ())

let test_param_override () =
  let p = matmul "IJK" 16 in
  let res = Exec.run ~params:[ ("N", 4) ] p in
  checki "overridden size" 64 res.Exec.iterations

(* ------------------------------------------------------------- Measure *)

let test_measure_orders () =
  (* With arrays larger than cache2, the JKI order must simulate a
     markedly better hit rate than IKJ (the worst order). *)
  let n = 48 in
  let good = Measure.measure ~config:Machine.cache2 (matmul "JKI" n) in
  let bad = Measure.measure ~config:Machine.cache2 (matmul "IKJ" n) in
  let rg = Measure.hit_rate good.Measure.whole in
  let rb = Measure.hit_rate bad.Measure.whole in
  checkb
    (Printf.sprintf "JKI (%.1f%%) beats IKJ (%.1f%%)" rg rb)
    true (rg > rb +. 5.0);
  let sp = bad.Measure.cycles /. good.Measure.cycles in
  checkb (Printf.sprintf "modelled speedup %.2f > 1.3" sp) true (sp > 1.3)

let test_measure_optimized_region () =
  let n = 16 in
  let p = matmul "JKI" n in
  let r = Measure.measure ~config:Machine.cache2 ~optimized_labels:[ "MM" ] p in
  checki "all accesses attributed" r.Measure.whole.Measure.accesses
    r.Measure.optimized.Measure.accesses;
  let r2 = Measure.measure ~config:Machine.cache2 ~optimized_labels:[] p in
  checki "no accesses attributed" 0 r2.Measure.optimized.Measure.accesses

let test_measure_cycles_positive () =
  let r = Measure.measure (matmul "JKI" 8) in
  checkb "cycles positive" true (r.Measure.cycles > 0.0);
  checkb "seconds positive" true (r.Measure.seconds > 0.0)

(* lb > ub with a positive step: the body must never execute. *)
let zero_trip =
  let open Builder in
  program "zt" ~arrays:[ ("A", [ i 8 ]) ]
    [
      do_ "I" (i 5) (i 4) [ asn (r "A" [ i 1 ]) (f 9.0) ];
      do_ "J" (i 1) (i 0) [ asn (r "A" [ i 2 ]) (f 9.0) ];
      do_ "K" (i 1) (i 3) [ asn (r "A" [ v "K" ]) (f 1.0) ];
    ]

let test_zero_trip_loop () =
  let r = Exec.run zero_trip in
  checki "only the real loop runs" 3 r.Exec.iterations

(* MIN/MAX/DIV evaluated inside subscripts at runtime — the forms the
   tiled and unrolled programs produce. *)
let min_max_div =
  let open Builder in
  let nn = v "N" in
  program "mmd" ~params:[ ("N", 6) ] ~arrays:[ ("A", [ nn ]) ]
    [
      do_ "I" (i 1) nn
        [
          asn (r "A" [ Expr.Min (Expr.Add (Expr.Var "I", Expr.Int 2), nn) ])
            (Stmt.Iexpr (Expr.Max (Expr.Var "I", Expr.Int 3)));
          asn (r "A" [ Expr.Div (Expr.Var "I", Expr.Int 2) +$ i 1 ]) (f 0.5);
        ];
    ]

let test_minmaxdiv_subscripts () =
  let r = Exec.run min_max_div in
  let a = List.assoc "A" r.Exec.arrays in
  (* Last writes: A(MIN(I+2,6)) = MAX(I,3): I=4,5,6 all hit A(6): last is
     6.0; A(I/2+1) = 0.5 for I/2+1 in {1,2,3,4}. *)
  checkf "min subscript last write" 6.0 a.(5);
  checkf "div subscript write" 0.5 a.(0);
  checkf "div subscript write 4" 0.5 a.(3)

let suite =
  [
    ("matmul against hand-written reference", `Quick, test_matmul_against_reference);
    ("zero-trip loops", `Quick, test_zero_trip_loop);
    ("MIN/MAX/DIV subscripts at runtime", `Quick, test_minmaxdiv_subscripts);
    ("all matmul orders equivalent", `Quick, test_all_orders_equivalent);
    ("negative step loop", `Quick, test_negative_step);
    ("scalars and intrinsics", `Quick, test_scalar_and_intrinsics);
    ("triangular iteration count", `Quick, test_triangular_execution);
    ("bounds violation detected", `Quick, test_out_of_bounds_detected);
    ("parameter override", `Quick, test_param_override);
    ("loop order changes simulated hit rate", `Quick, test_measure_orders);
    ("optimized-region attribution", `Quick, test_measure_optimized_region);
    ("timing model sanity", `Quick, test_measure_cycles_positive);
  ]
