open Builder

type spec = {
  name : string;
  good2 : int;
  perm2 : int;
  fail2 : int;
  good3 : int;
  perm3 : int;
  fail3 : int;
  inner3 : int;
  fail_inner3 : int;
  fuse_pairs : int;
  dist : int;
  reductions : int;
  complex : int;
  singles : int;
}

let zero name =
  {
    name;
    good2 = 0;
    perm2 = 0;
    fail2 = 0;
    good3 = 0;
    perm3 = 0;
    fail3 = 0;
    inner3 = 0;
    fail_inner3 = 0;
    fuse_pairs = 0;
    dist = 0;
    reductions = 0;
    complex = 0;
    singles = 0;
  }

let loops_of s =
  (2 * (s.good2 + s.perm2 + s.fail2))
  + (3 * (s.good3 + s.perm3 + s.fail3 + s.inner3 + s.fail_inner3))
  + (4 * s.fuse_pairs) + (2 * s.dist) + (2 * s.reductions) + (2 * s.complex)
  + s.singles

(* Templates. Each takes a unique id used to suffix array and index
   names; the size parameter N is shared. Distinct arrays per instance
   keep unrelated nests independent. *)

let nn = v "N"
let arr id base = Printf.sprintf "%s%d" base id
let ix id base = Printf.sprintf "%s%d" base id

(* Vary lower bounds per instance so that unrelated same-shape nests are
   rarely header-compatible (keeping the fusion-candidate count close to
   the paper's, where few adjacent nests were compatible). *)
let lb0 id = i (1 + (id mod 3))

(* Memory order already: J outer, I inner, unit stride. *)
let good2 id =
  let a = arr id "GA" and b = arr id "GB" in
  let ii = ix id "I" and jj = ix id "J" in
  ( [ (a, [ nn; nn ]); (b, [ nn; nn ]) ],
    [
      do_ jj (lb0 id) nn
        [
          do_ ii (i 1) nn
            [ asn (r a [ v ii; v jj ]) (ld a [ v ii; v jj ] +! ld b [ v ii; v jj ]) ];
        ];
    ] )

(* Wrong order, no dependence: the compiler interchanges it. *)
let perm2 id =
  let a = arr id "PA" and b = arr id "PB" in
  let ii = ix id "I" and jj = ix id "J" in
  ( [ (a, [ nn; nn ]); (b, [ nn; nn ]) ],
    [
      do_ ii (lb0 id) nn
        [
          do_ jj (i 1) nn
            [ asn (r a [ v ii; v jj ]) (ld a [ v ii; v jj ] +! ld b [ v ii; v jj ]) ];
        ];
    ] )

(* Wants (J,I) but dependences (1,-1) and (0,1) block both the
   interchange and its reversal-enabled variant. *)
let fail2 id =
  let a = arr id "FA" in
  let ii = ix id "I" and jj = ix id "J" in
  ( [ (a, [ nn; nn ]) ],
    [
      do_ ii (i 2) (nn -$ i 1)
        [
          do_ jj (i 2) (nn -$ i 1)
            [
              asn
                (r a [ v ii; v jj ])
                (ld a [ v ii -$ i 1; v jj +$ i 1 ]
                +! ld a [ v ii; v jj -$ i 1 ]);
            ];
        ];
    ] )

(* Depth-3, memory order: K, J, I with unit stride innermost. *)
let good3 id =
  let a = arr id "GC" and b = arr id "GD" in
  let ii = ix id "I" and jj = ix id "J" and kk = ix id "K" in
  ( [ (a, [ nn; nn; nn ]); (b, [ nn; nn; nn ]) ],
    [
      do_ kk (lb0 id) nn
        [
          do_ jj (i 1) nn
            [
              do_ ii (i 1) nn
                [
                  asn
                    (r a [ v ii; v jj; v kk ])
                    (ld a [ v ii; v jj; v kk ] +! ld b [ v ii; v jj; v kk ]);
                ];
            ];
        ];
    ] )

(* Depth-3, inverted order: the compiler permutes (I,J,K) -> (K,J,I). *)
let perm3 id =
  let a = arr id "PC" and b = arr id "PD" in
  let ii = ix id "I" and jj = ix id "J" and kk = ix id "K" in
  ( [ (a, [ nn; nn; nn ]); (b, [ nn; nn; nn ]) ],
    [
      do_ ii (lb0 id) nn
        [
          do_ jj (i 1) nn
            [
              do_ kk (i 1) nn
                [
                  asn
                    (r a [ v ii; v jj; v kk ])
                    (ld a [ v ii; v jj; v kk ] +! ld b [ v ii; v jj; v kk ]);
                ];
            ];
        ];
    ] )

(* Depth-3 blocked: distances (1,0,-1) and (0,0,1) kill both the
   interchange of I to the inside and the reversal of K. *)
let fail3 id =
  let a = arr id "FC" in
  let ii = ix id "I" and jj = ix id "J" and kk = ix id "K" in
  ( [ (a, [ nn; nn; nn ]) ],
    [
      do_ ii (i 2) (nn -$ i 1)
        [
          do_ jj (i 1) nn
            [
              do_ kk (i 2) (nn -$ i 1)
                [
                  asn
                    (r a [ v ii; v jj; v kk ])
                    (ld a [ v ii -$ i 1; v jj; v kk +$ i 1 ]
                    +! ld a [ v ii; v jj; v kk -$ i 1 ]);
                ];
            ];
        ];
    ] )

(* The innermost loop is already the best, but the outer pair is out of
   order: the nest counts toward "inner loop in memory order" without
   being in full memory order (the paper's 69% vs 74% split). *)
let inner3 id =
  let a = arr id "NA" and c = arr id "NC" in
  let ii = ix id "I" and jj = ix id "J" and kk = ix id "K" in
  ( [ (a, [ nn; nn; nn ]); (c, [ nn; nn ]) ],
    [
      do_ jj (lb0 id) nn
        [
          do_ kk (i 1) nn
            [
              do_ ii (i 1) nn
                [
                  asn
                    (r a [ v ii; v jj; v kk ])
                    (ld a [ v ii; v jj; v kk ] +! ld c [ v jj; v kk ]);
                ];
            ];
        ];
    ] )

(* The innermost loop is right but the outer pair cannot be reordered:
   dependences (1,-1,0) and (1,3,0) block the J/K interchange with and
   without reversal (distances chosen above the small-constant grouping
   threshold so the references stay in separate groups). Fails memory
   order; inner loop fine. *)
let fail_inner3 id =
  let a = arr id "QA" and c = arr id "QC" in
  let ii = ix id "I" and jj = ix id "J" and kk = ix id "K" in
  ( [ (a, [ nn; nn; nn ]); (c, [ nn; nn ]) ],
    [
      do_ jj (i 2) nn
        [
          do_ kk (i 4) (nn -$ i 1)
            [
              do_ ii (i 1) nn
                [
                  asn
                    (r a [ v ii; v jj; v kk ])
                    (ld a [ v ii; v jj -$ i 1; v kk +$ i 1 ]
                    +! ld a [ v ii; v jj -$ i 1; v kk -$ i 3 ]
                    +! ld c [ v jj; v kk ]);
                ];
            ];
        ];
    ] )

(* Two adjacent compatible nests sharing array S: fusion saves a whole
   pass over S. Both are already in memory order. *)
let fuse_pair id =
  let x = arr id "UX" and y = arr id "UY" and s = arr id "US" in
  let i1 = ix id "Ia" and j1 = ix id "Ja" in
  let i2 = ix id "Ib" and j2 = ix id "Jb" in
  ( [ (x, [ nn; nn ]); (y, [ nn; nn ]); (s, [ nn; nn ]) ],
    [
      do_ j1 (i 1) nn
        [
          do_ i1 (i 1) nn
            [ asn (r x [ v i1; v j1 ]) (ld s [ v i1; v j1 ] +! f 1.0) ];
        ];
      do_ j2 (i 1) nn
        [
          do_ i2 (i 1) nn
            [ asn (r y [ v i2; v j2 ]) (ld s [ v i2; v j2 ] *! f 2.0) ];
        ];
    ] )

(* Imperfect nest: a level-1 statement plus an inner nest that wants
   interchanging. Distribution peels the statement, permutation fixes
   the rest. *)
let dist_nest id =
  let a = arr id "DA" and b = arr id "DB" and c = arr id "DC" in
  let e = arr id "DE" in
  let ii = ix id "I" and jj = ix id "J" in
  ( [ (a, [ nn ]); (b, [ nn; nn ]); (c, [ nn; nn ]); (e, [ nn ]) ],
    [
      do_ ii (i 1) nn
        [
          asn (r a [ v ii ]) (ld e [ v ii ] *! f 0.5);
          do_ jj (i 1) nn
            [
              asn
                (r b [ v ii; v jj ])
                (ld b [ v ii; v jj ] +! ld c [ v ii; v jj ]);
            ];
        ];
    ] )

(* Reduction: loop-invariant reuse of R(J) in the inner loop; already in
   memory order. *)
let reduction id =
  let a = arr id "RA" and rsum = arr id "RS" in
  let ii = ix id "I" and jj = ix id "J" in
  ( [ (a, [ nn; nn ]); (rsum, [ nn ]) ],
    [
      do_ jj (lb0 id) nn
        [
          do_ ii (i 1) nn
            [ asn (r rsum [ v jj ]) (ld rsum [ v jj ] +! ld a [ v ii; v jj ]) ];
        ];
    ] )

(* The inner bound is quadratic in the outer index: memory order would
   need an interchange the bound rewriter cannot express. *)
let complex_bounds id =
  let a = arr id "CA" in
  let ii = ix id "I" and jj = ix id "J" in
  ( [ (a, [ nn; nn *$ nn ]) ],
    [
      do_ ii (i 1) nn
        [
          do_ jj (i 1) (v ii *$ v ii)
            [ asn (r a [ v ii; v jj ]) (ld a [ v ii; v jj ] +! f 1.0) ];
        ];
    ] )

(* A depth-1 loop: counts toward Loops but is not a candidate nest. *)
let single id =
  let a = arr id "SA" in
  let ii = ix id "I" in
  ( [ (a, [ nn ]) ],
    [ do_ ii (i 1) nn [ asn (r a [ v ii ]) (ld a [ v ii ] *! f 1.01) ] ] )

let generate ?(n = 32) spec =
  let id = ref 0 in
  let fresh () =
    incr id;
    !id
  in
  let arrays = ref [] in
  let nodes = ref [] in
  let emit template count =
    for _ = 1 to count do
      let a, ns = template (fresh ()) in
      arrays := !arrays @ a;
      nodes := !nodes @ ns
    done
  in
  (* Round-robin over templates so that unrelated same-shape nests are
     rarely adjacent (reducing accidental fusion candidates), while the
     deliberate fusion pairs stay adjacent. *)
  let remaining =
    ref
      [
        (good2, spec.good2);
        (perm2, spec.perm2);
        (fail2, spec.fail2);
        (good3, spec.good3);
        (perm3, spec.perm3);
        (fail3, spec.fail3);
        (inner3, spec.inner3);
        (fail_inner3, spec.fail_inner3);
        (dist_nest, spec.dist);
        (reduction, spec.reductions);
        (complex_bounds, spec.complex);
        (single, spec.singles);
      ]
  in
  let rec round_robin () =
    let progressed = ref false in
    remaining :=
      List.map
        (fun (t, c) ->
          if c > 0 then begin
            emit t 1;
            progressed := true;
            (t, c - 1)
          end
          else (t, c))
        !remaining;
    if !progressed then round_robin ()
  in
  round_robin ();
  emit fuse_pair spec.fuse_pairs;
  program spec.name ~params:[ ("N", n) ] ~arrays:!arrays !nodes
