type env = string -> Loop.header option

let env_of_headers headers x =
  List.find_opt (fun (h : Loop.header) -> String.equal h.Loop.index x) headers

let env_of_nest nest =
  let rec collect (l : Loop.t) =
    l.header
    :: List.concat_map
         (function Loop.Loop inner -> collect inner | Loop.Stmt _ -> [])
         l.body
  in
  env_of_headers (collect nest)

(* Affine coefficient of [x] in a polynomial that is affine in [x]. *)
let coeff_of p x =
  let at v = Poly.subst p x (Poly.int v) in
  Poly.sub (at 1) (at 0)

let rec closed_poly env ~maximize fuel p =
  if fuel = 0 then p
  else
    match List.find_opt (fun x -> env x <> None) (Poly.vars p) with
    | None -> p
    | Some x -> (
      match env x with
      | None -> p
      | Some h ->
        let c = coeff_of p x in
        let sign =
          match Poly.is_const c with
          | Some r -> Rat.sign r
          | None ->
            (* Non-constant coefficient: decide by the dominant term. *)
            Poly.compare_dominant c Poly.zero
        in
        let bound =
          if (sign >= 0) = maximize then h.Loop.ub else h.Loop.lb
        in
        let p' = Poly.subst p x (Expr.to_poly bound) in
        closed_poly env ~maximize (fuel - 1) p')

let closed_trip env (h : Loop.header) =
  let open Poly in
  let diff = sub (Expr.to_poly h.Loop.ub) (Expr.to_poly h.Loop.lb) in
  let trip = div_rat (add diff (int h.Loop.step)) (Rat.of_int h.Loop.step) in
  (* [trip] already includes the step's sign, so maximise it directly. *)
  closed_poly env ~maximize:true 32 trip
