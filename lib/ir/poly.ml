(* A monomial maps each variable to a positive exponent; it is kept as a
   sorted association list so it can serve as a map key. *)
module Mono = struct
  type t = (string * int) list

  let compare_graded_lex (a : t) (b : t) =
    let deg m = List.fold_left (fun acc (_, e) -> acc + e) 0 m in
    let c = Int.compare (deg a) (deg b) in
    if c <> 0 then c
    else
      (* Same total degree: lexicographic on the variable sequence; an
         earlier-named variable with a higher exponent ranks higher. *)
      let rec go a b =
        match (a, b) with
        | [], [] -> 0
        | [], _ :: _ -> -1
        | _ :: _, [] -> 1
        | (xa, ea) :: ra, (xb, eb) :: rb ->
          let c = String.compare xb xa in
          (* A lexicographically smaller variable name dominates, so flip. *)
          if c <> 0 then c
          else
            let c = Int.compare ea eb in
            if c <> 0 then c else go ra rb
      in
      go a b

  let mul (a : t) (b : t) : t =
    let rec go a b =
      match (a, b) with
      | [], m | m, [] -> m
      | (xa, ea) :: ra, (xb, eb) :: rb ->
        let c = String.compare xa xb in
        if c < 0 then (xa, ea) :: go ra b
        else if c > 0 then (xb, eb) :: go a rb
        else (xa, ea + eb) :: go ra rb
    in
    go a b

  let degree (m : t) = List.fold_left (fun acc (_, e) -> acc + e) 0 m
end

module MonoMap = Map.Make (struct
  type t = Mono.t

  let compare = compare
end)

type t = Rat.t MonoMap.t
(* Invariant: no zero coefficients are stored. *)

let zero = MonoMap.empty

let norm_add mono coeff poly =
  let merged =
    MonoMap.update mono
      (function
        | None -> if Rat.is_zero coeff then None else Some coeff
        | Some c ->
          let s = Rat.add c coeff in
          if Rat.is_zero s then None else Some s)
      poly
  in
  merged

let const c = if Rat.is_zero c then zero else MonoMap.singleton [] c
let int n = const (Rat.of_int n)
let one = int 1
let var x = MonoMap.singleton [ (x, 1) ] Rat.one
let add a b = MonoMap.fold norm_add b a
let neg a = MonoMap.map Rat.neg a
let sub a b = add a (neg b)

let mul a b =
  MonoMap.fold
    (fun ma ca acc ->
      MonoMap.fold
        (fun mb cb acc -> norm_add (Mono.mul ma mb) (Rat.mul ca cb) acc)
        b acc)
    a zero

let mul_rat r a =
  if Rat.is_zero r then zero else MonoMap.map (fun c -> Rat.mul r c) a

let div_rat a r =
  if Rat.is_zero r then raise Division_by_zero;
  MonoMap.map (fun c -> Rat.div c r) a

let equal a b = MonoMap.equal Rat.equal a b

let is_const a =
  if MonoMap.is_empty a then Some Rat.zero
  else
    match MonoMap.bindings a with
    | [ ([], c) ] -> Some c
    | _ -> None

let degree a = MonoMap.fold (fun m _ acc -> max acc (Mono.degree m)) a 0

let vars a =
  let module S = Set.Make (String) in
  MonoMap.fold
    (fun m _ acc -> List.fold_left (fun acc (x, _) -> S.add x acc) acc m)
    a S.empty
  |> S.elements

let rec pow p n = if n = 0 then one else mul p (pow p (n - 1))

let subst p x q =
  MonoMap.fold
    (fun m c acc ->
      match List.assoc_opt x m with
      | None -> norm_add m c acc
      | Some e ->
        let rest = List.filter (fun (y, _) -> y <> x) m in
        let term = mul (MonoMap.singleton rest c) (pow q e) in
        add acc term)
    p zero

let coeffs_in p x =
  (* Split each monomial by its power of [x]; bucket k collects the
     residual monomials of the terms with x^k. *)
  let buckets = Hashtbl.create 4 in
  let maxdeg = ref 0 in
  MonoMap.iter
    (fun m c ->
      let e = match List.assoc_opt x m with None -> 0 | Some e -> e in
      if e > !maxdeg then maxdeg := e;
      let rest = List.filter (fun (y, _) -> y <> x) m in
      let prev =
        match Hashtbl.find_opt buckets e with None -> zero | Some p -> p
      in
      Hashtbl.replace buckets e (norm_add rest c prev))
    p;
  List.init (!maxdeg + 1) (fun k ->
      match Hashtbl.find_opt buckets k with None -> zero | Some p -> p)

let eval_rat p env =
  MonoMap.fold
    (fun m c acc ->
      let v =
        List.fold_left
          (fun acc (x, e) ->
            let b = env x in
            let rec p acc k = if k = 0 then acc else p (Rat.mul acc b) (k - 1) in
            p acc e)
          c m
      in
      Rat.add acc v)
    p Rat.zero

let eval p env =
  MonoMap.fold
    (fun m c acc ->
      let v =
        List.fold_left
          (fun acc (x, e) -> acc *. (env x ** float_of_int e))
          (Rat.to_float c) m
      in
      acc +. v)
    p 0.0

let sorted_terms p =
  MonoMap.bindings p
  |> List.sort (fun (ma, _) (mb, _) -> Mono.compare_graded_lex mb ma)

let compare_dominant a b =
  let rec go ta tb =
    match (ta, tb) with
    | [], [] -> 0
    | [], (_, c) :: _ -> -Rat.sign c
    | (_, c) :: _, [] -> Rat.sign c
    | (ma, ca) :: ra, (mb, cb) :: rb ->
      let c = Mono.compare_graded_lex ma mb in
      if c > 0 then Rat.sign ca
      else if c < 0 then -Rat.sign cb
      else
        let c = Rat.compare ca cb in
        if c <> 0 then c else go ra rb
  in
  go (sorted_terms a) (sorted_terms b)

let pp_mono ppf (m : Mono.t) =
  List.iter
    (fun (x, e) ->
      if e = 1 then Format.fprintf ppf "%s" x
      else Format.fprintf ppf "%s^%d" x e)
    m

let pp ppf p =
  match sorted_terms p with
  | [] -> Format.fprintf ppf "0"
  | terms ->
    List.iteri
      (fun i (m, c) ->
        let c, sep =
          if i = 0 then (c, "")
          else if Rat.sign c < 0 then (Rat.neg c, " - ")
          else (c, " + ")
        in
        Format.pp_print_string ppf sep;
        if m = [] then Rat.pp ppf c
        else if Rat.equal c Rat.one then pp_mono ppf m
        else Format.fprintf ppf "%a%a" Rat.pp c pp_mono m)
      terms

let to_string p = Format.asprintf "%a" pp p
