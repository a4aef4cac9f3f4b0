type elt = Dist of int | Pos | Neg | NonNeg | NonPos | Ne | Any | Star
type t = elt list

let may_pos = function
  | Dist d -> d > 0
  | Pos | NonNeg | Ne | Any | Star -> true
  | Neg | NonPos -> false

let may_neg = function
  | Dist d -> d < 0
  | Neg | NonPos | Ne | Any | Star -> true
  | Pos | NonNeg -> false

let may_zero = function
  | Dist d -> d = 0
  | NonNeg | NonPos | Any | Star -> true
  | Pos | Neg | Ne -> false

let must_pos e = may_pos e && (not (may_neg e)) && not (may_zero e)
let must_neg e = may_neg e && (not (may_pos e)) && not (may_zero e)
let must_zero e = may_zero e && (not (may_pos e)) && not (may_neg e)

let negate_elt = function
  | Dist d -> Dist (-d)
  | Pos -> Neg
  | Neg -> Pos
  | NonNeg -> NonPos
  | NonPos -> NonNeg
  | Ne -> Ne
  | Any -> Any
  | Star -> Star

(* The meet keeps every distance allowed by both constraints; [Star] and
   [Any] differ only in provenance (unknown versus invariant), so their
   meet with anything sharper is the sharper side. *)
let meet a b =
  let subsumes coarse fine =
    match (coarse, fine) with
    | (Any | Star), _ -> true
    | NonNeg, (Dist _ | Pos) -> may_neg fine = false
    | NonPos, (Dist _ | Neg) -> may_pos fine = false
    | Ne, (Dist _ | Pos | Neg) -> may_zero fine = false
    | _, _ -> false
  in
  if a = b then Some a
  else if subsumes a b then Some b
  else if subsumes b a then Some a
  else
    match (a, b) with
    | Dist x, Dist y -> if x = y then Some a else None
    | Dist d, (Pos | Neg | NonNeg | NonPos | Ne)
    | (Pos | Neg | NonNeg | NonPos | Ne), Dist d ->
      let other = if a = Dist d then b else a in
      let ok =
        match other with
        | Pos -> d > 0
        | Neg -> d < 0
        | NonNeg -> d >= 0
        | NonPos -> d <= 0
        | Ne -> d <> 0
        | Dist _ | Any | Star -> true
      in
      if ok then Some (Dist d) else None
    | Pos, Neg | Neg, Pos -> None
    | Pos, NonNeg | NonNeg, Pos -> Some Pos
    | Neg, NonPos | NonPos, Neg -> Some Neg
    | Pos, NonPos | NonPos, Pos -> None
    | Neg, NonNeg | NonNeg, Neg -> None
    | NonNeg, NonPos | NonPos, NonNeg -> Some (Dist 0)
    | Ne, Pos | Pos, Ne -> Some Pos
    | Ne, Neg | Neg, Ne -> Some Neg
    | Ne, NonNeg | NonNeg, Ne -> Some Pos
    | Ne, NonPos | NonPos, Ne -> Some Neg
    | _, _ -> Some Star

let negate v = List.map negate_elt v

let rec may_lex_neg = function
  | [] -> false
  | e :: rest ->
    if must_pos e then false
    else if may_neg e then true
    else (* zero or positive; the all-prefix-zero path continues *)
      may_zero e && may_lex_neg rest

let rec may_lex_pos = function
  | [] -> false
  | e :: rest ->
    if may_pos e then true
    else if must_neg e then false
    else may_zero e && may_lex_pos rest

let rec lex_nonneg = function
  | [] -> true
  | e :: rest ->
    if must_pos e then true
    else if must_zero e then lex_nonneg rest
    else if may_neg e then false
    else (* NonNeg: positive settles it, zero defers to the rest *)
      lex_nonneg rest

let drop_neg = function
  | Dist d -> if d >= 0 then Some (Dist d) else None
  | Pos -> Some Pos
  | Neg -> None
  | NonNeg -> Some NonNeg
  | NonPos -> Some (Dist 0)
  | Ne -> Some Pos
  | Any | Star -> Some NonNeg

let rec restrict_lex_nonneg = function
  | [] -> Some []
  | e :: rest ->
    if must_pos e then Some (e :: rest)
    else if must_zero e then
      Option.map (fun r -> e :: r) (restrict_lex_nonneg rest)
    else (
      match drop_neg e with
      | None -> None
      | Some e' ->
        (* e' may still be zero, in which case the suffix would need to be
           non-negative too; keeping the suffix unrefined over-approximates. *)
        Some (e' :: rest))

let restrict_lex_pos v =
  match restrict_lex_nonneg v with
  | None -> None
  | Some v' -> if List.for_all must_zero v' then None else Some v'

let small_constant_at v level =
  List.length v >= level
  && List.for_all2
       (fun i e ->
         if i = level then
           match e with Dist d -> abs d <= 2 | Any -> true | _ -> false
         else must_zero e)
       (List.init (List.length v) (fun i -> i + 1))
       v

let pp_elt ppf = function
  | Dist d -> Format.fprintf ppf "%d" d
  | Pos -> Format.fprintf ppf "+"
  | Neg -> Format.fprintf ppf "-"
  | NonNeg -> Format.fprintf ppf "0+"
  | NonPos -> Format.fprintf ppf "0-"
  | Ne -> Format.fprintf ppf "<>"
  | Any -> Format.fprintf ppf "±"
  | Star -> Format.fprintf ppf "*"

let pp ppf v =
  Format.fprintf ppf "(%s)"
    (String.concat ","
       (List.map (fun e -> Format.asprintf "%a" pp_elt e) v))

let to_string v = Format.asprintf "%a" pp v
