type t = { array : string; subs : Expr.t list }

let make array subs = { array; subs }
let rank r = List.length r.subs

let equal a b =
  String.equal a.array b.array
  && List.length a.subs = List.length b.subs
  && List.for_all2 Expr.equal a.subs b.subs

let pp ppf r =
  Format.fprintf ppf "%s(%s)" r.array
    (String.concat "," (List.map Expr.to_string r.subs))

let to_string r = Format.asprintf "%a" pp r
