type t = { num : int; den : int }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let make num den =
  if den = 0 then invalid_arg "Rat.make: zero denominator";
  let s = if den < 0 then -1 else 1 in
  let num = s * num and den = s * den in
  let g = gcd num den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let zero = { num = 0; den = 1 }
let one = { num = 1; den = 1 }
let of_int n = { num = n; den = 1 }
let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let mul a b = make (a.num * b.num) (a.den * b.den)

let div a b =
  if b.num = 0 then raise Division_by_zero;
  make (a.num * b.den) (a.den * b.num)

let neg a = { a with num = -a.num }
let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)
let equal a b = a.num = b.num && a.den = b.den
let sign a = Stdlib.compare a.num 0
let is_zero a = a.num = 0
let is_integer a = a.den = 1
let to_float a = float_of_int a.num /. float_of_int a.den
let to_int a = a.num / a.den

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den
