(* Log2-bucketed histogram accumulator: bucket 0 holds values <= 0 and
   bucket i (1 <= i <= 62) holds 2^(i-1) <= v <= 2^i - 1, so any OCaml
   int lands in a fixed 63-bucket array. Aggregation is pure integer
   arithmetic over the (deterministic) event stream, so bucket counts
   are identical at any MEMORIA_JOBS value. *)

let buckets = 63

type t = {
  counts : int array;  (* length [buckets] *)
  mutable count : int;
  mutable sum : int;
  mutable min : int;
  mutable max : int;
}

let create () =
  { counts = Array.make buckets 0; count = 0; sum = 0; min = max_int;
    max = min_int }

(* Number of significant bits of v, i.e. floor(log2 v) + 1 for v > 0. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let n = ref 0 and v = ref v in
    while !v <> 0 do
      incr n;
      v := !v lsr 1
    done;
    !n
  end

let bucket_le i = if i >= 62 then max_int else (1 lsl i) - 1

let observe t v =
  t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v

let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

(* Upper bound of the bucket holding the q-th observation (0 < q <= 1):
   a conservative quantile estimate, exact to within the bucket width. *)
let quantile t q =
  if t.count = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int t.count)) in
    let rank = if rank < 1 then 1 else rank in
    let acc = ref 0 and found = ref (bucket_le (buckets - 1)) in
    (try
       Array.iteri
         (fun i n ->
           acc := !acc + n;
           if !acc >= rank then begin
             found := bucket_le i;
             raise Exit
           end)
         t.counts
     with Exit -> ());
    (* Never report past the observed maximum (the top bucket is wide). *)
    min !found t.max
  end

(* Buckets in (le, cumulative-count) form, dropping the all-zero tail —
   the shape the OpenMetrics exporter and the JSON emitter want. *)
let cumulative t =
  let last =
    let rec go i = if i < 0 then -1 else if t.counts.(i) > 0 then i else go (i - 1) in
    go (buckets - 1)
  in
  let acc = ref 0 in
  List.init (last + 1) (fun i ->
      acc := !acc + t.counts.(i);
      (bucket_le i, !acc))
