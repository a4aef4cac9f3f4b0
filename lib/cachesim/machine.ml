let cache1 =
  { Cache.name = "cache1 (RS/6000)"; size_bytes = 64 * 1024; assoc = 4; line_bytes = 128 }

let cache2 =
  { Cache.name = "cache2 (i860)"; size_bytes = 8 * 1024; assoc = 2; line_bytes = 32 }

type timing = {
  cycles_per_op : float;
  cycles_per_hit : float;
  miss_penalty : float;
}

let default_timing = { cycles_per_op = 1.0; cycles_per_hit = 1.0; miss_penalty = 25.0 }

let cycles t ~ops ~hits ~misses =
  (t.cycles_per_op *. float_of_int ops)
  +. (t.cycles_per_hit *. float_of_int hits)
  +. (t.miss_penalty *. float_of_int misses)

let mhz = 50.0

let seconds t ~ops ~hits ~misses =
  cycles t ~ops ~hits ~misses /. (mhz *. 1e6)
