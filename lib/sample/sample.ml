module Chunk = Locality_cachesim.Chunk
module Runchunk = Locality_cachesim.Runchunk

(* SHARDS (Waldspurger et al.): hash-based spatial sampling. A sampling
   unit is in the sample iff hash(unit) < threshold within a 2^24 hash
   space; every access to a sampled unit is processed exactly (reuse
   distance via Bennett-Kruskal over sampled-access time) and the
   observation is weighted by 1/R = modulus/threshold. Accesses to
   unsampled units touch nothing but the exact tallies, which is what
   makes the group fast path in [consume_group] possible.

   Distances are per cache SET (line land (sets - 1), the simulator's
   mapping): a W-way LRU set hits exactly when fewer than W distinct
   same-set lines intervened since the last touch, so with [sets] equal
   to the target geometry's set count the estimator has no model error.

   The sampling unit depends on [sets]. With [sets = 1] the unit is the
   cache line — classic fully-associative SHARDS, with subsampled
   distances rescaled by 1/R. With [sets > 1] the unit is the SET
   (Kessler-style set sampling): a sampled set tracks every one of its
   lines, so same-set distances — and therefore the W-way hit/miss
   verdict — are exact per observation, and 1/R weighting only carries
   the across-set selection. Line sampling would instead quantise
   rescaled distances at 1/R granularity, useless against a hit
   threshold of 2-4 ways; set sampling keeps the estimator unbiased at
   any rate, and exact at rate 1.0. *)

let modulus_bits = 24
let modulus = 1 lsl modulus_bits

(* Fixed 63-bit mixer (multiply-xorshift, constants < 2^62 so they are
   valid OCaml int literals); deterministic across runs and platforms. *)
let mix z =
  let z = z lxor (z lsr 31) in
  let z = z * 0x2545F4914F6CDD1D in
  let z = z lxor (z lsr 29) in
  let z = z * 0x1D8E4E27C47D124F in
  let z = z lxor (z lsr 32) in
  z

(* Per-set distance tracker: a Fenwick (Bennett-Kruskal) array over
   this set's sampled-access time. *)
type set_state = {
  mutable bit : int array;  (* Fenwick over sampled-access time, 1-based *)
  mutable capacity : int;
  mutable time : int;
  last : (int, int) Hashtbl.t;  (* sampled line -> last sampled time *)
}

type t = {
  line_shift : int;
  line_bytes : int;
  sets : int;
  set_mask : int;
  cfg_rate : float;  (* configured rate, clamped into (0, 1] *)
  seed : int;
  seed_mix : int;
  init_threshold : int;
  max_tracked : int;
  set_hashes : int array;  (* sorted set-index hashes; empty for sets = 1 *)
  mutable threshold : int;
  mutable unit_weight : float;  (* per-observation weight under threshold *)
  mutable gen : int;  (* bumped on every adaptation; invalidates caches *)
  (* exact tallies *)
  mutable accesses : int;
  mutable label_accesses : int array;
  mutable label_cold : float array;
  mutable nlabels : int;
  label_hist : (int, (int, float) Hashtbl.t) Hashtbl.t;
  (* sampled-trace state *)
  mutable sampled : int;
  mutable adaptations : int;
  mutable tracked : int;  (* lines tracked across every set *)
  set_states : set_state array;
  (* group-walk scratch, grown to the widest group seen *)
  mutable g_addr : int array;
  mutable g_stride : int array;
  mutable g_label : int array;
  mutable g_samp : bool array;
  mutable g_cross : int array;
}

let default_rate = 0.01

let create ?(rate = default_rate) ?(seed = 0) ?(max_tracked = 65536)
    ?(sets = 1) ~line_bytes () =
  if rate <= 0.0 then invalid_arg "Sample.create: rate must be positive";
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Sample.create: line_bytes must be a positive power of two";
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Sample.create: sets must be a positive power of two";
  let shift =
    let s = ref 0 in
    while 1 lsl !s < line_bytes do
      incr s
    done;
    !s
  in
  let seed_mix = seed * 0x9E3779B9 in
  let set_hashes =
    if sets = 1 then [||]
    else begin
      let a = Array.init sets (fun s -> mix (s lxor seed_mix) land (modulus - 1)) in
      Array.sort compare a;
      a
    end
  in
  (* Line sampling: threshold = rate * modulus, weight = modulus /
     threshold (the footprint is unbounded, so the realised fraction of
     sampled lines concentrates on the rate). Set sampling: the
     population is the small, known set universe, so pick the
     [round (rate * sets)] sets with the smallest hashes (threshold =
     k-th order statistic + 1) and weight by sets / |sampled| — a ratio
     estimator; a raw 1/R weight would inherit the large realised-
     fraction noise of a 100-odd-element sample. *)
  let threshold, unit_weight =
    if sets = 1 then begin
      let thr =
        if rate >= 1.0 then modulus
        else max 1 (int_of_float ((rate *. float_of_int modulus) +. 0.5))
      in
      (thr, float_of_int modulus /. float_of_int thr)
    end
    else begin
      let k =
        min sets (max 1 (int_of_float ((rate *. float_of_int sets) +. 0.5)))
      in
      let thr = set_hashes.(k - 1) + 1 in
      let c = ref 0 in
      Array.iter (fun h -> if h < thr then incr c) set_hashes;
      (thr, float_of_int sets /. float_of_int !c)
    end
  in
  {
    line_shift = shift;
    line_bytes;
    sets;
    set_mask = sets - 1;
    cfg_rate = Float.min rate 1.0;
    seed;
    seed_mix;
    set_hashes;
    init_threshold = threshold;
    max_tracked = max 1 max_tracked;
    threshold;
    unit_weight;
    gen = 0;
    accesses = 0;
    label_accesses = Array.make 8 0;
    label_cold = Array.make 8 0.0;
    nlabels = 0;
    label_hist = Hashtbl.create 16;
    sampled = 0;
    adaptations = 0;
    tracked = 0;
    set_states =
      Array.init sets (fun _ ->
          { bit = Array.make 65 0; capacity = 64; time = 0;
            last = Hashtbl.create 16 });
    g_addr = Array.make 8 0;
    g_stride = Array.make 8 0;
    g_label = Array.make 8 0;
    g_samp = Array.make 8 false;
    g_cross = Array.make 8 0;
  }

(* The sampling unit: the line itself when fully associative, the
   line's set otherwise (set sampling). *)
let skey t line = if t.set_mask = 0 then line else line land t.set_mask
let hash t line = mix (skey t line lxor t.seed_mix) land (modulus - 1)
let weight t = t.unit_weight

(* The realised sampling fraction: threshold over hash space for line
   sampling, sampled sets over total sets for set sampling (where the
   threshold is an order statistic, not rate * modulus). *)
let effective_rate t =
  if t.set_mask = 0 then float_of_int t.threshold /. float_of_int modulus
  else begin
    let c = ref 0 in
    Array.iter (fun h -> if h < t.threshold then incr c) t.set_hashes;
    float_of_int !c /. float_of_int t.sets
  end

(* ----------------------------------------------- Fenwick tracker --- *)

let bit_add s i v =
  let i = ref i in
  while !i <= s.capacity do
    s.bit.(!i) <- s.bit.(!i) + v;
    i := !i + (!i land - !i)
  done

let bit_sum s i =
  let sum = ref 0 and i = ref i in
  while !i > 0 do
    sum := !sum + s.bit.(!i);
    i := !i - (!i land - !i)
  done;
  !sum

(* Reassign a set's sampled times 1..k in order. Distances depend only
   on the relative order of marks, so compaction is invisible to the
   estimator and keeps each Fenwick array O(tracked lines) no matter how
   long the trace runs. *)
let compact s =
  let entries = Hashtbl.fold (fun line tm acc -> (tm, line) :: acc) s.last [] in
  let entries = List.sort compare entries in
  Array.fill s.bit 0 (s.capacity + 1) 0;
  let k = ref 0 in
  List.iter
    (fun (_, line) ->
      incr k;
      Hashtbl.replace s.last line !k;
      bit_add s !k 1)
    entries;
  s.time <- !k

let next_time s =
  if s.time + 1 > s.capacity then
    if Hashtbl.length s.last * 4 <= s.capacity then compact s
    else begin
      s.capacity <- s.capacity * 2;
      s.bit <- Array.make (s.capacity + 1) 0;
      Hashtbl.iter (fun _ tm -> bit_add s tm 1) s.last
    end;
  s.time <- s.time + 1;
  s.time

(* ----------------------------------------------- exact tallies ----- *)

let ensure_label t lid =
  if lid >= Array.length t.label_accesses then begin
    let cap = max (lid + 1) (2 * Array.length t.label_accesses) in
    let la = Array.make cap 0 and lc = Array.make cap 0.0 in
    Array.blit t.label_accesses 0 la 0 (Array.length t.label_accesses);
    Array.blit t.label_cold 0 lc 0 (Array.length t.label_cold);
    t.label_accesses <- la;
    t.label_cold <- lc
  end;
  if lid >= t.nlabels then t.nlabels <- lid + 1

let add_hist t label d w =
  let h =
    match Hashtbl.find_opt t.label_hist label with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 32 in
      Hashtbl.replace t.label_hist label h;
      h
  in
  let prev = match Hashtbl.find_opt h d with Some w -> w | None -> 0.0 in
  Hashtbl.replace h d (prev +. w)

(* ----------------------------------------------- sampled events ---- *)

(* Halve the sample. Line sampling halves the threshold directly; set
   sampling halves the sampled-set count and rethresholds at the order
   statistic, keeping the weight a true sets/|sampled| ratio. Returns
   false when the sample cannot shrink further. *)
let shrink_threshold t =
  if t.set_mask = 0 then
    if t.threshold > 1 then begin
      t.threshold <- t.threshold / 2;
      t.unit_weight <- float_of_int modulus /. float_of_int t.threshold;
      true
    end
    else false
  else begin
    let c = ref 0 in
    Array.iter (fun h -> if h < t.threshold then incr c) t.set_hashes;
    let k = !c / 2 in
    if k < 1 then false
    else begin
      t.threshold <- t.set_hashes.(k - 1) + 1;
      let c = ref 0 in
      Array.iter (fun h -> if h < t.threshold then incr c) t.set_hashes;
      t.unit_weight <- float_of_int t.sets /. float_of_int !c;
      true
    end
  end

let adapt t =
  t.adaptations <- t.adaptations + 1;
  t.gen <- t.gen + 1;
  Array.iter
    (fun s ->
      let evict =
        Hashtbl.fold
          (fun line tm acc ->
            if hash t line >= t.threshold then (line, tm) :: acc else acc)
          s.last []
      in
      List.iter
        (fun (line, tm) ->
          bit_add s tm (-1);
          Hashtbl.remove s.last line;
          t.tracked <- t.tracked - 1)
        evict)
    t.set_states

(* One access to a currently-sampled line. The caller has already
   checked hash < threshold and bumped the exact tallies. *)
let sampled_event t ~label ~line =
  t.sampled <- t.sampled + 1;
  let w = weight t in
  let s = t.set_states.(line land t.set_mask) in
  (match Hashtbl.find_opt s.last line with
  | Some t_old ->
    let d = Hashtbl.length s.last - bit_sum s t_old in
    (* Line sampling subsamples the distance, so rescale by 1/R; set
       sampling tracks every same-set line, so [d] is already exact. *)
    let scaled =
      if t.set_mask = 0 then int_of_float ((float_of_int d *. w) +. 0.5)
      else d
    in
    add_hist t label scaled w;
    bit_add s t_old (-1);
    Hashtbl.remove s.last line;
    t.tracked <- t.tracked - 1
  | None -> t.label_cold.(label) <- t.label_cold.(label) +. w);
  let tm = next_time s in
  Hashtbl.replace s.last line tm;
  bit_add s tm 1;
  t.tracked <- t.tracked + 1;
  if t.tracked > t.max_tracked && shrink_threshold t then adapt t

let access t ~label ~addr =
  t.accesses <- t.accesses + 1;
  ensure_label t label;
  t.label_accesses.(label) <- t.label_accesses.(label) + 1;
  let line = addr lsr t.line_shift in
  if hash t line < t.threshold then sampled_event t ~label ~line

(* ----------------------------------------------- group fast path --- *)

let ensure_scratch t n =
  if Array.length t.g_addr < n then begin
    let cap = max n (2 * Array.length t.g_addr) in
    t.g_addr <- Array.make cap 0;
    t.g_stride <- Array.make cap 0;
    t.g_label <- Array.make cap 0;
    t.g_samp <- Array.make cap false;
    t.g_cross <- Array.make cap 0
  end

(* Consume one group descriptor (trip iterations round-robin over n
   strided references) with the same observable effect as feeding every
   expanded access through [access]:

   - exact tallies are bulk counts (trip per reference);
   - each reference caches whether its current line is sampled and the
     iteration at which it next crosses a line boundary;
   - while no reference sits in a sampled line, nothing can change the
     sampler state, so the walk jumps to the earliest crossing;
   - while any does, iterations are processed per access in reference
     order (exactly the replay interleaving).

   The threshold only ever decreases, so a cached "unsampled" verdict
   can never go stale; cached "sampled" verdicts are revalidated via the
   generation counter whenever an event adapts the threshold. *)
let consume_group t ~trip ~n ~data ~off =
  ensure_scratch t n;
  let shift = t.line_shift in
  let lb = t.line_bytes in
  for j = 0 to n - 1 do
    let r = data.(off + (2 * j)) in
    let label = Chunk.label r in
    ensure_label t label;
    t.label_accesses.(label) <- t.label_accesses.(label) + trip;
    t.g_label.(j) <- label;
    t.g_addr.(j) <- Chunk.addr r;
    t.g_stride.(j) <- data.(off + (2 * j) + 1)
  done;
  t.accesses <- t.accesses + (trip * n);
  let cross_of j tc =
    let s = t.g_stride.(j) in
    if s = 0 then max_int
    else
      let o = t.g_addr.(j) land (lb - 1) in
      if s > 0 then tc + ((lb - o + s - 1) / s) else tc + (o / -s) + 1
  in
  let refresh j tc =
    t.g_samp.(j) <- hash t (t.g_addr.(j) lsr shift) < t.threshold;
    t.g_cross.(j) <- cross_of j tc
  in
  let any = ref 0 in
  let recount () =
    let c = ref 0 in
    for j = 0 to n - 1 do
      if t.g_samp.(j) then incr c
    done;
    any := !c
  in
  let seen_gen = ref t.gen in
  let revalidate () =
    if t.gen <> !seen_gen then begin
      for j = 0 to n - 1 do
        t.g_samp.(j) <- hash t (t.g_addr.(j) lsr shift) < t.threshold
      done;
      seen_gen := t.gen
    end
  in
  for j = 0 to n - 1 do
    refresh j 0
  done;
  recount ();
  let tc = ref 0 in
  while !tc < trip do
    if !any = 0 then begin
      let tnext = ref trip in
      for j = 0 to n - 1 do
        if t.g_cross.(j) < !tnext then tnext := t.g_cross.(j)
      done;
      let dt = !tnext - !tc in
      for j = 0 to n - 1 do
        t.g_addr.(j) <- t.g_addr.(j) + (dt * t.g_stride.(j))
      done;
      tc := !tnext;
      if !tc < trip then begin
        for j = 0 to n - 1 do
          if t.g_cross.(j) <= !tc then refresh j !tc
        done;
        recount ()
      end
    end
    else begin
      for j = 0 to n - 1 do
        if t.g_samp.(j) then begin
          revalidate ();
          if t.g_samp.(j) then
            sampled_event t ~label:t.g_label.(j) ~line:(t.g_addr.(j) lsr shift)
        end
      done;
      tc := !tc + 1;
      for j = 0 to n - 1 do
        t.g_addr.(j) <- t.g_addr.(j) + t.g_stride.(j);
        if t.g_cross.(j) <= !tc then refresh j !tc
      done;
      revalidate ();
      recount ()
    end
  done

let consume_runchunk t (rc : Runchunk.t) =
  let data = rc.Runchunk.data in
  let len = rc.Runchunk.len in
  let i = ref 0 in
  while !i < len do
    let w = data.(!i) in
    if Runchunk.is_header w then begin
      let nrefs = Runchunk.header_nrefs w in
      consume_group t ~trip:(Runchunk.header_trip w) ~n:nrefs ~data
        ~off:(!i + 1);
      i := !i + Runchunk.group_words ~nrefs
    end
    else begin
      t.accesses <- t.accesses + 1;
      let label = Chunk.label w in
      ensure_label t label;
      t.label_accesses.(label) <- t.label_accesses.(label) + 1;
      let line = Chunk.addr w lsr t.line_shift in
      if hash t line < t.threshold then sampled_event t ~label ~line;
      incr i
    end
  done

(* ----------------------------------------------- profiles ---------- *)

type profile = {
  pf_line_bytes : int;
  pf_sets : int;
  pf_rate : float;
  pf_final_rate : float;
  pf_seed : int;
  pf_accesses : int;
  pf_ops : int;
  pf_sampled : int;
  pf_adaptations : int;
  pf_labels : string array;
  pf_label_accesses : int array;
  pf_label_cold : float array;
  pf_label_hist : (int * float) array array;
}

let profile t ~labels ~ops =
  let nl = Array.length labels in
  let slice a fill =
    Array.init nl (fun i -> if i < Array.length a then a.(i) else fill)
  in
  let hist lid =
    match Hashtbl.find_opt t.label_hist lid with
    | None -> [||]
    | Some h ->
      let l = Hashtbl.fold (fun d w acc -> (d, w) :: acc) h [] in
      let a = Array.of_list l in
      Array.sort (fun (a, _) (b, _) -> compare (a : int) b) a;
      a
  in
  {
    pf_line_bytes = t.line_bytes;
    pf_sets = t.sets;
    pf_rate = t.cfg_rate;
    pf_final_rate = effective_rate t;
    pf_seed = t.seed;
    pf_accesses = t.accesses;
    pf_ops = ops;
    pf_sampled = t.sampled;
    pf_adaptations = t.adaptations;
    pf_labels = labels;
    pf_label_accesses = slice t.label_accesses 0;
    pf_label_cold = slice t.label_cold 0.0;
    pf_label_hist = Array.init nl (fun i -> hist i);
  }

let cold pf = Array.fold_left ( +. ) 0.0 pf.pf_label_cold

let hits_under pf lid ~ways =
  let h = pf.pf_label_hist.(lid) in
  let acc = ref 0.0 in
  (try
     Array.iter
       (fun (d, w) -> if d < ways then acc := !acc +. w else raise Exit)
       h
   with Exit -> ());
  !acc

let merged_histogram pf =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun (d, w) ->
         let prev = match Hashtbl.find_opt tbl d with Some w -> w | None -> 0.0 in
         Hashtbl.replace tbl d (prev +. w)))
    pf.pf_label_hist;
  let l = Hashtbl.fold (fun d w acc -> (d, w) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> compare (a : int) b) l

let mean_distance pf =
  let sum, n =
    List.fold_left
      (fun (sum, n) (d, w) -> (sum +. (float_of_int d *. w), n +. w))
      (0.0, 0.0) (merged_histogram pf)
  in
  if n = 0.0 then 0.0 else sum /. n

let predicted_hit_rate pf ~lines =
  let hits =
    List.fold_left
      (fun acc (d, w) -> if d < lines then acc +. w else acc)
      0.0 (merged_histogram pf)
  in
  let count x = int_of_float (Float.round x) in
  Locality_cachesim.Cache.rate_of_counts ~accesses:pf.pf_accesses
    ~hits:(count hits) ~cold:(count (cold pf)) ()
