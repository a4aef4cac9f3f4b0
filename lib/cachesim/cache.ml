type config = {
  name : string;
  size_bytes : int;
  assoc : int;
  line_bytes : int;
}

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  cold_misses : int;
  writes : int;
  write_hits : int;
  writebacks : int;
}

type t = {
  config : config;
  assoc : int;
  sets : int;
  line_shift : int;  (** log2 line_bytes; addr lsr line_shift = line *)
  set_mask : int;  (** sets - 1; sets is always a power of two *)
  tags : int array;  (** entry [set * assoc + way]; -1 = invalid *)
  ages : int array;  (** LRU clock per entry *)
  dirty : bool array;
  (* One tick per access, so the clock is also the access count. *)
  mutable clock : int;
  mutable misses : int;
  mutable cold : int;
  mutable writes : int;
  mutable write_misses : int;
  mutable writebacks : int;
  mutable written_back : int;  (** line of the last dirty victim *)
  (* First-touch tracking: a growable bitset keyed by line index. Far
     cheaper than a per-access hash probe on the hot path. *)
  mutable seen_bits : Bytes.t;
  (* [simulate_runs]' per-group scratch, one slot per reference of the
     group being replayed. Empty until the first group, then grown to
     the largest reference count seen; never sized by the cache. *)
  mutable g_base : int array;  (** address at iteration 0 *)
  mutable g_stride : int array;
  mutable g_flags : int array;  (** [write_flag] lor [mark_flag] *)
  mutable g_entry : int array;  (** entry holding the line; -1 = none *)
  mutable g_next : int array;  (** iteration of the next line crossing *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* A power-of-two size divisible by line * assoc makes line * assoc a
   power of two too, so assoc and the set count always are. *)
let config_valid c =
  is_pow2 c.size_bytes && is_pow2 c.line_bytes && c.assoc > 0
  && c.line_bytes <= c.size_bytes
  && c.size_bytes mod (c.line_bytes * c.assoc) = 0

let initial_seen_bytes = 4096

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create config =
  if not (config_valid config) then invalid_arg "Cache.create: bad config";
  let assoc = config.assoc in
  let sets = config.size_bytes / (config.line_bytes * assoc) in
  {
    config;
    assoc;
    sets;
    line_shift = log2 config.line_bytes;
    set_mask = sets - 1;
    tags = Array.make (sets * assoc) (-1);
    ages = Array.make (sets * assoc) 0;
    dirty = Array.make (sets * assoc) false;
    clock = 0;
    misses = 0;
    cold = 0;
    writes = 0;
    write_misses = 0;
    writebacks = 0;
    written_back = 0;
    seen_bits = Bytes.make initial_seen_bytes '\000';
    g_base = [||];
    g_stride = [||];
    g_flags = [||];
    g_entry = [||];
    g_next = [||];
  }

let seen_mem t line =
  let byte = line lsr 3 in
  byte < Bytes.length t.seen_bits
  && Char.code (Bytes.unsafe_get t.seen_bits byte) land (1 lsl (line land 7))
     <> 0

let seen_add t line =
  let byte = line lsr 3 in
  let cap = Bytes.length t.seen_bits in
  if byte >= cap then begin
    let cap' = ref (cap * 2) in
    while byte >= !cap' do
      cap' := !cap' * 2
    done;
    let b = Bytes.make !cap' '\000' in
    Bytes.blit t.seen_bits 0 b 0 cap;
    t.seen_bits <- b
  end;
  Bytes.unsafe_set t.seen_bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.seen_bits byte) lor (1 lsl (line land 7))))

(* The one LRU lookup, shared by [access_full] and [simulate_runs]:
   touch [line] at time [clock]. A hit refreshes the entry's age (and
   dirties it on a write) and returns the entry. A miss refills the
   set's least recently used way — the lowest way among equal ages, so
   invalid ways (age 0) fill first — writes a dirty victim back, counts
   the miss, its write and its first touch, and returns
   [lnot (entry lsl 1 lor cold)], which is negative. The caller owns the
   clock and the access and write counts. *)
let lookup t ~clock ~write line =
  let tags = t.tags and ages = t.ages and dirty = t.dirty in
  let base = (line land t.set_mask) * t.assoc in
  let stop = base + t.assoc in
  let e = ref base in
  while !e < stop && Array.unsafe_get tags !e <> line do
    incr e
  done;
  if !e < stop then begin
    let e = !e in
    Array.unsafe_set ages e clock;
    if write then Array.unsafe_set dirty e true;
    e
  end
  else begin
    let v = ref base in
    for i = base + 1 to stop - 1 do
      if Array.unsafe_get ages i < Array.unsafe_get ages !v then v := i
    done;
    let v = !v in
    let victim = Array.unsafe_get tags v in
    if Array.unsafe_get dirty v && victim >= 0 then begin
      t.writebacks <- t.writebacks + 1;
      t.written_back <- victim
    end;
    Array.unsafe_set tags v line;
    Array.unsafe_set ages v clock;
    Array.unsafe_set dirty v write;
    t.misses <- t.misses + 1;
    if write then t.write_misses <- t.write_misses + 1;
    let cold =
      if seen_mem t line then 0
      else begin
        seen_add t line;
        t.cold <- t.cold + 1;
        1
      end
    in
    lnot ((v lsl 1) lor cold)
  end

(* A miss result's refilled entry, and 1 when the miss was cold. *)
let missed_entry r = lnot r lsr 1
let missed_cold r = lnot r land 1

let access_full t ?(write = false) addr =
  let clock = t.clock + 1 in
  t.clock <- clock;
  if write then t.writes <- t.writes + 1;
  let writebacks = t.writebacks in
  let r = lookup t ~clock ~write (addr lsr t.line_shift) in
  if r >= 0 then (`Hit, None)
  else
    ( (if missed_cold r = 1 then `Cold else `Miss),
      if t.writebacks > writebacks then Some t.written_back else None )

let access_classified t addr = fst (access_full t addr)
let access t addr = access_classified t addr = `Hit

type region = {
  mutable r_accesses : int;
  mutable r_hits : int;
  mutable r_cold : int;
}

let fresh_region () = { r_accesses = 0; r_hits = 0; r_cold = 0 }

type run_metrics = {
  mutable m_groups : int;
  mutable m_boundaries : int;  (** iterations processed with set lookups *)
  mutable m_bulk_iters : int;  (** iterations bulk-advanced as all-hit *)
  mutable m_fallbacks : int;  (** windows degraded by same-set conflicts *)
}

let fresh_run_metrics () =
  { m_groups = 0; m_boundaries = 0; m_bulk_iters = 0; m_fallbacks = 0 }

let write_flag = 1
let mark_flag = 2

let grow_scratch t nrefs =
  if Array.length t.g_base < nrefs then begin
    let n = max nrefs (2 * Array.length t.g_base) in
    t.g_base <- Array.make n 0;
    t.g_stride <- Array.make n 0;
    t.g_flags <- Array.make n 0;
    t.g_entry <- Array.make n 0;
    t.g_next <- Array.make n 0
  end

(* Replay a v2 run chunk, bit-identical to expanding every group
   round-robin and running [access_full] per access (DESIGN.md,
   "Event-driven replay").

   A reference with |stride| < line_bytes stays in one line for several
   iterations, and only a miss of replay's own can evict that line. So
   each reference carries the iteration of its next line crossing. At an
   event iteration, references are visited in order: one before its
   crossing whose entry is still resident is a certain hit (age
   refreshed, no way search); one that crossed, or lost its line, takes
   the exact [lookup]. A miss invalidates every other reference resident
   in the refilled entry, and then no bulk advance follows that
   iteration. Otherwise the iterations before the earliest crossing are
   all hits: the clock jumps, and reference j's entry gets the age
   per-access replay would leave, clock_end - nrefs + j + 1, in
   reference order, so a line shared by references keeps the last
   toucher's age. Groups where every reference crosses a line every
   iteration replay per access.

   Nothing is allocated and no closure is called: the scratch lives in
   [t], and the counts are kept in locals — the clock counts accesses,
   hits are accesses minus misses, a group's writes and marked accesses
   follow from its header — then added to [t], [region] and [metrics]
   once per call. *)
let simulate_runs t ?marked ?region ?metrics (rc : Runchunk.t) =
  let data = rc.Runchunk.data in
  let len = rc.Runchunk.len in
  if len < 0 || len > Array.length data then
    invalid_arg "Cache.simulate_runs: chunk length out of range";
  let marks =
    match (marked, region) with Some m, Some _ -> m | _ -> [||]
  in
  let nmarked = Array.length marks in
  let shift = t.line_shift in
  let line_bytes = t.config.line_bytes in
  let ages = t.ages and dirty = t.dirty in
  let clock = ref t.clock in
  let writes = ref 0 in
  let r_accesses = ref 0 and r_misses = ref 0 and r_cold = ref 0 in
  let groups = ref 0 and boundaries = ref 0 in
  let bulk_iters = ref 0 and fallbacks = ref 0 in
  let i = ref 0 in
  while !i < len do
    let w = Array.unsafe_get data !i in
    if w >= 0 then begin
      let write = Chunk.write w in
      let lid = Chunk.label w in
      incr clock;
      if write then incr writes;
      let r = lookup t ~clock:!clock ~write (Chunk.addr w lsr shift) in
      if lid < nmarked && Array.unsafe_get marks lid then begin
        incr r_accesses;
        if r < 0 then begin
          incr r_misses;
          r_cold := !r_cold + missed_cold r
        end
      end;
      incr i
    end
    else begin
      let trip = Runchunk.header_trip w in
      let nrefs = Runchunk.header_nrefs w in
      let at = !i in
      i := at + Runchunk.group_words ~nrefs;
      if !i > len then invalid_arg "Cache.simulate_runs: truncated group";
      incr groups;
      grow_scratch t nrefs;
      let base = t.g_base and stride = t.g_stride and flags = t.g_flags in
      let entry = t.g_entry and next = t.g_next in
      let streamer = ref false in
      for j = 0 to nrefs - 1 do
        let r = Array.unsafe_get data (at + 1 + (2 * j)) in
        let s = Array.unsafe_get data (at + 2 + (2 * j)) in
        let lid = Chunk.label r in
        let f =
          (if Chunk.write r then write_flag else 0)
          lor
          if lid < nmarked && Array.unsafe_get marks lid then mark_flag else 0
        in
        if f land write_flag <> 0 then writes := !writes + trip;
        if f land mark_flag <> 0 then r_accesses := !r_accesses + trip;
        Array.unsafe_set base j (Chunk.addr r);
        Array.unsafe_set stride j s;
        Array.unsafe_set flags j f;
        Array.unsafe_set entry j (-1);
        if abs s < line_bytes then streamer := true
      done;
      if not !streamer then begin
        (* Every reference crosses a line every iteration: every
           iteration would be an event, so replay per access. *)
        boundaries := !boundaries + trip;
        for it = 0 to trip - 1 do
          for j = 0 to nrefs - 1 do
            let f = Array.unsafe_get flags j in
            let addr =
              Array.unsafe_get base j + (it * Array.unsafe_get stride j)
            in
            incr clock;
            let r =
              lookup t ~clock:!clock ~write:(f land write_flag <> 0)
                (addr lsr shift)
            in
            if r < 0 && f land mark_flag <> 0 then begin
              incr r_misses;
              r_cold := !r_cold + missed_cold r
            end
          done
        done
      end
      else begin
        let tcur = ref 0 in
        while !tcur < trip do
          (* Event iteration [tc], in reference order; [te] collects the
             earliest next crossing. *)
          let tc = !tcur in
          let invalidated = ref false in
          let te = ref trip in
          for j = 0 to nrefs - 1 do
            let e = Array.unsafe_get entry j in
            let nx = Array.unsafe_get next j in
            let f = Array.unsafe_get flags j in
            incr clock;
            if e >= 0 && tc < nx then begin
              (* Still inside the resident line: a certain hit. *)
              Array.unsafe_set ages e !clock;
              if f land write_flag <> 0 then Array.unsafe_set dirty e true;
              if nx < !te then te := nx
            end
            else begin
              let s = Array.unsafe_get stride j in
              let addr = Array.unsafe_get base j + (tc * s) in
              let r =
                lookup t ~clock:!clock ~write:(f land write_flag <> 0)
                  (addr lsr shift)
              in
              let nx =
                if s = 0 then max_int
                else
                  let off = addr land (line_bytes - 1) in
                  tc
                  + (if s > 0 then (line_bytes - off + s - 1) / s
                     else (off - s) / -s)
              in
              Array.unsafe_set next j nx;
              if nx < !te then te := nx;
              if r >= 0 then Array.unsafe_set entry j r
              else begin
                let e = missed_entry r in
                Array.unsafe_set entry j e;
                if f land mark_flag <> 0 then begin
                  incr r_misses;
                  r_cold := !r_cold + missed_cold r
                end;
                (* The miss refilled [e]: any other reference resident
                   there lost its line. *)
                for k = 0 to nrefs - 1 do
                  if k <> j && Array.unsafe_get entry k = e then begin
                    Array.unsafe_set entry k (-1);
                    invalidated := true;
                    incr fallbacks
                  end
                done
              end
            end
          done;
          incr boundaries;
          let tc = tc + 1 in
          tcur := tc;
          let wlen = !te - tc in
          if (not !invalidated) && wlen > 0 then begin
            (* All references resident: iterations before the earliest
               crossing are all hits. Advance the clock and restore the
               LRU ages per the rule above. *)
            clock := !clock + (wlen * nrefs);
            let age0 = !clock - nrefs + 1 in
            for j = 0 to nrefs - 1 do
              Array.unsafe_set ages (Array.unsafe_get entry j) (age0 + j)
            done;
            bulk_iters := !bulk_iters + wlen;
            tcur := !te
          end
        done
      end
    end
  done;
  t.clock <- !clock;
  t.writes <- t.writes + !writes;
  (match region with
  | Some reg ->
    reg.r_accesses <- reg.r_accesses + !r_accesses;
    reg.r_hits <- reg.r_hits + !r_accesses - !r_misses;
    reg.r_cold <- reg.r_cold + !r_cold
  | None -> ());
  match metrics with
  | Some m ->
    m.m_groups <- m.m_groups + !groups;
    m.m_boundaries <- m.m_boundaries + !boundaries;
    m.m_bulk_iters <- m.m_bulk_iters + !bulk_iters;
    m.m_fallbacks <- m.m_fallbacks + !fallbacks
  | None -> ()

let stats t =
  {
    accesses = t.clock;
    hits = t.clock - t.misses;
    misses = t.misses;
    cold_misses = t.cold;
    writes = t.writes;
    write_hits = t.writes - t.write_misses;
    writebacks = t.writebacks;
  }

(* The one hit-rate definition, shared with [Measure.hit_rate]: with no
   accesses at all the rate is vacuously 100%, but a run whose accesses
   were *all* cold misses (denominator 0 with accesses > 0) hit nothing
   and reports 0 — not the misleading 100.0 the seed returned. *)
let rate_of_counts ?(exclude_cold = true) ~accesses ~hits ~cold () =
  if accesses = 0 then 100.0
  else
    let denom = if exclude_cold then accesses - cold else accesses in
    if denom <= 0 then 0.0
    else 100.0 *. float_of_int hits /. float_of_int denom

let hit_rate ?exclude_cold (s : stats) =
  rate_of_counts ?exclude_cold ~accesses:s.accesses ~hits:s.hits
    ~cold:s.cold_misses ()
