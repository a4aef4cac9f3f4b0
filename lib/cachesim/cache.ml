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
  sets : int;
  line_shift : int;  (** log2 line_bytes; addr lsr line_shift = line *)
  set_mask : int;  (** sets - 1 when sets is a power of two, else -1 *)
  tags : int array;  (** sets * assoc entries; -1 = invalid *)
  ages : int array;  (** LRU clock per entry *)
  dirty : bool array;
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
  mutable cold : int;
  mutable writes : int;
  mutable write_hits : int;
  mutable writebacks : int;
  (* First-touch tracking: a growable bitset keyed by line index. Far
     cheaper than a per-access hash probe on the hot path. *)
  mutable seen_bits : Bytes.t;
  mutable seen_count : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let config_valid c =
  is_pow2 c.size_bytes && is_pow2 c.line_bytes && c.assoc > 0
  && c.line_bytes <= c.size_bytes
  && c.size_bytes mod (c.line_bytes * c.assoc) = 0

let initial_seen_bytes = 4096

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create config =
  if not (config_valid config) then invalid_arg "Cache.create: bad config";
  let sets = config.size_bytes / (config.line_bytes * config.assoc) in
  {
    config;
    sets;
    line_shift = log2 config.line_bytes;
    set_mask = (if is_pow2 sets then sets - 1 else -1);
    tags = Array.make (sets * config.assoc) (-1);
    ages = Array.make (sets * config.assoc) 0;
    dirty = Array.make (sets * config.assoc) false;
    clock = 0;
    accesses = 0;
    hits = 0;
    cold = 0;
    writes = 0;
    write_hits = 0;
    writebacks = 0;
    seen_bits = Bytes.make initial_seen_bytes '\000';
    seen_count = 0;
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
       (Char.code (Bytes.unsafe_get t.seen_bits byte) lor (1 lsl (line land 7))));
  t.seen_count <- t.seen_count + 1

let set_of_line t line =
  if t.set_mask >= 0 then line land t.set_mask else line mod t.sets

let access_full t ?(write = false) addr =
  let line = addr lsr t.line_shift in
  let set = set_of_line t line in
  let base = set * t.config.assoc in
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  if write then t.writes <- t.writes + 1;
  let rec find i =
    if i = t.config.assoc then None
    else if t.tags.(base + i) = line then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i ->
    t.hits <- t.hits + 1;
    if write then begin
      t.write_hits <- t.write_hits + 1;
      t.dirty.(base + i) <- true
    end;
    t.ages.(base + i) <- t.clock;
    (`Hit, None)
  | None ->
    let cold = not (seen_mem t line) in
    if cold then begin
      seen_add t line;
      t.cold <- t.cold + 1
    end;
    (* Evict the least recently used way; a dirty victim is written
       back. *)
    let victim = ref 0 in
    for i = 1 to t.config.assoc - 1 do
      if t.ages.(base + i) < t.ages.(base + !victim) then victim := i
    done;
    let written_back =
      if t.dirty.(base + !victim) && t.tags.(base + !victim) >= 0 then begin
        t.writebacks <- t.writebacks + 1;
        Some t.tags.(base + !victim)
      end
      else None
    in
    t.tags.(base + !victim) <- line;
    t.ages.(base + !victim) <- t.clock;
    t.dirty.(base + !victim) <- write;
    ((if cold then `Cold else `Miss), written_back)

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

(* Replay a v2 run chunk. Semantically identical to expanding every
   group round-robin and running [access_full] per access — the
   differential tests assert bit-identical statistics — but the group
   structure lets the simulator reason about whole windows of
   iterations at once.

   A reference with |stride| < line_bytes stays inside one cache line
   for several consecutive iterations, and a line can only leave the
   cache when some lookup misses and evicts it — which replay itself
   performs. So the group is replayed event-driven: each reference
   carries the iteration of its next line-boundary crossing, and
   between the current iteration and the earliest crossing every
   reference provably re-touches a resident line — those interior
   iterations bulk-advance hits, clock, LRU ages and region tallies
   with no set lookups at all. At an event iteration, references are
   processed in order; one whose line is unchanged and still resident
   takes a certain-hit fast path (no way search), one that crossed (or
   lost its line to an eviction) takes the exact [access_full] lookup.
   When a lookup misses, the refilled entry is checked against the
   other references' resident entries; a reference whose line was
   evicted is invalidated and re-looked-up, and bulk advancing is
   suppressed until the iteration after every reference is resident
   again. Groups whose references all jump a full line every iteration
   (|stride| >= line_bytes) replay through a plain per-access loop —
   every iteration would be an event.

   The bulk LRU rule: per-access replay would touch reference j of the
   final interior iteration at clock (clock_end - nrefs + j + 1), so
   ages are restored from that formula, in reference order — when
   several references share one line the last one wins, exactly as in
   per-access replay. *)
let simulate_runs t ?marked ?region ?metrics (rc : Runchunk.t) =
  let data = rc.Runchunk.data in
  let len = rc.Runchunk.len in
  let nmarked = match marked with Some m -> Array.length m | None -> 0 in
  let marks = match marked with Some m -> m | None -> [||] in
  let has_region = match (marked, region) with Some _, Some _ -> true | _ -> false in
  let reg = match region with Some r -> r | None -> fresh_region () in
  let shift = t.line_shift in
  let smask = t.set_mask in
  let sets = t.sets in
  let assoc = t.config.assoc in
  let line_bytes = t.config.line_bytes in
  let tags = t.tags and ages = t.ages and dirty = t.dirty in
  let rec find base line i =
    if i = assoc then -1
    else if Array.unsafe_get tags (base + i) = line then i
    else find base line (i + 1)
  in
  (* One exact access (same mutations as [access_full]); returns the
     entry index now holding the line. *)
  let do_access ~write ~lid addr =
    let line = addr lsr shift in
    let set = if smask >= 0 then line land smask else line mod sets in
    let base = set * assoc in
    t.accesses <- t.accesses + 1;
    t.clock <- t.clock + 1;
    if write then t.writes <- t.writes + 1;
    let way = find base line 0 in
    if way >= 0 then begin
      t.hits <- t.hits + 1;
      if write then begin
        t.write_hits <- t.write_hits + 1;
        dirty.(base + way) <- true
      end;
      ages.(base + way) <- t.clock;
      if has_region && lid < nmarked && Array.unsafe_get marks lid then begin
        reg.r_accesses <- reg.r_accesses + 1;
        reg.r_hits <- reg.r_hits + 1
      end;
      base + way
    end
    else begin
      let cold = not (seen_mem t line) in
      if cold then begin
        seen_add t line;
        t.cold <- t.cold + 1
      end;
      let victim = ref 0 in
      for i = 1 to assoc - 1 do
        if ages.(base + i) < ages.(base + !victim) then victim := i
      done;
      if dirty.(base + !victim) && tags.(base + !victim) >= 0 then
        t.writebacks <- t.writebacks + 1;
      tags.(base + !victim) <- line;
      ages.(base + !victim) <- t.clock;
      dirty.(base + !victim) <- write;
      if has_region && lid < nmarked && Array.unsafe_get marks lid then begin
        reg.r_accesses <- reg.r_accesses + 1;
        if cold then reg.r_cold <- reg.r_cold + 1
      end;
      base + !victim
    end
  in
  let i = ref 0 in
  while !i < len do
    let w = Array.unsafe_get data !i in
    if w >= 0 then begin
      ignore (do_access ~write:(Chunk.write w) ~lid:(Chunk.label w) (Chunk.addr w));
      incr i
    end
    else begin
      let trip = Runchunk.header_trip w in
      let nrefs = Runchunk.header_nrefs w in
      (match metrics with Some m -> m.m_groups <- m.m_groups + 1 | None -> ());
      let addrs = Array.make nrefs 0 in
      let strides = Array.make nrefs 0 in
      let lids = Array.make nrefs 0 in
      let wr = Array.make nrefs false in
      let mk = Array.make nrefs false in
      let any_streamer = ref false in
      for j = 0 to nrefs - 1 do
        let r = data.(!i + 1 + (2 * j)) in
        addrs.(j) <- Chunk.addr r;
        wr.(j) <- Chunk.write r;
        let lid = Chunk.label r in
        lids.(j) <- lid;
        mk.(j) <- has_region && lid < nmarked && marks.(lid);
        let s = data.(!i + 2 + (2 * j)) in
        strides.(j) <- s;
        if abs s < line_bytes then any_streamer := true
      done;
      i := !i + Runchunk.group_words ~nrefs;
      if not !any_streamer then begin
        (* Every reference crosses a line every iteration: every
           iteration would be an event, so replay per access (still
           without per-record decode). *)
        (match metrics with
        | Some m -> m.m_boundaries <- m.m_boundaries + trip
        | None -> ());
        for _t = 0 to trip - 1 do
          for j = 0 to nrefs - 1 do
            ignore (do_access ~write:wr.(j) ~lid:lids.(j) addrs.(j));
            addrs.(j) <- addrs.(j) + strides.(j)
          done
        done
      end
      else begin
        let nwrites = ref 0 in
        for j = 0 to nrefs - 1 do
          if wr.(j) then incr nwrites
        done;
        let nwrites = !nwrites in
        let entry = Array.make nrefs 0 in
        let line_of = Array.make nrefs 0 in
        let valid = Array.make nrefs false in
        (* Iteration at which each reference next enters a new line,
           relative to its last lookup; stride-0 references never do. *)
        let next_cross = Array.make nrefs max_int in
        let tcur = ref 0 in
        while !tcur < trip do
          (* Event iteration: in reference order, certain hits take the
             fast path, crossed or evicted references take exact
             lookups. *)
          let invalidated = ref false in
          for j = 0 to nrefs - 1 do
            let addr = addrs.(j) in
            let line = addr lsr shift in
            if valid.(j) && line = line_of.(j) then begin
              (* Still inside the resident line: a certain hit. *)
              let e = entry.(j) in
              t.accesses <- t.accesses + 1;
              t.clock <- t.clock + 1;
              t.hits <- t.hits + 1;
              if wr.(j) then begin
                t.writes <- t.writes + 1;
                t.write_hits <- t.write_hits + 1;
                dirty.(e) <- true
              end;
              ages.(e) <- t.clock;
              if mk.(j) then begin
                reg.r_accesses <- reg.r_accesses + 1;
                reg.r_hits <- reg.r_hits + 1
              end
            end
            else begin
              let hits0 = t.hits in
              let e = do_access ~write:wr.(j) ~lid:lids.(j) addr in
              entry.(j) <- e;
              line_of.(j) <- line;
              valid.(j) <- true;
              let s = strides.(j) in
              next_cross.(j) <-
                (if s = 0 then max_int
                 else
                   let off = addr land (line_bytes - 1) in
                   let k =
                     if s > 0 then (line_bytes - off + s - 1) / s
                     else (off - s) / -s
                   in
                   !tcur + k);
              if t.hits = hits0 then begin
                (* The miss refilled entry [e]; any other reference
                   resident there lost its line. *)
                for k = 0 to nrefs - 1 do
                  if k <> j && valid.(k) && entry.(k) = e
                     && tags.(e) <> line_of.(k)
                  then begin
                    valid.(k) <- false;
                    invalidated := true;
                    match metrics with
                    | Some m -> m.m_fallbacks <- m.m_fallbacks + 1
                    | None -> ()
                  end
                done
              end
            end;
            addrs.(j) <- addrs.(j) + strides.(j)
          done;
          (match metrics with
          | Some m -> m.m_boundaries <- m.m_boundaries + 1
          | None -> ());
          incr tcur;
          if not !invalidated && !tcur < trip then begin
            (* All references resident: iterations before the earliest
               crossing are all hits. Bulk-advance statistics and
               restore the LRU state per the rule above. *)
            let te = ref trip in
            for j = 0 to nrefs - 1 do
              if next_cross.(j) < !te then te := next_cross.(j)
            done;
            let wlen = !te - !tcur in
            if wlen > 0 then begin
              let dn = wlen * nrefs in
              t.accesses <- t.accesses + dn;
              t.clock <- t.clock + dn;
              t.hits <- t.hits + dn;
              t.writes <- t.writes + (wlen * nwrites);
              t.write_hits <- t.write_hits + (wlen * nwrites);
              for j = 0 to nrefs - 1 do
                ages.(entry.(j)) <- t.clock - nrefs + j + 1;
                if mk.(j) then begin
                  reg.r_accesses <- reg.r_accesses + wlen;
                  reg.r_hits <- reg.r_hits + wlen
                end;
                addrs.(j) <- addrs.(j) + (wlen * strides.(j))
              done;
              (match metrics with
              | Some m -> m.m_bulk_iters <- m.m_bulk_iters + wlen
              | None -> ());
              tcur := !te
            end
          end
        done
      end
    end
  done

let stats t =
  {
    accesses = t.accesses;
    hits = t.hits;
    misses = t.accesses - t.hits;
    cold_misses = t.cold;
    writes = t.writes;
    write_hits = t.write_hits;
    writebacks = t.writebacks;
  }

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.ages 0 (Array.length t.ages) 0;
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.clock <- 0;
  t.accesses <- 0;
  t.hits <- 0;
  t.cold <- 0;
  t.writes <- 0;
  t.write_hits <- 0;
  t.writebacks <- 0;
  Bytes.fill t.seen_bits 0 (Bytes.length t.seen_bits) '\000';
  t.seen_count <- 0

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

let num_sets t = t.sets
let lines_touched t = t.seen_count
