(* Tests for the cache simulator and array layout. *)

module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Layout = Locality_cachesim.Layout
open Locality_ir

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let tiny =
  { Cache.name = "tiny"; size_bytes = 256; assoc = 2; line_bytes = 32 }

let sets (c : Cache.config) =
  c.Cache.size_bytes / (c.Cache.line_bytes * c.Cache.assoc)

let test_config_validation () =
  checkb "cache1 valid" true (Cache.config_valid Machine.cache1);
  checkb "cache2 valid" true (Cache.config_valid Machine.cache2);
  checkb "non-pow2 size invalid" false
    (Cache.config_valid { tiny with Cache.size_bytes = 300 });
  checkb "zero assoc invalid" false
    (Cache.config_valid { tiny with Cache.assoc = 0 });
  checki "cache1 sets" 128 (sets Machine.cache1);
  checki "cls of cache1 for doubles" 16 (Machine.cache1.Cache.line_bytes / 8);
  checki "cls of cache2 for doubles" 4 (Machine.cache2.Cache.line_bytes / 8)

let test_basic_hit_miss () =
  let c = Cache.create tiny in
  checkb "first access misses" false (Cache.access c 0);
  checkb "same line hits" true (Cache.access c 8);
  checkb "line boundary misses" false (Cache.access c 32);
  let s = Cache.stats c in
  checki "accesses" 3 s.Cache.accesses;
  checki "hits" 1 s.Cache.hits;
  checki "misses" 2 s.Cache.misses;
  checki "cold" 2 s.Cache.cold_misses

let test_conflict_and_lru () =
  (* tiny: 256B / (32B * 2 ways) = 4 sets. Addresses 0, 128, 256 map to
     set 0. With 2 ways, the third conflicts; LRU evicts address 0. *)
  let c = Cache.create tiny in
  ignore (Cache.access c 0);
  ignore (Cache.access c 128);
  ignore (Cache.access c 256);
  checkb "0 evicted" false (Cache.access c 0);
  (* Now 0 and 256 resident (128 evicted as LRU). *)
  checkb "256 resident" true (Cache.access c 256);
  checkb "128 evicted" false (Cache.access c 128)

let test_cold_vs_capacity () =
  let c = Cache.create tiny in
  ignore (Cache.access c 0);
  ignore (Cache.access c 128);
  ignore (Cache.access c 256);
  ignore (Cache.access c 0);
  let s = Cache.stats c in
  checki "cold misses counted once per line" 3 s.Cache.cold_misses;
  checki "total misses" 4 s.Cache.misses;
  (* Hit rate excluding cold: 0 hits / (4-3) = 0. *)
  checkf "rate excl cold" 0.0 (Cache.hit_rate s);
  ignore (Cache.access c 0);
  let s = Cache.stats c in
  checkf "rate excl cold after hit" 50.0 (Cache.hit_rate s)

(* LRU inclusion: with the same number of sets, higher associativity never
   turns a hit into a miss. *)
let prop_lru_inclusion =
  let gen = QCheck.Gen.(list_size (int_range 1 300) (int_range 0 2047)) in
  QCheck.Test.make ~name:"lru inclusion (assoc monotonicity)" ~count:100
    (QCheck.make gen) (fun addrs ->
      let mk assoc =
        Cache.create
          { Cache.name = "p"; size_bytes = 32 * 8 * assoc; assoc; line_bytes = 32 }
      in
      let c2 = mk 2 and c4 = mk 4 in
      List.for_all
        (fun a ->
          let h2 = Cache.access c2 a in
          let h4 = Cache.access c4 a in
          (not h2) || h4)
        addrs)

let prop_counts_consistent =
  let gen = QCheck.Gen.(list_size (int_range 0 200) (int_range 0 4095)) in
  QCheck.Test.make ~name:"hits + misses = accesses; cold <= misses" ~count:100
    (QCheck.make gen) (fun addrs ->
      let c = Cache.create tiny in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      let s = Cache.stats c in
      s.Cache.hits + s.Cache.misses = s.Cache.accesses
      && s.Cache.cold_misses <= s.Cache.misses
      && s.Cache.accesses = List.length addrs)

let prop_fully_assoc_small_ws =
  (* A working set no larger than the cache never misses after cold. *)
  let gen = QCheck.Gen.(list_size (int_range 1 500) (int_range 0 7)) in
  QCheck.Test.make ~name:"small working set only cold-misses" ~count:100
    (QCheck.make gen) (fun lines ->
      let c = Cache.create tiny in
      List.iter (fun l -> ignore (Cache.access c (l * 32))) lines;
      let s = Cache.stats c in
      (* 8 lines of 32B = 256B = whole cache, but mapping is 4 sets x 2
         ways, so 8 distinct lines spread 2 per set: all fit. *)
      s.Cache.misses = s.Cache.cold_misses)

(* ---------------------------------------------------------- writes --- *)

let test_write_accounting () =
  let c = Cache.create tiny in
  ignore (Cache.access_full c ~write:true 0);
  ignore (Cache.access_full c ~write:true 8);
  let s = Cache.stats c in
  checki "writes" 2 s.Cache.writes;
  checki "write hits" 1 s.Cache.write_hits;
  checki "no writebacks yet" 0 s.Cache.writebacks

let test_writeback_on_dirty_eviction () =
  (* tiny: 4 sets x 2 ways; 0, 128, 256 all map to set 0. Writing 0 then
     evicting it must produce exactly one writeback of line 0. *)
  let c = Cache.create tiny in
  ignore (Cache.access_full c ~write:true 0);
  ignore (Cache.access_full c 128);
  let _, wb = Cache.access_full c 256 in
  checkb "line 0 written back" true (wb = Some 0);
  checki "one writeback" 1 (Cache.stats c).Cache.writebacks;
  (* Clean evictions write nothing back. *)
  let _, wb2 = Cache.access_full c 384 in
  checkb "clean victim" true (wb2 = None)

(* ------------------------------------------------------- hierarchy --- *)

let test_hierarchy_levels () =
  let h =
    Locality_cachesim.Hierarchy.create
      ~l1:{ Cache.name = "l1"; size_bytes = 256; assoc = 2; line_bytes = 32 }
      ~l2:{ Cache.name = "l2"; size_bytes = 2048; assoc = 4; line_bytes = 32 }
  in
  let module H = Locality_cachesim.Hierarchy in
  checkb "first access goes to memory" true (H.access h 0 = `Memory);
  checkb "second is an L1 hit" true (H.access h 0 = `L1_hit);
  (* Evict line 0 from L1 (set 0 holds 2 ways) but it stays in L2. *)
  ignore (H.access h 256);
  ignore (H.access h 512);
  checkb "L2 catches the L1 eviction" true (H.access h 0 = `L2_hit)

let test_hierarchy_writeback_flows_down () =
  let module H = Locality_cachesim.Hierarchy in
  let h =
    H.create
      ~l1:{ Cache.name = "l1"; size_bytes = 64; assoc = 1; line_bytes = 32 }
      ~l2:{ Cache.name = "l2"; size_bytes = 1024; assoc = 4; line_bytes = 32 }
  in
  ignore (H.access h ~write:true 0);
  (* Direct-mapped L1 with 2 sets: 64 conflicts with 0. *)
  ignore (H.access h 64);
  checki "dirty line pushed to L2" 1 (H.writebacks h);
  checkb "amat positive" true (H.amat h > 0.0)

(* ----------------------------------------------------------- reuse --- *)

module Sample = Locality_sample.Sample

(* The exact reuse-distance profile of a byte-address sequence: the
   sampler at rate 1.0, one set, no bound on tracked lines. *)
let exact_profile addrs =
  let s =
    Sample.create ~rate:1.0 ~max_tracked:max_int ~sets:1 ~line_bytes:32 ()
  in
  List.iter (fun addr -> Sample.access s ~label:0 ~addr) addrs;
  Sample.profile s ~labels:[| "L" |] ~ops:0

let test_reuse_basic () =
  let pf = exact_profile [ 0; 32; 64; 0 ] in
  (* 0 reused after touching 2 other lines: distance 2. *)
  checki "accesses" 4 pf.Sample.pf_accesses;
  checkf "cold" 3.0 (Sample.cold pf);
  checkb "distance 2 recorded" true
    (List.mem (2, 1.0) (Sample.merged_histogram pf));
  (* A 3-line LRU cache holds it; a 2-line one does not. *)
  checkf "hit with 3 lines" 100.0 (Sample.predicted_hit_rate pf ~lines:3);
  checkf "miss with 2 lines" 0.0 (Sample.predicted_hit_rate pf ~lines:2)

let prop_reuse_matches_fully_assoc_lru =
  (* The reuse-distance prediction must equal a simulated fully
     associative LRU cache, for every capacity — the two implementations
     validate each other. *)
  let gen = QCheck.Gen.(list_size (int_range 1 400) (int_range 0 1023)) in
  QCheck.Test.make ~name:"reuse distance = fully associative LRU" ~count:60
    (QCheck.make gen) (fun addrs ->
      let pf = exact_profile addrs in
      List.for_all
        (fun capacity ->
          let c =
            Cache.create
              {
                Cache.name = "fa";
                size_bytes = 32 * capacity;
                assoc = capacity;
                line_bytes = 32;
              }
          in
          List.iter (fun a -> ignore (Cache.access c a)) addrs;
          let predicted = Sample.predicted_hit_rate pf ~lines:capacity in
          let simulated = Cache.hit_rate (Cache.stats c) in
          Float.abs (predicted -. simulated) < 1e-9)
        [ 1; 2; 4; 8; 16 ])

let prop_valid_sets_pow2 =
  (* [config_valid] admits only power-of-two set counts, which is what
     lets the simulator find a line's set with a mask. Sizes are powers
     of two or arbitrary, associativities any small count. *)
  let gen =
    QCheck.Gen.(
      let* size =
        oneof [ map (fun k -> 1 lsl k) (int_range 0 20); int_range 1 100_000 ]
      in
      let* line = map (fun k -> 1 lsl k) (int_range 0 10) in
      let* assoc = int_range 1 40 in
      return { Cache.name = "q"; size_bytes = size; assoc; line_bytes = line })
  in
  QCheck.Test.make ~name:"valid configs have power-of-two set counts"
    ~count:1000 (QCheck.make gen) (fun c ->
      (not (Cache.config_valid c))
      ||
      let sets = sets c in
      sets > 0 && sets land (sets - 1) = 0)

let test_reuse_mean_and_growth () =
  (* 1500 lines twice over: the distance tracker grows past its initial
     capacity and the exact profile never adapts its rate. *)
  let line k = k * 32 in
  let pf = exact_profile (List.init 1500 line @ List.init 1500 line) in
  checki "accesses" 3000 pf.Sample.pf_accesses;
  checkf "cold once per line" 1500.0 (Sample.cold pf);
  checki "no rate adaptation" 0 pf.Sample.pf_adaptations;
  (* Every reuse has distance 1499. *)
  checkb "distances" true (Sample.merged_histogram pf = [ (1499, 1500.0) ]);
  Alcotest.check (Alcotest.float 1e-6) "mean" 1499.0 (Sample.mean_distance pf)

(* -------------------------------------------------------------- layout *)

let layout_of () =
  let open Builder in
  let nn = v "N" in
  Layout.build
    ~param:(fun _ -> 10)
    [ Decl.make "A" [ nn; nn ]; Decl.make "B" [ nn ] ]

let test_layout_column_major () =
  let l = layout_of () in
  let a i j = Layout.address l "A" [| i; j |] in
  checki "first dim contiguous" 8 (a 2 1 - a 1 1);
  checki "second dim strides by column" (8 * 10) (a 1 2 - a 1 1);
  checki "flat offset" 0 (Layout.flat_offset l "A" [| 1; 1 |]);
  checki "flat offset (3,2)" 12 (Layout.flat_offset l "A" [| 3; 2 |]);
  checki "A size" 100 (Layout.size_elements l "A")

let test_layout_separate_arrays () =
  let l = layout_of () in
  let last_a = Layout.address l "A" [| 10; 10 |] in
  let first_b = Layout.address l "B" [| 1 |] in
  checkb "B after A" true (first_b > last_a);
  checki "B base aligned" 0 (first_b mod 128)

let test_layout_bounds_check () =
  let l = layout_of () in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Layout: A subscript 1 = 11 out of [1,10]") (fun () ->
      ignore (Layout.address l "A" [| 11; 1 |]));
  Alcotest.check_raises "zero subscript"
    (Invalid_argument "Layout: A subscript 2 = 0 out of [1,10]") (fun () ->
      ignore (Layout.address l "A" [| 5; 0 |]))

(* ------------------------------------------------ tile-size choice --- *)

module Tilesize = Locality_cachesim.Tilesize

let test_tilesize_candidates () =
  Alcotest.check (Alcotest.list Alcotest.int) "euclid 1024/96" [ 96; 64; 32 ]
    (Tilesize.candidates ~cache_elems:1024 ~stride:96);
  Alcotest.check (Alcotest.list Alcotest.int) "euclid 1024/60" [ 60; 4 ]
    (Tilesize.candidates ~cache_elems:1024 ~stride:60);
  Alcotest.check_raises "bad stride"
    (Invalid_argument "Tilesize.candidates") (fun () ->
      ignore (Tilesize.candidates ~cache_elems:1024 ~stride:0))

let test_tilesize_conflicts () =
  let cfg = Machine.cache2 in
  (* Stride 512 doubles: every column lands on sets {0,1}; an 8×8 tile
     piles 8 lines into each. *)
  checki "pathological stride conflicts" 12
    (Tilesize.self_conflicts cfg ~elem_size:8 ~stride:512 ~tile:8);
  checki "friendly stride clean" 0
    (Tilesize.self_conflicts cfg ~elem_size:8 ~stride:96 ~tile:16);
  (* Stride 128: columns 4 apart share sets — fine 2-way, not 1-way. *)
  checki "fits in both ways" 0
    (Tilesize.self_conflicts cfg ~elem_size:8 ~stride:128 ~tile:8);
  checki "overflows one way" 8
    (Tilesize.self_conflicts ~ways:1 cfg ~elem_size:8 ~stride:128 ~tile:8);
  checki "footprint 16 cols x 4 lines" 64
    (Tilesize.footprint cfg ~elem_size:8 ~stride:96 ~tile:16)

let test_tilesize_choose () =
  let cfg = Machine.cache2 in
  let v96 = Tilesize.choose cfg ~elem_size:8 ~stride:96 in
  checki "N=96 tile" 16 v96.Tilesize.tile;
  checkb "N=96 conflict-free" true v96.Tilesize.conflict_free;
  checki "N=512 falls to minimum" 2
    (Tilesize.choose cfg ~elem_size:8 ~stride:512).Tilesize.tile;
  (* The reserved way rejects T=16 at stride 64; without it, 16 fits. *)
  checki "N=64 with reserve" 8
    (Tilesize.choose cfg ~elem_size:8 ~stride:64).Tilesize.tile;
  checki "N=64 without reserve" 16
    (Tilesize.choose ~reserve_ways:0 cfg ~elem_size:8 ~stride:64)
      .Tilesize.tile;
  Alcotest.check_raises "bad max_fill"
    (Invalid_argument "Tilesize.choose: max_fill must be in (0, 1]")
    (fun () ->
      ignore (Tilesize.choose ~max_fill:1.5 cfg ~elem_size:8 ~stride:64))

let prop_tilesize_sound =
  (* Whatever the stride, the chosen tile must honour its own contract:
     conflict-free under the reserved-way discipline, within the
     footprint budget, and reporting the footprint of the tile it chose. *)
  let gen = QCheck.Gen.(pair (int_range 3 400) (oneofl [ 4; 8 ])) in
  QCheck.Test.make ~name:"tilesize choice is sound" ~count:200
    (QCheck.make gen) (fun (stride, elem_size) ->
      List.for_all
        (fun cfg ->
          let v = Tilesize.choose cfg ~elem_size ~stride in
          let ways = max 1 (cfg.Cache.assoc - 1) in
          v.Tilesize.tile >= 2
          && v.Tilesize.footprint_lines
             = Tilesize.footprint cfg ~elem_size ~stride ~tile:v.Tilesize.tile
          && ((not v.Tilesize.conflict_free)
             || Tilesize.self_conflicts ~ways cfg ~elem_size ~stride
                  ~tile:v.Tilesize.tile
                = 0)
          && (v.Tilesize.tile = 2
             || v.Tilesize.footprint_lines
                <= int_of_float
                     (0.7
                     *. float_of_int
                          (cfg.Cache.size_bytes / cfg.Cache.line_bytes))))
        [ Machine.cache1; Machine.cache2 ])

let suite =
  [
    ("config validation", `Quick, test_config_validation);
    ("basic hit/miss", `Quick, test_basic_hit_miss);
    ("conflict + LRU order", `Quick, test_conflict_and_lru);
    ("cold vs capacity misses", `Quick, test_cold_vs_capacity);
    ("write accounting", `Quick, test_write_accounting);
    ("writeback on dirty eviction", `Quick, test_writeback_on_dirty_eviction);
    ("hierarchy levels", `Quick, test_hierarchy_levels);
    ("hierarchy writeback flows down", `Quick, test_hierarchy_writeback_flows_down);
    ("reuse distance basics", `Quick, test_reuse_basic);
    ("reuse tree growth + mean", `Quick, test_reuse_mean_and_growth);
    ("layout column major", `Quick, test_layout_column_major);
    ("layout array separation", `Quick, test_layout_separate_arrays);
    ("layout bounds check", `Quick, test_layout_bounds_check);
    ("tilesize euclid candidates", `Quick, test_tilesize_candidates);
    ("tilesize conflict counting", `Quick, test_tilesize_conflicts);
    ("tilesize choose", `Quick, test_tilesize_choose);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_lru_inclusion;
        prop_counts_consistent;
        prop_fully_assoc_small_ws;
        prop_reuse_matches_fully_assoc_lru;
        prop_tilesize_sound;
        prop_valid_sets_pow2;
      ]
