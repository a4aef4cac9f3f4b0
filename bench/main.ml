(* Bechamel wall-clock benchmarks of native loop nests — the
   real-hardware analogue of the paper's execution-time measurements
   (Figures 2, 3 and 7, Table 1, and tile-size selection on the host's
   caches).

   Usage: main.exe  (MATMUL_N sets the matmul size, default 192)

   The simulated tables and figures are `memoria bench`. *)

(* ------------------------------------------------- native kernels ---- *)

(* Column-major matmul with an explicit loop order; exercises the real
   memory hierarchy the way Figure 2's measurements did. *)
let native_matmul order n =
  let a = Array.make (n * n) 1.5
  and b = Array.make (n * n) 2.5
  and c = Array.make (n * n) 0.0 in
  fun () ->
    let body i j k =
      c.((j * n) + i) <- c.((j * n) + i) +. (a.((k * n) + i) *. b.((j * n) + k))
    in
    (match order with
    | "IJK" ->
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            body i j k
          done
        done
      done
    | "JKI" ->
      for j = 0 to n - 1 do
        for k = 0 to n - 1 do
          for i = 0 to n - 1 do
            body i j k
          done
        done
      done
    | "KIJ" ->
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            body i j k
          done
        done
      done
    | "IKJ" ->
      for i = 0 to n - 1 do
        for k = 0 to n - 1 do
          for j = 0 to n - 1 do
            body i j k
          done
        done
      done
    | "JIK" ->
      for j = 0 to n - 1 do
        for i = 0 to n - 1 do
          for k = 0 to n - 1 do
            body i j k
          done
        done
      done
    | "KJI" ->
      for k = 0 to n - 1 do
        for j = 0 to n - 1 do
          for i = 0 to n - 1 do
            body i j k
          done
        done
      done
    | _ -> invalid_arg "order");
    Sys.opaque_identity c.(0)

(* ADI fragment, original (K inner per statement, I outer) vs the
   fused-and-interchanged form of Figure 3(c). *)
let native_adi fused n =
  let x = Array.make (n * n) 1.0
  and a = Array.make (n * n) 0.5
  and b = Array.make (n * n) 2.0 in
  let idx i k = (k * n) + i in
  fun () ->
    if fused then
      for k = 0 to n - 1 do
        for i = 1 to n - 1 do
          x.(idx i k) <-
            x.(idx i k) -. (x.(idx (i - 1) k) *. a.(idx i k) /. b.(idx (i - 1) k));
          b.(idx i k) <-
            b.(idx i k) -. (a.(idx i k) *. a.(idx i k) /. b.(idx (i - 1) k))
        done
      done
    else
      for i = 1 to n - 1 do
        for k = 0 to n - 1 do
          x.(idx i k) <-
            x.(idx i k) -. (x.(idx (i - 1) k) *. a.(idx i k) /. b.(idx (i - 1) k))
        done;
        for k = 0 to n - 1 do
          b.(idx i k) <-
            b.(idx i k) -. (a.(idx i k) *. a.(idx i k) /. b.(idx (i - 1) k))
        done
      done;
    Sys.opaque_identity x.(0)

(* Cholesky update loop, KIJ vs KJI (distributed + interchanged) forms. *)
let native_cholesky kji n =
  let a = Array.make (n * n) 0.0 in
  let idx i j = (j * n) + i in
  let reset () =
    for j = 0 to n - 1 do
      for i = 0 to n - 1 do
        a.(idx i j) <- (if i = j then float_of_int n else 0.5)
      done
    done
  in
  fun () ->
    reset ();
    if kji then
      for k = 0 to n - 1 do
        a.(idx k k) <- Float.sqrt (Float.abs a.(idx k k));
        for i = k + 1 to n - 1 do
          a.(idx i k) <- a.(idx i k) /. a.(idx k k)
        done;
        for j = k + 1 to n - 1 do
          for i = j to n - 1 do
            a.(idx i j) <- a.(idx i j) -. (a.(idx i k) *. a.(idx j k))
          done
        done
      done
    else
      for k = 0 to n - 1 do
        a.(idx k k) <- Float.sqrt (Float.abs a.(idx k k));
        for i = k + 1 to n - 1 do
          a.(idx i k) <- a.(idx i k) /. a.(idx k k);
          for j = k + 1 to i do
            a.(idx i j) <- a.(idx i j) -. (a.(idx i k) *. a.(idx j k))
          done
        done
      done;
    Sys.opaque_identity a.(0)

(* 3-D forward sweeps for Erlebacher: distributed (three passes) vs fused
   (one pass) — the Table 1 comparison. *)
let native_erlebacher fused n =
  let sz = n * n * n in
  let fa = Array.make sz 1.0
  and g = Array.make sz 1.0
  and ux = Array.make sz 0.0
  and d = Array.make n 0.9 in
  let idx i j k = (((k * n) + j) * n) + i in
  fun () ->
    if fused then
      for k = 1 to n - 1 do
        for j = 0 to n - 1 do
          for i = 0 to n - 1 do
            fa.(idx i j k) <- fa.(idx i j k) -. (fa.(idx i j (k - 1)) *. d.(k));
            g.(idx i j k) <- g.(idx i j k) -. (fa.(idx i j k) *. d.(k));
            ux.(idx i j k) <- ux.(idx i j k) +. (fa.(idx i j k) *. g.(idx i j k))
          done
        done
      done
    else begin
      for k = 1 to n - 1 do
        for j = 0 to n - 1 do
          for i = 0 to n - 1 do
            fa.(idx i j k) <- fa.(idx i j k) -. (fa.(idx i j (k - 1)) *. d.(k))
          done
        done
      done;
      for k = 1 to n - 1 do
        for j = 0 to n - 1 do
          for i = 0 to n - 1 do
            g.(idx i j k) <- g.(idx i j k) -. (fa.(idx i j k) *. d.(k))
          done
        done
      done;
      for k = 1 to n - 1 do
        for j = 0 to n - 1 do
          for i = 0 to n - 1 do
            ux.(idx i j k) <- ux.(idx i j k) +. (fa.(idx i j k) *. g.(idx i j k))
          done
        done
      done
    end;
    Sys.opaque_identity ux.(0)

(* Blocked (3-loop-tiled) matmul with a given tile size; tile = n means
   effectively untiled. Exercises Tilesize.choose on the host's real
   cache hierarchy, including the pathological power-of-two stride. *)
let native_blocked_matmul tile n =
  let a = Array.make (n * n) 1.5
  and b = Array.make (n * n) 2.5
  and c = Array.make (n * n) 0.0 in
  fun () ->
    let t = tile in
    let jt = ref 0 in
    while !jt < n do
      let jhi = min (!jt + t) n in
      let kt = ref 0 in
      while !kt < n do
        let khi = min (!kt + t) n in
        let it = ref 0 in
        while !it < n do
          let ihi = min (!it + t) n in
          for j = !jt to jhi - 1 do
            for k = !kt to khi - 1 do
              let bkj = b.((j * n) + k) in
              for i = !it to ihi - 1 do
                c.((j * n) + i) <- c.((j * n) + i) +. (a.((k * n) + i) *. bkj)
              done
            done
          done;
          it := ihi
        done;
        kt := khi
      done;
      jt := jhi
    done;
    Sys.opaque_identity c.(0)

(* Throughput of the infrastructure itself: the cache simulator and the
   compound algorithm (the paper stresses the algorithm is cheap). *)
let native_cachesim () =
  let cache = Locality_cachesim.Cache.create Locality_cachesim.Machine.cache1 in
  fun () ->
    for i = 0 to 99_999 do
      ignore (Locality_cachesim.Cache.access cache (i * 24 mod 1_000_000))
    done;
    Sys.opaque_identity
      (Locality_cachesim.Cache.stats cache).Locality_cachesim.Cache.hits

let native_compound () =
  let p =
    match Locality_suite.Programs.find "arc2d" with
    | Some e -> Locality_suite.Programs.program_of ~n:16 e
    | None -> assert false
  in
  fun () ->
    let p', _ = Locality_core.Compound.run_program ~cls:4 p in
    Sys.opaque_identity (List.length p'.Locality_ir.Program.body)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let n = try int_of_string (Sys.getenv "MATMUL_N") with Not_found -> 192 in
  let tests =
    Test.make_grouped ~name:"memoria"
      [
        (* Figure 2: real execution times of the six matmul orders. *)
        Test.make_grouped ~name:"fig2-matmul"
          (List.map
             (fun order ->
               Test.make ~name:order (Staged.stage (native_matmul order n)))
             Locality_suite.Kernels.matmul_orders);
        (* Figure 3 / Table 3: ADI original vs fused+interchanged. *)
        Test.make_grouped ~name:"fig3-adi"
          [
            Test.make ~name:"original" (Staged.stage (native_adi false 384));
            Test.make ~name:"fused" (Staged.stage (native_adi true 384));
          ];
        (* Figure 7: Cholesky KIJ vs KJI. *)
        Test.make_grouped ~name:"fig7-cholesky"
          [
            Test.make ~name:"kij" (Staged.stage (native_cholesky false n));
            Test.make ~name:"kji" (Staged.stage (native_cholesky true n));
          ];
        (* Table 1: Erlebacher distributed vs fused. *)
        Test.make_grouped ~name:"table1-erlebacher"
          [
            Test.make ~name:"distributed"
              (Staged.stage (native_erlebacher false 64));
            Test.make ~name:"fused" (Staged.stage (native_erlebacher true 64));
          ];
        (* Section 6 + LRW91: blocked matmul at the pathological
           power-of-two stride, fixed tiles vs Tilesize.choose for
           L1-like (32 KB, 8-way) and L2-like (1 MB, 16-way) host
           geometries. *)
        Test.make_grouped ~name:"ablation-tilesize-n512"
          (let geom name size assoc =
             {
               Locality_cachesim.Cache.name;
               size_bytes = size;
               assoc;
               line_bytes = 64;
             }
           in
           let auto cfg =
             (Locality_cachesim.Tilesize.choose cfg ~elem_size:8 ~stride:512)
               .Locality_cachesim.Tilesize.tile
           in
           let t1 = auto (geom "hostL1" (32 * 1024) 8)
           and t2 = auto (geom "hostL2" (1024 * 1024) 16) in
           [
             Test.make ~name:"untiled" (Staged.stage (native_blocked_matmul 512 512));
             Test.make ~name:"T=32" (Staged.stage (native_blocked_matmul 32 512));
             Test.make
               ~name:(Printf.sprintf "T=autoL1(%d)" t1)
               (Staged.stage (native_blocked_matmul t1 512));
             Test.make
               ~name:(Printf.sprintf "T=autoL2(%d)" t2)
               (Staged.stage (native_blocked_matmul t2 512));
           ]);
        (* Table 4 substrate: cache simulator throughput. *)
        Test.make ~name:"table4-cachesim-100k" (Staged.stage (native_cachesim ()));
        (* Table 2 substrate: the compound algorithm itself. *)
        Test.make ~name:"table2-compound-arc2d" (Staged.stage (native_compound ()));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 2.0) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  Printf.printf "== Bechamel wall-clock benchmarks ==\n";
  Printf.printf "%-45s %16s\n" "benchmark" "time/run";
  let entries = ref [] in
  Hashtbl.iter (fun name ols -> entries := (name, ols) :: !entries) results;
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ t ] ->
        let pretty =
          if t > 1e9 then Printf.sprintf "%10.3f s " (t /. 1e9)
          else if t > 1e6 then Printf.sprintf "%10.3f ms" (t /. 1e6)
          else if t > 1e3 then Printf.sprintf "%10.3f us" (t /. 1e3)
          else Printf.sprintf "%10.0f ns" t
        in
        Printf.printf "%-45s %16s\n" name pretty
      | _ -> Printf.printf "%-45s %16s\n" name "n/a")
    (List.sort compare !entries)

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: main.exe  (the tables and figures are `memoria bench`)";
    exit 2
  end;
  bechamel ()
