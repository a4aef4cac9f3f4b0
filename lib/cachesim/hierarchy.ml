type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  l1_line : int;
  mutable writebacks : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable memory : int;
  mutable total : int;
}

let create ~l1 ~l2 =
  if l2.Cache.line_bytes < l1.Cache.line_bytes then
    invalid_arg "Hierarchy.create: L2 line smaller than L1 line";
  {
    l1 = Cache.create l1;
    l2 = Cache.create l2;
    l1_line = l1.Cache.line_bytes;
    writebacks = 0;
    l1_hits = 0;
    l2_hits = 0;
    memory = 0;
    total = 0;
  }

let access t ?(write = false) addr =
  t.total <- t.total + 1;
  match Cache.access_full t.l1 ~write addr with
  | `Hit, _ -> begin
    t.l1_hits <- t.l1_hits + 1;
    `L1_hit
  end
  | (`Cold | `Miss), written_back ->
    (* A dirty L1 victim is pushed down into L2. *)
    (match written_back with
    | Some victim_line ->
      t.writebacks <- t.writebacks + 1;
      ignore (Cache.access_full t.l2 ~write:true (victim_line * t.l1_line))
    | None -> ());
    (match Cache.access_full t.l2 addr with
    | `Hit, _ ->
      t.l2_hits <- t.l2_hits + 1;
      `L2_hit
    | (`Cold | `Miss), _ ->
      t.memory <- t.memory + 1;
      `Memory)

(* Run-chunk replay: groups are expanded to their access sequence (the
   two-level exchange makes window reasoning much hairier for little
   gain — hierarchy replay is off the hot path). *)
let simulate_runs t (rc : Runchunk.t) =
  Runchunk.iter rc (fun ~label:_ ~addr ~write -> ignore (access t ~write addr))

let l1_stats t = Cache.stats t.l1
let l2_stats t = Cache.stats t.l2
let writebacks t = t.writebacks

let l1_time = 1.0
let l2_time = 8.0
let mem_time = 40.0

let amat t =
  if t.total = 0 then 0.0
  else
    ((float_of_int t.l1_hits *. l1_time)
    +. (float_of_int t.l2_hits *. (l1_time +. l2_time))
    +. (float_of_int t.memory *. (l1_time +. l2_time +. mem_time)))
    /. float_of_int t.total
