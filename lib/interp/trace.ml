module Chunk = Locality_cachesim.Chunk
module Runchunk = Locality_cachesim.Runchunk

let default_chunk_words = 65536

(* Statement-label interning. *)
module Interner = struct
  type t = {
    tbl : (string, int) Hashtbl.t;
    mutable rev_labels : string list;  (* interned labels, newest first *)
    mutable nlabels : int;
  }

  let create () = { tbl = Hashtbl.create 64; rev_labels = []; nlabels = 0 }

  let intern t label =
    match Hashtbl.find_opt t.tbl label with
    | Some id -> id
    | None ->
      let id = t.nlabels in
      if id > Chunk.max_label then
        invalid_arg "Trace.intern: too many distinct labels";
      Hashtbl.replace t.tbl label id;
      t.rev_labels <- label :: t.rev_labels;
      t.nlabels <- t.nlabels + 1;
      id

  let labels t =
    let a = Array.make t.nlabels "" in
    List.iteri (fun i l -> a.(t.nlabels - 1 - i) <- l) t.rev_labels;
    a
end

(* The run-aware buffer behind [Walk.run]: per-access
   records and strided-run group descriptors share one [Runchunk]
   stream. The capacity is in words, so a group costs 1 + 2*nrefs slots
   against it rather than trip*nrefs. *)

type runbuf = {
  rcap : int;
  mutable rchunk : Runchunk.t;
  rsink : Runchunk.t -> unit;
  rnames : Interner.t;
  mutable rtotal : int;  (* logical accesses represented *)
  mutable rruns : int;  (* group descriptors emitted *)
  mutable rwords : int;  (* stream words emitted *)
}

let run_create ?(chunk_words = default_chunk_words) ~sink () =
  {
    rcap = chunk_words;
    rchunk = Runchunk.create chunk_words;
    rsink = sink;
    rnames = Interner.create ();
    rtotal = 0;
    rruns = 0;
    rwords = 0;
  }

let run_intern t label = Interner.intern t.rnames label
let run_labels t = Interner.labels t.rnames

let run_flush t =
  if t.rchunk.Runchunk.len > 0 then begin
    t.rsink t.rchunk;
    Runchunk.reset t.rchunk
  end

let run_record t ~label ~addr ~write =
  if Runchunk.room t.rchunk = 0 then run_flush t;
  Runchunk.push_access t.rchunk (Chunk.pack ~addr ~write ~label);
  t.rtotal <- t.rtotal + 1;
  t.rwords <- t.rwords + 1

(* [packed.(j)] carries label and write flag with a zero address field
   (precomputed at closure-compile time); [bases]/[strides] are filled
   per loop instance. A group too large for even an empty chunk — more
   references in one loop body than half the chunk capacity — degrades
   to per-access records, so emission never fails. *)
let run_group t ~trip ~packed ~bases ~strides n =
  if n = 0 || trip = 0 then ()
  else begin
    let need = Runchunk.group_words ~nrefs:n in
    if need > t.rcap || trip > Runchunk.max_trip then begin
      for it = 0 to trip - 1 do
        for j = 0 to n - 1 do
          if Runchunk.room t.rchunk = 0 then run_flush t;
          let addr = bases.(j) + (it * strides.(j)) in
          if addr < 0 || addr > Chunk.max_addr then
            invalid_arg "Trace.run_group: address out of range";
          Runchunk.push_access t.rchunk (packed.(j) lor addr);
          t.rwords <- t.rwords + 1
        done
      done;
      t.rtotal <- t.rtotal + (trip * n)
    end
    else begin
      if Runchunk.room t.rchunk < need then run_flush t;
      Runchunk.push_group t.rchunk ~trip ~packed ~bases ~strides n;
      t.rtotal <- t.rtotal + (trip * n);
      t.rruns <- t.rruns + 1;
      t.rwords <- t.rwords + need
    end
  end

let run_total t = t.rtotal

type captured_runs = {
  run_chunks : Runchunk.t list;
  run_trace_labels : string array;
  run_records : int;  (** logical accesses, groups expanded *)
  run_groups : int;
  run_stream_words : int;
}

let run_capturing ?chunk_words () =
  let acc = ref [] in
  let t =
    run_create ?chunk_words ~sink:(fun c -> acc := Runchunk.copy c :: !acc) ()
  in
  let finish () =
    run_flush t;
    {
      run_chunks = List.rev !acc;
      run_trace_labels = run_labels t;
      run_records = t.rtotal;
      run_groups = t.rruns;
      run_stream_words = t.rwords;
    }
  in
  (t, finish)

let iter_run_chunks cap f = List.iter f cap.run_chunks

let iter_runs cap f = List.iter (fun rc -> Runchunk.iter rc f) cap.run_chunks
