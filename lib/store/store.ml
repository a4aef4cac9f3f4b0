(* Content-addressed experiment store: see store.mli for the contract.

   Everything here is defensive by design — the store is a cache, so
   the failure mode of every code path is "behave as a miss" (reads) or
   "skip the write" (writes), never an exception that could take down a
   run or a wrong value that could change one. Validation happens
   before unmarshalling: a payload is only handed to Marshal once its
   checksum matches, and a decode failure still quarantines the file. *)

module Obs = Locality_obs.Obs

let format_version = 3
let magic = "MEMSTOR1"
let footer_len = 16 + 8 + String.length magic (* md5 + LE64 length + magic *)

type t = { dir : string }

let root t = t.dir

(* ------------------------------------------------------- counters --- *)

type counters = {
  hits : int;
  misses : int;
  writes : int;
  invalidations : int;
  quarantines : int;
}

let c_hits = Atomic.make 0
let c_misses = Atomic.make 0
let c_writes = Atomic.make 0
let c_invalidations = Atomic.make 0
let c_quarantines = Atomic.make 0

let bump counter obs_name =
  Atomic.incr counter;
  Obs.counter obs_name 1

let counters () =
  {
    hits = Atomic.get c_hits;
    misses = Atomic.get c_misses;
    writes = Atomic.get c_writes;
    invalidations = Atomic.get c_invalidations;
    quarantines = Atomic.get c_quarantines;
  }

(* ----------------------------------------------------------- keys --- *)

type key = string (* 16-byte MD5 digest *)

let key ~kind parts =
  (* Length-prefix every field so ["ab";"c"] and ["a";"bc"] cannot
     collide, and mix in the format version so a layout change retires
     the whole store at once. *)
  let buf = Buffer.create 256 in
  let add s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  add "memoria-store";
  add (string_of_int format_version);
  add kind;
  List.iter add parts;
  Digest.string (Buffer.contents buf)

let hex = Digest.to_hex

(* ---------------------------------------------------------- paths --- *)

let objects_dir t = Filename.concat t.dir "objects"
let quarantine_dir t = Filename.concat t.dir "quarantine"

let object_path t k =
  let h = hex k in
  Filename.concat
    (Filename.concat (objects_dir t) (String.sub h 0 2))
    (h ^ ".bin")

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let open_root dir =
  mkdir_p (Filename.concat dir "objects");
  mkdir_p (Filename.concat dir "quarantine");
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  { dir }

(* ------------------------------------------------------ file I/O --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let le64 n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  Bytes.to_string b

let le64_to_int s off = Int64.to_int (String.get_int64_le s off)

(* Unique-enough temp basename: pid + domain + a process-wide ticket. *)
let tmp_ticket = Atomic.make 0

let tmp_name base =
  Printf.sprintf ".%s.tmp.%d.%d.%d" base (Unix.getpid ())
    (Domain.self () :> int)
    (Atomic.fetch_and_add tmp_ticket 1)

let quarantine t path =
  (* Move the damaged entry aside so it is never read again but remains
     available for post-mortem; any failure just deletes it. *)
  let dest = Filename.concat (quarantine_dir t) (Filename.basename path) in
  (try Sys.rename path dest
   with _ -> ( try Sys.remove path with _ -> ()));
  ()

let put t k payload =
  let path = object_path t k in
  let dir = Filename.dirname path in
  (try
     mkdir_p dir;
     let tmp = Filename.concat dir (tmp_name (Filename.basename path)) in
     let oc = open_out_bin tmp in
     (try
        output_string oc payload;
        output_string oc (Digest.string payload);
        output_string oc (le64 (String.length payload));
        output_string oc magic;
        close_out oc;
        Sys.rename tmp path
      with e ->
        close_out_noerr oc;
        (try Sys.remove tmp with _ -> ());
        raise e)
   with _ -> ());
  bump c_writes "store.write"

let validate payload_and_footer =
  let n = String.length payload_and_footer in
  if n < footer_len then `Invalid
  else if
    not
      (String.equal
         (String.sub payload_and_footer (n - String.length magic)
            (String.length magic))
         magic)
  then `Invalid
  else
    let plen = le64_to_int payload_and_footer (n - footer_len + 16) in
    if plen <> n - footer_len then `Invalid
    else
      let payload = String.sub payload_and_footer 0 plen in
      let sum = String.sub payload_and_footer plen 16 in
      if String.equal (Digest.string payload) sum then `Ok payload
      else `Corrupt

let get t k =
  let path = object_path t k in
  match read_file path with
  | exception _ ->
    bump c_misses "store.miss";
    None
  | raw -> (
    match validate raw with
    | `Ok payload ->
      (* Touch the mtime: reads refresh the LRU clock gc evicts by. *)
      (try Unix.utimes path 0.0 0.0 with _ -> ());
      bump c_hits "store.hit";
      Some payload
    | `Invalid ->
      quarantine t path;
      bump c_invalidations "store.invalidation";
      bump c_misses "store.miss";
      None
    | `Corrupt ->
      quarantine t path;
      bump c_quarantines "store.quarantine";
      bump c_misses "store.miss";
      None)

let put_value t k v = put t k (Marshal.to_string v [])

let get_value t k =
  match get t k with
  | None -> None
  | Some payload -> (
    match Marshal.from_string payload 0 with
    | v -> Some v
    | exception _ ->
      (* The checksum matched, so the bytes are what was written — the
         writer and reader disagree about the payload shape. Quarantine
         and recompute; the format version in the key makes this
         practically unreachable. *)
      quarantine t (object_path t k);
      bump c_quarantines "store.quarantine";
      None)

let memo store key compute =
  match store with
  | None -> compute ()
  | Some st -> (
    let k = key () in
    match get_value st k with
    | Some v -> v
    | None ->
      let v = compute () in
      put_value st k v;
      v)

(* ---------------------------------------------------- maintenance --- *)

type disk_stats = {
  entries : int;
  bytes : int;
  quarantined : int;
}

let is_entry name =
  String.length name > 4
  && String.equal (String.sub name (String.length name - 4) 4) ".bin"
  && name.[0] <> '.'

let iter_objects t f =
  let objects = objects_dir t in
  if Sys.file_exists objects then
    Array.iter
      (fun sub ->
        let dir = Filename.concat objects sub in
        if Sys.is_directory dir then
          Array.iter
            (fun name -> if is_entry name then f (Filename.concat dir name))
            (Sys.readdir dir))
      (Sys.readdir objects)

let disk_stats t =
  let entries = ref 0 and bytes = ref 0 in
  iter_objects t (fun path ->
      match Unix.stat path with
      | st ->
        incr entries;
        bytes := !bytes + st.Unix.st_size
      | exception _ -> ());
  let quarantined =
    match Sys.readdir (quarantine_dir t) with
    | files -> List.length (List.filter is_entry (Array.to_list files))
    | exception _ -> 0
  in
  { entries = !entries; bytes = !bytes; quarantined }

let verify t =
  let ok = ref 0 and bad = ref 0 in
  iter_objects t (fun path ->
      match validate (read_file path) with
      | `Ok _ -> incr ok
      | `Invalid | `Corrupt | (exception _) ->
        quarantine t path;
        bump c_quarantines "store.quarantine";
        incr bad);
  (!ok, !bad)

let gc ?(min_age_s = 0.) t ~max_bytes =
  (* Quarantined entries are dead weight either way. *)
  (try
     Array.iter
       (fun name ->
         try Sys.remove (Filename.concat (quarantine_dir t) name) with _ -> ())
       (Sys.readdir (quarantine_dir t))
   with _ -> ());
  let files = ref [] in
  let total = ref 0 in
  (* A just-written entry is the hottest thing in the store: read-touch
     keeps warm entries fresh, but a writer racing the tick has an mtime
     of "now" and must never lose to eviction.  Entries younger than
     [min_age_s] are counted toward the total yet exempt from removal. *)
  let cutoff = Unix.gettimeofday () -. min_age_s in
  iter_objects t (fun path ->
      match Unix.stat path with
      | st ->
        if st.Unix.st_mtime <= cutoff then
          files := (st.Unix.st_mtime, st.Unix.st_size, path) :: !files;
        total := !total + st.Unix.st_size
      | exception _ -> ());
  let oldest_first =
    List.sort
      (fun (t1, _, p1) (t2, _, p2) ->
        match Float.compare t1 t2 with 0 -> String.compare p1 p2 | c -> c)
      !files
  in
  let deleted = ref 0 in
  List.iter
    (fun (_, size, path) ->
      if !total > max_bytes then begin
        (try
           Sys.remove path;
           total := !total - size;
           incr deleted
         with _ -> ())
      end)
    oldest_first;
  (!deleted, !total)
