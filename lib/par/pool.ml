(* A small domain pool for embarrassingly parallel work.

   Work items are claimed by index from an atomic counter, and results
   land in a slot array, so output order always matches input order no
   matter which domain ran which item. With [jobs = 1] (or inside a
   worker) no helper is involved and the map degenerates to the plain
   sequential loop, which is also the determinism baseline the test
   suite compares against. *)

(* Extra domains on an oversubscribed machine only add minor-GC
   synchronisation stalls, so the default stays within the core count. *)
let default_jobs () = min 8 (max 1 (Domain.recommended_domain_count ()))

(* Workers flag themselves so a nested [map] (e.g. Table2.compute inside
   a parallelized bench experiment) runs sequentially instead of
   multiplying domains. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

module Obs = Locality_obs.Obs

(* ---------------------------------------------------- worker loop --- *)

(* Worker domains block on a condition variable and drain a FIFO of
   thunks, so a submission costs a lock round-trip instead of a domain
   spawn. [memoria serve] creates its own pool; [map] shares one
   process-wide pool of helpers (below). *)

type pool = {
  p_lock : Mutex.t;
  p_nonempty : Condition.t;
  p_queue : (unit -> unit) Queue.t;
  mutable p_stop : bool;
  mutable p_domains : unit Domain.t list;
}

let worker p () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock p.p_lock;
    while Queue.is_empty p.p_queue && not p.p_stop do
      Condition.wait p.p_nonempty p.p_lock
    done;
    match Queue.take_opt p.p_queue with
    | None ->
      (* stopped and drained *)
      Mutex.unlock p.p_lock
    | Some job ->
      Mutex.unlock p.p_lock;
      (* A job must not take the pool down: the submitter is expected to
         wrap its own error reporting; anything escaping is dropped. *)
      (try job () with _ -> ());
      loop ()
  in
  loop ()

let empty () =
  {
    p_lock = Mutex.create ();
    p_nonempty = Condition.create ();
    p_queue = Queue.create ();
    p_stop = false;
    p_domains = [];
  }

(* Spawn workers until [p] has [k] of them. *)
let grow p k =
  Mutex.lock p.p_lock;
  for _ = List.length p.p_domains + 1 to k do
    Obs.counter "par.domains_spawned" 1;
    p.p_domains <- Domain.spawn (worker p) :: p.p_domains
  done;
  Mutex.unlock p.p_lock

let create ?jobs () =
  let p = empty () in
  grow p (match jobs with Some j -> max 1 j | None -> default_jobs ());
  p

let pool_jobs p = List.length p.p_domains

let submit p job =
  Mutex.lock p.p_lock;
  if p.p_stop then begin
    Mutex.unlock p.p_lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push job p.p_queue;
  Condition.signal p.p_nonempty;
  Mutex.unlock p.p_lock

let shutdown p =
  Mutex.lock p.p_lock;
  p.p_stop <- true;
  Condition.broadcast p.p_nonempty;
  Mutex.unlock p.p_lock;
  List.iter Domain.join p.p_domains;
  p.p_domains <- []

(* ---------------------------------------------------- fan-outs --- *)

(* [map]'s and [both]'s helpers live for the whole process: spawned on
   the first fan-out that needs them, never more than
   [default_jobs () - 1], and never shut down. On OCaml 5.1 a joined
   domain leaves resident memory behind, so a spawn per fan-out would
   grow RSS with every fan-out. *)
let helpers = empty ()

(* A count of unfinished pieces of one fan-out, which its caller awaits. *)
type latch = { left : int Atomic.t; l_lock : Mutex.t; l_zero : Condition.t }

let latch n =
  { left = Atomic.make n; l_lock = Mutex.create (); l_zero = Condition.create () }

let count_down l =
  if Atomic.fetch_and_add l.left (-1) = 1 then begin
    Mutex.lock l.l_lock;
    Condition.broadcast l.l_zero;
    Mutex.unlock l.l_lock
  end

let await l =
  Mutex.lock l.l_lock;
  while Atomic.get l.left > 0 do
    Condition.wait l.l_zero l.l_lock
  done;
  Mutex.unlock l.l_lock

let map ?jobs f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let jobs = min (Option.value jobs ~default:n) (min n (default_jobs ())) in
  if jobs <= 1 || Domain.DLS.get in_worker then
    Array.to_list (Array.map f items)
  else begin
    let results = Array.make n None in
    (* When tracing is on, each item's events are captured where it runs
       and re-injected into the caller's buffer in input order once all
       have finished, so the merged stream is independent of the pool
       size (the sequential path above records directly in the same
       order). *)
    let tracing = Obs.enabled () in
    let item_events = if tracing then Array.make n [] else [||] in
    let run i =
      if tracing then begin
        let v, evs = Obs.scoped (fun () -> f items.(i)) in
        item_events.(i) <- evs;
        v
      end
      else f items.(i)
    in
    let next = Atomic.make 0 and unfinished = latch n in
    let failure = Atomic.make None in
    (* Every claimed index counts as finished, also one skipped after
       another item failed; otherwise the caller would wait forever. A
       helper that picks this closure up after the map returned claims
       an index past [n] and does nothing. *)
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (if Option.is_none (Atomic.get failure) then
           match run i with
           | v -> results.(i) <- Some v
           | exception e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set failure None (Some (e, bt))));
        count_down unfinished;
        claim ()
      end
    in
    grow helpers (jobs - 1);
    for _ = 2 to jobs do
      submit helpers claim
    done;
    Domain.DLS.set in_worker true;
    claim ();
    Domain.DLS.set in_worker false;
    (* The counter is drained, but helpers may still be running items
       they claimed. *)
    await unfinished;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    if tracing then Array.iter Obs.inject item_events;
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Some v -> v
           | None -> invalid_arg (Printf.sprintf "Pool.map: item %d lost" i))
         results)
  end

(* [h ()] with its exception caught, and with its events captured when
   tracing. *)
let attempt tracing h =
  match if tracing then Obs.scoped h else (h (), []) with
  | r -> Ok r
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

let both ?(jobs = 2) f g =
  if min jobs (default_jobs ()) <= 1 || Domain.DLS.get in_worker then begin
    let a = f () in
    (a, g ())
  end
  else begin
    (* Events are merged as in [map]: [f]'s, then [g]'s, the order the
       sequential path records them in. Unlike [map]'s caller, this one
       stays outside the nested-pool guard, so a [map] inside [g] fans
       out, and the helper joins it once [f] is done. *)
    let tracing = Obs.enabled () in
    let first = ref None and unfinished = latch 1 in
    grow helpers 1;
    submit helpers (fun () ->
        first := Some (attempt tracing f);
        count_down unfinished);
    let second = attempt tracing g in
    await unfinished;
    match (!first, second) with
    | None, _ -> invalid_arg "Pool.both: the helper's result was lost"
    | Some (Error (e, bt)), _ | _, Error (e, bt) ->
      Printexc.raise_with_backtrace e bt
    | Some (Ok (a, a_events)), Ok (b, b_events) ->
      Obs.inject a_events;
      Obs.inject b_events;
      (a, b)
  end
