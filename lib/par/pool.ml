(* A small fixed-size domain pool for embarrassingly parallel work.

   Work items are claimed by index from an atomic counter, and results
   land in a slot array, so output order always matches input order no
   matter which domain ran which item. With [jobs = 1] (or inside a
   worker of another pool) no domain is spawned and the map degenerates
   to the plain sequential loop, which is also the determinism baseline
   the test suite compares against. *)

(* Extra domains on an oversubscribed machine only add minor-GC
   synchronisation stalls, so the default stays within the core count. *)
let default_jobs () = min 8 (max 1 (Domain.recommended_domain_count ()))

(* Workers flag themselves so a nested [map] (e.g. Table2.compute inside
   a parallelized bench experiment) runs sequentially instead of
   multiplying domains. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

module Obs = Locality_obs.Obs

let map ?jobs f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let jobs = min jobs n in
  if jobs <= 1 || n <= 1 || Domain.DLS.get in_worker then
    Array.to_list (Array.map f items)
  else begin
    let results = Array.make n None in
    (* When tracing is on, each item's events are captured on the worker
       and re-injected into the caller's buffer in input order at the
       barrier, so the merged stream is independent of the pool size
       (the sequential path above records directly in the same order). *)
    let tracing = Obs.enabled () in
    let item_events = if tracing then Array.make n [] else [||] in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let work () =
      Domain.DLS.set in_worker true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set in_worker false)
        (fun () ->
          let continue = ref true in
          while !continue do
            let i = Atomic.fetch_and_add next 1 in
            if i >= n || Atomic.get failure <> None then continue := false
            else
              let run () =
                if tracing then begin
                  let v, evs = Obs.scoped (fun () -> f items.(i)) in
                  item_events.(i) <- evs;
                  v
                end
                else f items.(i)
              in
              match run () with
              | v -> results.(i) <- Some v
              | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                ignore (Atomic.compare_and_set failure None (Some (e, bt)))
          done)
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn work) in
    work ();
    Array.iter Domain.join domains;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    if tracing then Array.iter Obs.inject item_events;
    Array.to_list (Array.map (function Some v -> v | None -> assert false) results)
  end

(* ------------------------------------------------ persistent pool --- *)

(* A long-lived variant for services: worker domains block on a
   condition variable and drain a FIFO of thunks, so submission costs a
   lock round-trip instead of a domain spawn. Used by [memoria serve],
   whose requests arrive one at a time rather than as a batch. *)

type pool = {
  p_jobs : int;
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

let create ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let p =
    {
      p_jobs = jobs;
      p_lock = Mutex.create ();
      p_nonempty = Condition.create ();
      p_queue = Queue.create ();
      p_stop = false;
      p_domains = [];
    }
  in
  p.p_domains <- List.init jobs (fun _ -> Domain.spawn (worker p));
  p

let pool_jobs p = p.p_jobs

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
