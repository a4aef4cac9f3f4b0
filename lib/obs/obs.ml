external now_ns : unit -> (int64[@unboxed])
  = "obs_monotonic_ns" "obs_monotonic_ns_unboxed"
[@@noalloc]

(* The whole library is behind this one flag: with tracing disabled every
   instrumentation point is a single load-and-branch, so the pipeline
   pays nothing (the bench asserts <2% end to end). The flag is an
   atomic, so pool workers that outlive a flip see the new value. *)
let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag
let set_enabled v = Atomic.set enabled_flag v

type span_frame = {
  sname : string;
  sbegin : int64;
  sstack : string list;  (* enclosing span names, outermost first *)
  mutable sargs : Event.args;
  mutable schild_ns : int64;  (* summed durations of direct children *)
}

type state = {
  mutable events : Event.t list;  (* newest first *)
  mutable ctx : string list;  (* innermost first *)
  mutable open_spans : span_frame list;  (* innermost first *)
}

let fresh_state () = { events = []; ctx = []; open_spans = [] }

(* Per-domain buffers: recording never contends across domains, and
   Par.Pool merges worker buffers back in input order at the barrier. *)
let key = Domain.DLS.new_key fresh_state

let dom_id () = (Domain.self () :> int)

let emit st payload =
  let ctx = match st.ctx with c :: _ -> c | [] -> "" in
  st.events <-
    { Event.ts_ns = now_ns (); dom = dom_id (); ctx; payload } :: st.events

let instant ?(args = []) name =
  if enabled () then
    let st = Domain.DLS.get key in
    emit st (Event.Instant { name; args })

let counter name delta =
  if enabled () then
    let st = Domain.DLS.get key in
    emit st (Event.Counter { name; delta })

let histogram name value =
  if enabled () then
    let st = Domain.DLS.get key in
    emit st (Event.Hist { name; value })

let gauge name value =
  if enabled () then
    let st = Domain.DLS.get key in
    emit st (Event.Gauge { name; value })

let decision d =
  if enabled () then
    let st = Domain.DLS.get key in
    emit st (Event.Decision d)

let span ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let st = Domain.DLS.get key in
    let stack = List.rev_map (fun fr -> fr.sname) st.open_spans in
    let frame =
      { sname = name; sbegin = now_ns (); sstack = stack; sargs = args;
        schild_ns = 0L }
    in
    st.open_spans <- frame :: st.open_spans;
    Fun.protect
      ~finally:(fun () ->
        (* Close the span even when [f] raises, so traces of failed runs
           still nest properly. *)
        let dur = Int64.sub (now_ns ()) frame.sbegin in
        (match st.open_spans with
        | top :: rest when top == frame ->
          st.open_spans <- rest;
          (* Charge the parent so its eventual self time excludes us. *)
          (match rest with
          | parent :: _ -> parent.schild_ns <- Int64.add parent.schild_ns dur
          | [] -> ())
        | _ -> ());
        let self = Int64.sub dur frame.schild_ns in
        emit st
          (Event.Span
             {
               name = frame.sname;
               begin_ns = frame.sbegin;
               dur_ns = dur;
               self_ns = (if Int64.compare self 0L < 0 then 0L else self);
               stack = frame.sstack;
               args = List.rev frame.sargs;
             }))
      f
  end

let add_span_arg k v =
  if enabled () then
    let st = Domain.DLS.get key in
    match st.open_spans with
    | frame :: _ -> frame.sargs <- (k, v) :: frame.sargs
    | [] -> emit st (Event.Instant { name = "arg"; args = [ (k, v) ] })

let current_ctx () =
  if not (enabled ()) then ""
  else
    match (Domain.DLS.get key).ctx with c :: _ -> c | [] -> ""

let with_ctx c f =
  if not (enabled ()) then f ()
  else begin
    let st = Domain.DLS.get key in
    st.ctx <- c :: st.ctx;
    Fun.protect
      ~finally:(fun () ->
        match st.ctx with _ :: rest -> st.ctx <- rest | [] -> ())
      f
  end

let scoped f =
  if not (enabled ()) then (f (), [])
  else begin
    let st = Domain.DLS.get key in
    let saved = st.events in
    st.events <- [];
    match f () with
    | v ->
      let captured = st.events in
      st.events <- saved;
      (v, List.rev captured)
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      st.events <- saved;
      Printexc.raise_with_backtrace e bt
  end

let inject events =
  if enabled () && events <> [] then begin
    let st = Domain.DLS.get key in
    st.events <- List.rev_append events st.events
  end

let reset () =
  let st = Domain.DLS.get key in
  st.events <- [];
  st.ctx <- [];
  st.open_spans <- []

let drain () =
  let st = Domain.DLS.get key in
  let evs = List.rev st.events in
  st.events <- [];
  evs

let collect f =
  let was = enabled () in
  set_enabled true;
  let st = Domain.DLS.get key in
  let saved = st.events in
  st.events <- [];
  Fun.protect
    ~finally:(fun () ->
      st.events <- saved;
      set_enabled was)
    (fun () ->
      let v = f () in
      let evs = List.rev st.events in
      (v, evs))
