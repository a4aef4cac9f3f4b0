(* The traced run's spans: recorded by the benchmark around each public
   call it makes into a layer, kept in memory, written out at exit.

   A span has a name, start and end, the span that caused it, and the
   operation it belongs to (one id per workload operation). Spans opened
   on pool worker domains nest under whatever that domain has open, so
   the per-domain stack lives in domain-local storage and the finished
   list behind a mutex. *)

type t = {
  id : int;
  parent : int;  (** 0 = none *)
  op : int;  (** operation id; 0 = outside any operation *)
  name : string;
  phase : string;  (** "main" (the traced operations) or "probe" *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let phase = ref "main"
let next_id = Atomic.make 1
let next_op = Atomic.make 1
let lock = Mutex.create ()
let finished : t list ref = ref []

(* (span id, operation id) of the innermost open span on this domain. *)
let stack : (int * int) list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let fresh_op () = Atomic.fetch_and_add next_op 1

let push name ~op f =
  let id = Atomic.fetch_and_add next_id 1 in
  let st = Domain.DLS.get stack in
  let parent, op =
    match st with
    | (p, pop) :: _ -> (p, if op = 0 then pop else op)
    | [] -> (0, op)
  in
  Domain.DLS.set stack ((id, op) :: st);
  let phase = !phase in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    Domain.DLS.set stack st;
    let s = { id; parent; op; name; phase; t0; t1 } in
    Mutex.lock lock;
    finished := s :: !finished;
    Mutex.unlock lock
  in
  Fun.protect ~finally:finish f

(* [record name f] runs [f] inside a span when tracing is on, and is
   just [f ()] otherwise. [~op:true] starts a new operation. *)
let record ?(op = false) name f =
  if not !enabled then f ()
  else push name ~op:(if op then fresh_op () else 0) f

let all () =
  Mutex.lock lock;
  let l = List.rev !finished in
  Mutex.unlock lock;
  l

(* Self time: duration minus the part covered by direct children. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      (s, Float.max 0.0 (s.t1 -. s.t0 -. c)))
    spans

(* Per name and phase: (calls, summed self seconds). *)
let by_name spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let k = (s.phase, s.name) in
      let n, tot = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (n + 1, tot +. self))
    (self_times spans);
  tbl

(* Chrome trace-event JSON, one complete event per span. *)
let write path spans =
  match spans with
  | [] -> ()
  | first :: _ ->
    let base = List.fold_left (fun m s -> Float.min m s.t0) first.t0 spans in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc "{\"traceEvents\": [\n";
        List.iteri
          (fun i s ->
            Printf.fprintf oc
              "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \
               \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": \
               %d, \"op\": %d, \"phase\": %s}}\n"
              (if i = 0 then "" else ",")
              (Bstat.json_string s.name) s.op
              ((s.t0 -. base) *. 1e6)
              ((s.t1 -. s.t0) *. 1e6)
              s.id s.parent s.op (Bstat.json_string s.phase))
          spans;
        output_string oc "]}\n")

(* A span whose interval was measured elsewhere (the serve client times
   round trips inside its event loop, not around a call). *)
let add ~name ~t0 ~t1 =
  if !enabled then begin
    let s =
      { id = Atomic.fetch_and_add next_id 1; parent = 0; op = fresh_op (); name;
        phase = !phase; t0; t1 }
    in
    Mutex.lock lock;
    finished := s :: !finished;
    Mutex.unlock lock
  end
