(* The analysis daemon — see serve.mli for the contract.

   Threading model: ONE event-loop thread (the caller of [run]) owns
   every file descriptor for reading, the connection table, the waiter
   deadline list and all Obs emission; worker domains only compute
   [Driver.run] and write response lines (each connection has a write
   mutex, so a worker's reply and a main-loop timeout line never
   interleave). Everything the two sides share — the in-flight job
   table, waiter [answered] flags, connection refcounts, the completion
   queue — is touched only under the single server mutex, in short
   critical sections with no I/O inside. *)

module Driver = Locality_driver.Driver
module Request = Locality_driver.Request
module Response = Locality_driver.Response
module Pool = Locality_par.Pool
module Obs = Locality_obs.Obs
module Event = Locality_obs.Event
module Settings = Locality_driver.Settings
module Tune = Locality_stats.Tune

type listen = Socket of string | Stdio

type options = {
  jobs : int option;
  max_queue : int;
  default_timeout_ms : int;
  max_conns : int;
  write_timeout_s : float;
}

let default_options =
  {
    jobs = None;
    max_queue = 64;
    default_timeout_ms = 0;
    max_conns = 512;
    write_timeout_s = 10.;
  }

let retry_after_ms = 100
let max_line_bytes = 8 * 1024 * 1024

type conn = {
  c_rfd : Unix.file_descr;
  c_wfd : Unix.file_descr;  (* = c_rfd for sockets, stdout for Stdio *)
  c_wlock : Mutex.t;
  c_buf : Buffer.t;  (* bytes read but not yet terminated by '\n' *)
  c_stdio : bool;  (* never close the process's own std fds *)
  c_wtimeout : float;  (* write-stall budget per line, seconds *)
  mutable c_eof : bool;
  mutable c_wfail : bool;
      (* write side dead (error or stall); later replies are dropped
         instead of waiting out another stall. *)
  mutable c_closed : bool;
  mutable c_refs : int;
      (* unanswered+unwritten waiters pointing here; the reaper only
         closes an eof'd connection once this is back to zero, so a
         worker mid-write can never race a close. *)
}

type waiter = {
  w_id : string;
  w_emit : bool;
  w_conn : conn;
  w_deadline : float;  (* absolute; infinity = none *)
  w_timeout_ms : int;  (* echoed in the typed timeout response *)
  mutable w_answered : bool;  (* under the server lock *)
}

type job = {
  j_fp : string;
  j_cfg : Driver.config;
  j_tune : Request.tune_spec option;
      (* a tune request runs the search instead of one measurement;
         the fingerprint includes the tune object, so tune and plain
         queries over the same config never share a job *)
  mutable j_waiters : waiter list;
}

type completion = Done of bool * Event.t list | Discarded

type t = {
  listen : listen;
  opts : options;
  settings : Settings.t;
  lock : Mutex.t;
  inflight : (string, job) Hashtbl.t;  (* fingerprint -> job *)
  mutable n_inflight : int;
  completions : completion Queue.t;  (* worker -> main loop, under lock *)
  stop_flag : bool Atomic.t;
  mutable wake_w : Unix.file_descr option;  (* set while running *)
  mutable running : bool;
}

let create ?(options = default_options) ?(settings = Settings.default ())
    listen =
  if options.max_queue < 1 then invalid_arg "Serve.create: max_queue < 1";
  if options.max_conns < 1 then invalid_arg "Serve.create: max_conns < 1";
  {
    listen;
    opts = options;
    settings;
    lock = Mutex.create ();
    inflight = Hashtbl.create 16;
    n_inflight = 0;
    completions = Queue.create ();
    stop_flag = Atomic.make false;
    wake_w = None;
    running = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Safe from signal handlers: one atomic store and one nonblocking
   write; EAGAIN just means the loop is already due to wake. *)
let wake t =
  match t.wake_w with
  | Some fd -> ( try ignore (Unix.write fd (Bytes.of_string "x") 0 1) with _ -> ())
  | None -> ()

let stop t =
  Atomic.set t.stop_flag true;
  wake t

(* A worker's last step: the main loop has something to do with a
   finished job only when it is draining (it may now be idle) or
   recording (the job's events and counters wait in [completions]).
   Otherwise the completion waits for the loop's next wake-up, and a
   request costs no pipe write, [select] return and read. Called after
   the in-flight decrement: a [stop] that this read misses sets the flag
   after it, and its own wake finds the loop idle. *)
let job_done t = if Atomic.get t.stop_flag || Obs.enabled () then wake t

let install_signal_handlers t =
  let h = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h

(* Writes happen from worker domains and the main loop alike; the
   per-connection mutex keeps lines whole, the closed flag covers the
   reaper, and any I/O error just marks the peer gone (SIGPIPE is
   ignored while serving). Socket fds are nonblocking: when the peer
   stops reading and its buffer fills, the writer waits in [select] up
   to the connection's stall budget and then declares the write side
   dead — a stalled client can delay one reply, never wedge a worker,
   the event loop, or the shutdown drain. *)
let write_line conn s =
  Mutex.lock conn.c_wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.c_wlock)
    (fun () ->
      if not (conn.c_closed || conn.c_wfail) then begin
        let b = Bytes.of_string (s ^ "\n") in
        let n = Bytes.length b in
        let deadline = Unix.gettimeofday () +. conn.c_wtimeout in
        let fail () =
          conn.c_wfail <- true;
          conn.c_eof <- true
        in
        let sent = ref 0 in
        try
          while !sent < n && not conn.c_wfail do
            match Unix.write conn.c_wfd b !sent (n - !sent) with
            | k -> sent := !sent + k
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
              let left = deadline -. Unix.gettimeofday () in
              if left <= 0. then fail ()
              else (
                try ignore (Unix.select [] [ conn.c_wfd ] [] left)
                with Unix.Unix_error (EINTR, _, _) -> ())
            | exception Unix.Unix_error (EINTR, _, _) -> ()
          done
        with _ -> fail ()
      end)

let respond conn resp = write_line conn (Response.to_json resp)

(* ---- the one request dispatcher ------------------------------------- *)

type answer =
  | Ran of (Driver.result, string) result
  | Tuned of (string, string) result

(* A tune object turns a request into a tuning query. Anything a stage
   raises becomes an error answer, so no request can take down a
   worker, and [memoria sim --request] prints what the daemon sends. *)
let answer ?jobs tune cfg =
  try
    match tune with
    | None -> Ran (Driver.run cfg)
    | Some ts ->
      Tuned
        (Result.map Tune.to_json
           (Tune.run_config ~spec:(Tune.spec_of_request ts) ?jobs cfg))
  with e -> Ran (Error ("serve: " ^ Printexc.to_string e))

let answered_ok = function Ran r -> Result.is_ok r | Tuned r -> Result.is_ok r

let reply ~id ~emit_program = function
  | Ran r -> Response.of_run ~id ~emit_program r
  | Tuned r -> Response.of_tune ~id r

(* ---- worker side ---------------------------------------------------- *)

let process t job =
  (* If every waiter was already answered (all timed out while we were
     queued), skip the compute. The check and the table removal are one
     critical section: a client attaching to this fingerprint either
     sees the job still present (and its fresh waiter forces the
     compute) or finds it gone and starts a new one — never neither. *)
  let skip =
    locked t (fun () ->
        let all = List.for_all (fun w -> w.w_answered) job.j_waiters in
        if all then begin
          Hashtbl.remove t.inflight job.j_fp;
          t.n_inflight <- t.n_inflight - 1
        end;
        all)
  in
  if skip then begin
    locked t (fun () -> Queue.push Discarded t.completions);
    job_done t
  end
  else begin
    let result, events =
      Obs.scoped (fun () ->
          Obs.span "serve.request" (fun () -> answer job.j_tune job.j_cfg))
    in
    (* Claim before writing: a waiter is answered by exactly one side,
       us or the deadline scan. Whoever flips [w_answered] first under
       the lock owns the reply. *)
    let claimed =
      locked t (fun () ->
          Hashtbl.remove t.inflight job.j_fp;
          let ws = List.filter (fun w -> not w.w_answered) job.j_waiters in
          List.iter (fun w -> w.w_answered <- true) ws;
          ws)
    in
    List.iter
      (fun w ->
        respond w.w_conn (reply ~id:w.w_id ~emit_program:w.w_emit result))
      claimed;
    (* Only now release the refs and the in-flight slot: the main loop
       treats [n_inflight = 0] as "all replies written" when draining,
       and the reaper trusts a nonzero refcount to mean a write may
       still be in progress. *)
    locked t (fun () ->
        List.iter (fun w -> w.w_conn.c_refs <- w.w_conn.c_refs - 1) claimed;
        t.n_inflight <- t.n_inflight - 1;
        Queue.push (Done (answered_ok result, events)) t.completions);
    job_done t
  end

(* ---- main loop ------------------------------------------------------ *)

type loop = {
  t : t;
  pool : Pool.pool;
  wake_r : Unix.file_descr;
  listener : Unix.file_descr option;
  mutable conns : conn list;
  mutable waiters : waiter list;  (* deadline-carrying, main loop only *)
  mutable listener_open : bool;
}

let now () = Unix.gettimeofday ()

let deadline_of t (req : Request.t) =
  match req.Request.timeout_ms with
  | Some ms -> Some ms
  | None ->
    if t.opts.default_timeout_ms > 0 then Some t.opts.default_timeout_ms
    else None

let handle_line l conn line =
  let t = l.t in
  Obs.counter "serve.requests" 1;
    match Request.of_json line with
    | Error msg ->
      Obs.counter "serve.malformed" 1;
      respond conn (Response.Failed { id = ""; message = msg })
    | Ok req -> (
      match Request.to_config ~settings:t.settings req with
      | Error msg ->
        Obs.counter "serve.invalid" 1;
        respond conn (Response.Failed { id = req.Request.id; message = msg })
      | Ok cfg -> (
        match deadline_of t req with
        | Some 0 ->
          (* The deterministic probe: a zero budget is already spent. *)
          Obs.counter "serve.timeouts" 1;
          respond conn
            (Response.Timeout { id = req.Request.id; timeout_ms = 0 })
        | deadline_ms ->
          let deadline, timeout_ms =
            match deadline_ms with
            | Some ms -> (now () +. (float_of_int ms /. 1000.), ms)
            | None -> (infinity, 0)
          in
          let mk_waiter () =
            {
              w_id = req.Request.id;
              w_emit = req.Request.emit_program;
              w_conn = conn;
              w_deadline = deadline;
              w_timeout_ms = timeout_ms;
              w_answered = false;
            }
          in
          let fp = Request.fingerprint req in
          let verdict =
            locked t (fun () ->
                match Hashtbl.find_opt t.inflight fp with
                | Some job ->
                  let w = mk_waiter () in
                  job.j_waiters <- w :: job.j_waiters;
                  conn.c_refs <- conn.c_refs + 1;
                  `Batched w
                | None when t.n_inflight >= t.opts.max_queue -> `Overloaded
                | None ->
                  let w = mk_waiter () in
                  let job =
                    { j_fp = fp; j_cfg = cfg; j_tune = req.Request.tune;
                      j_waiters = [ w ] }
                  in
                  Hashtbl.add t.inflight fp job;
                  t.n_inflight <- t.n_inflight + 1;
                  conn.c_refs <- conn.c_refs + 1;
                  `Submitted (w, job))
          in
          (match verdict with
          | `Batched w ->
            Obs.counter "serve.batched" 1;
            if w.w_deadline < infinity then l.waiters <- w :: l.waiters
          | `Overloaded ->
            Obs.counter "serve.overloaded" 1;
            respond conn
              (Response.Overloaded
                 { id = req.Request.id; retry_after_ms })
          | `Submitted (w, job) ->
            if w.w_deadline < infinity then l.waiters <- w :: l.waiters;
            Pool.submit l.pool (fun () -> process t job))))

(* Split off every complete line in one scan of the buffered bytes;
   whatever trails the last newline is re-buffered once at the end, so
   k pipelined lines arriving in one read cost O(bytes), not
   O(bytes * k). *)
let drain_buffer l conn =
  let s = Buffer.contents conn.c_buf in
  let len = String.length s in
  let start = ref 0 in
  let continue = ref true in
  while !continue do
    match String.index_from_opt s !start '\n' with
    | Some i ->
      let stop = if i > !start && s.[i - 1] = '\r' then i - 1 else i in
      let line = String.sub s !start (stop - !start) in
      start := i + 1;
      if String.trim line <> "" then handle_line l conn line
    | None -> continue := false
  done;
  if !start > 0 then begin
    Buffer.clear conn.c_buf;
    Buffer.add_substring conn.c_buf s !start (len - !start)
  end;
  if len - !start > max_line_bytes then begin
    Obs.counter "serve.malformed" 1;
    respond conn
      (Response.Failed { id = ""; message = "request: line too long" });
    conn.c_eof <- true;
    Buffer.clear conn.c_buf
  end

let read_conn l conn =
  let buf = Bytes.create 65536 in
  match Unix.read conn.c_rfd buf 0 (Bytes.length buf) with
  | 0 ->
    conn.c_eof <- true;
    (* Stdin closing is the stdio transport's shutdown signal. *)
    if conn.c_stdio then stop l.t
  | n ->
    Buffer.add_subbytes conn.c_buf buf 0 n;
    drain_buffer l conn
  | exception Unix.Unix_error ((EAGAIN | EINTR), _, _) -> ()
  | exception _ -> conn.c_eof <- true

let accept_conn l fd =
  match Unix.accept ~cloexec:true fd with
  | cfd, _ ->
    if List.length l.conns >= l.t.opts.max_conns then begin
      (* [Unix.select] misbehaves once fd numbers reach FD_SETSIZE;
         shed the connection with the typed envelope instead of letting
         the fd table grow into that range. *)
      Obs.counter "serve.conn_rejected" 1;
      let line =
        Response.to_json
          (Response.Overloaded
             { id = ""; retry_after_ms })
        ^ "\n"
      in
      (try
         Unix.set_nonblock cfd;
         ignore (Unix.write cfd (Bytes.of_string line) 0 (String.length line))
       with _ -> ());
      try Unix.close cfd with _ -> ()
    end
    else begin
      Obs.counter "serve.connections" 1;
      (try Unix.set_nonblock cfd with _ -> ());
      l.conns <-
        {
          c_rfd = cfd;
          c_wfd = cfd;
          c_wlock = Mutex.create ();
          c_buf = Buffer.create 256;
          c_stdio = false;
          c_wtimeout = l.t.opts.write_timeout_s;
          c_eof = false;
          c_wfail = false;
          c_closed = false;
          c_refs = 0;
        }
        :: l.conns
    end
  | exception Unix.Unix_error ((EAGAIN | EINTR), _, _) -> ()
  | exception _ -> ()

let scan_deadlines l t_now =
  let t = l.t in
  if l.waiters <> [] then begin
    let expired =
      locked t (fun () ->
          let due, keep =
            List.partition
              (fun w -> (not w.w_answered) && w.w_deadline <= t_now)
              l.waiters
          in
          List.iter (fun w -> w.w_answered <- true) due;
          l.waiters <- List.filter (fun w -> not w.w_answered) keep;
          due)
    in
    List.iter
      (fun w ->
        Obs.counter "serve.timeouts" 1;
        respond w.w_conn
          (Response.Timeout { id = w.w_id; timeout_ms = w.w_timeout_ms }))
      expired;
    if expired <> [] then
      locked t (fun () ->
          List.iter
            (fun w -> w.w_conn.c_refs <- w.w_conn.c_refs - 1)
            expired)
  end

let drain_completions t =
  let pending =
    locked t (fun () ->
        let q = Queue.create () in
        Queue.transfer t.completions q;
        q)
  in
  Queue.iter
    (function
      | Done (ok, events) ->
        Obs.inject events;
        Obs.counter (if ok then "serve.ok" else "serve.errors") 1
      | Discarded -> Obs.counter "serve.discarded" 1)
    pending

let close_conn conn =
  Mutex.lock conn.c_wlock;
  conn.c_closed <- true;
  Mutex.unlock conn.c_wlock;
  if not conn.c_stdio then begin
    try Unix.close conn.c_rfd with _ -> ()
  end

(* Close eof'd connections nobody is still answering. Refcounts are
   read under the lock; only the main loop ever closes, so a worker
   that still holds a ref can write in peace. *)
let reap_conns l =
  let t = l.t in
  let reapable =
    locked t (fun () ->
        List.filter (fun c -> c.c_eof && (not c.c_closed) && c.c_refs = 0) l.conns)
  in
  List.iter close_conn reapable;
  l.conns <- List.filter (fun c -> not c.c_closed) l.conns

let unlink_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> ( try Unix.unlink path with _ -> ())
  | _ | (exception _) -> ()

let close_listener l =
  if l.listener_open then begin
    l.listener_open <- false;
    (match l.listener with
    | Some fd -> ( try Unix.close fd with _ -> ())
    | None -> ());
    match l.t.listen with Socket path -> unlink_socket path | Stdio -> ()
  end

let run t =
  if t.running then invalid_arg "Serve.run: already running";
  t.running <- true;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_w;
  t.wake_w <- Some wake_w;
  let listener, conns =
    match t.listen with
    | Socket path ->
      unlink_socket path;
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 64
       with e ->
         (try Unix.close fd with _ -> ());
         t.wake_w <- None;
         (try Unix.close wake_r with _ -> ());
         (try Unix.close wake_w with _ -> ());
         t.running <- false;
         raise e);
      (Some fd, [])
    | Stdio ->
      (* The process's own std fds stay blocking — making stdout
         nonblocking would leak into everything else the process
         prints. One piped client is the transport's contract; the
         write deadline applies to socket connections. *)
      ( None,
        [
          {
            c_rfd = Unix.stdin;
            c_wfd = Unix.stdout;
            c_wlock = Mutex.create ();
            c_buf = Buffer.create 256;
            c_stdio = true;
            c_wtimeout = t.opts.write_timeout_s;
            c_eof = false;
            c_wfail = false;
            c_closed = false;
            c_refs = 0;
          };
        ] )
  in
  let pool = Pool.create ?jobs:t.opts.jobs () in
  Obs.gauge "serve.jobs" (float_of_int (Pool.pool_jobs pool));
  let l =
    {
      t;
      pool;
      wake_r;
      listener;
      conns;
      waiters = [];
      listener_open = Option.is_some listener;
    }
  in
  let finished = ref false in
  while not !finished do
    let t_now = now () in
    let draining = Atomic.get t.stop_flag in
    if draining then close_listener l;
    scan_deadlines l t_now;
    drain_completions t;
    reap_conns l;
    let idle = locked t (fun () -> t.n_inflight = 0) in
    if draining && idle then finished := true
    else begin
      let read_fds =
        wake_r
        :: (if draining then []
            else
              (if l.listener_open then Option.to_list listener else [])
              @ List.filter_map
                  (fun c ->
                    if c.c_eof || c.c_closed then None else Some c.c_rfd)
                  l.conns)
      in
      let timeout =
        let until =
          List.fold_left
            (fun acc w -> if w.w_answered then acc else min acc w.w_deadline)
            infinity l.waiters
        in
        if until = infinity then 1.0
        else Float.max 0. (Float.min 1.0 (until -. t_now))
      in
      match Unix.select read_fds [] [] timeout with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | ready, _, _ ->
        if List.mem wake_r ready then begin
          let b = Bytes.create 256 in
          try ignore (Unix.read wake_r b 0 256) with _ -> ()
        end;
        (match listener with
        | Some fd when l.listener_open && List.mem fd ready -> accept_conn l fd
        | _ -> ());
        List.iter
          (fun c ->
            if (not c.c_eof) && (not c.c_closed) && List.mem c.c_rfd ready
            then read_conn l c)
          l.conns
    end
  done;
  (* Drained: every job finished and wrote its replies. Tear down. *)
  Pool.shutdown pool;
  drain_completions t;
  close_listener l;
  List.iter close_conn l.conns;
  l.conns <- [];
  t.wake_w <- None;
  (try Unix.close wake_r with _ -> ());
  (try Unix.close wake_w with _ -> ());
  Obs.instant "serve.drained";
  t.running <- false
