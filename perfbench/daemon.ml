(* A [memoria serve] daemon on a Unix socket, and a closed-loop client
   for it. Readiness is a connect retried at 1 ms granularity, not a
   coarse sleep loop. *)

type t = {
  pid : int;
  sock : string;
  dir : string;
  store : string;
  metrics : string option;  (** where the daemon writes its counters when it stops *)
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The daemon inherits no MEMORIA_* setting but the scratch store. *)
let env ~store =
  Array.of_list
    (("MEMORIA_STORE=" ^ store)
    :: List.filter
         (fun kv -> not (String.starts_with ~prefix:"MEMORIA_" kv))
         (Array.to_list (Unix.environment ())))

let connect_once sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
    Unix.close fd;
    None

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let stop_pid pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    if exited pid then ()
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    end
    else begin
      Unix.sleepf 0.001;
      wait ()
    end
  in
  wait ()

(* Start a daemon with a fresh scratch store under [dir]; returns once
   it accepts connections. With [~metrics:true] the daemon records its
   own counters (which turns the program's recording on) and writes them
   when it stops. *)
let start ~memoria ~dir ~jobs ?(metrics = false) () =
  rm_rf dir;
  mkdir_p dir;
  let store = Filename.concat dir "store" in
  let sock = Filename.concat dir "s.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let metrics = if metrics then Some (Filename.concat dir "metrics.json") else None in
  let args =
    [ memoria; "serve"; "--socket"; sock; "--jobs"; string_of_int jobs ]
    @ match metrics with None -> [] | Some m -> [ "--metrics"; m ]
  in
  let pid =
    Unix.create_process_env memoria (Array.of_list args) (env ~store) Unix.stdin
      log log
  in
  Unix.close log;
  let t = { pid; sock; dir; store; metrics } in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec ready () =
    match connect_once sock with
    | Some fd -> Unix.close fd
    | None ->
      if exited pid then failwith "memoria serve exited during start-up"
      else if Unix.gettimeofday () > deadline then begin
        stop_pid pid;
        failwith "memoria serve did not accept connections within 30 s"
      end
      else begin
        Unix.sleepf 0.001;
        ready ()
      end
  in
  ready ();
  t

let peak_rss_mb t = Bstat.peak_rss_mb (string_of_int t.pid)
let stop t = stop_pid t.pid
let remove t = rm_rf t.dir

(* A counter of a stopped daemon started with [~metrics:true]; 0 when
   the daemon never counted it. *)
let counter t name =
  let path =
    match t.metrics with
    | Some p -> p
    | None -> invalid_arg "Daemon.counter: started without metrics"
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let module J = Locality_telemetry.Jsonin in
  match Option.bind (J.parse_opt text) (J.member "counters") with
  | None -> failwith (path ^ ": no counters")
  | Some c -> Option.value ~default:0 (Option.bind (J.member name c) J.to_int_opt)

(* ------------------------------------------------------------ client --- *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
  mutable pending : (int * float) option;  (** request slot, send time *)
}

let connect t =
  match connect_once t.sock with
  | Some fd -> { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536; pending = None }
  | None -> failwith "cannot connect to memoria serve"

let close c = Unix.close c.fd

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  go 0

(* Read what is available; the completed line, if any. *)
let pump c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "memoria serve closed a connection";
  Buffer.add_subbytes c.buf c.chunk 0 n;
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.sub s 0 i)

(* Block until the connection's next reply line is in. *)
let rec await c = match pump c with Some r -> r | None -> await c

let ask c line =
  send c line;
  await c

(* Closed loop: each connection sends its next request only when the
   previous reply is in. [next ()] yields (slot, line); once [more ()]
   turns false no request is issued and what is in flight drains.
   [on_reply slot reply latency_s] sees every reply. *)
let closed_loop conns ~more ~next ~on_reply =
  let issue c =
    let slot, line = next () in
    c.pending <- Some (slot, Unix.gettimeofday ());
    send c line
  in
  List.iter issue conns;
  let rec loop () =
    let busy = List.filter (fun c -> c.pending <> None) conns in
    if busy <> [] then begin
      let ready, _, _ =
        try Unix.select (List.map (fun c -> c.fd) busy) [] [] 1.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          if List.mem c.fd ready then
            match pump c with
            | None -> ()
            | Some reply ->
              let t1 = Unix.gettimeofday () in
              (match c.pending with
              | Some (slot, t0) -> on_reply slot reply (t1 -. t0)
              | None -> ());
              c.pending <- None;
              if more () then issue c)
        busy;
      loop ()
    end
  in
  loop ()
