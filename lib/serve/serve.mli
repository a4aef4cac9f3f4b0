(** Memoria-as-a-service: the long-running analysis daemon behind
    [memoria serve].

    The server speaks line-delimited JSON — one {!Locality_driver.Request}
    per line in, one {!Locality_driver.Response} per line out — over a
    Unix-domain socket ({!Socket}) or the process's stdin/stdout
    ({!Stdio}, for piping). Responses carry the request's [id] and are
    not ordered across requests; clients multiplexing one connection
    match on the id. The wire contract is documented in
    [doc/PROTOCOL.md].

    One event-loop thread owns all I/O (accept, line framing, deadline
    bookkeeping); compute is dispatched to a persistent
    {!Locality_par.Pool.pool} of worker domains, so concurrent requests
    simulate in parallel while sharing the process-wide warm state: the
    store the server was started with (warm requests are answered from
    it without a walk) and one resolved configuration.

    Real-service behaviours, all observable as typed responses and
    [serve.*] counters:

    - {b Timeouts}: a request's [timeout_ms] (or the server default)
      starts a deadline at arrival; when it passes before a result is
      ready — queued or mid-compute — the client gets the typed
      ["timeout"] response and the eventual result is discarded.
      [timeout_ms = 0] expires immediately (the deterministic probe).
    - {b Backpressure}: at most [max_queue] requests may be in flight;
      beyond that the client immediately gets ["overloaded"] with a
      [retry_after_ms = 100] hint rather than unbounded queueing.
    - {b Batching}: requests with equal
      {!Locality_driver.Request.fingerprint}s in flight at once are
      computed once and answered to every waiter.
    - {b Graceful drain}: {!stop} (wired to SIGINT/SIGTERM by
      {!install_signal_handlers}) stops accepting work, answers
      everything in flight, then returns from {!run}.
    - {b Maintenance}: the daemon never collects its store; run
      [memoria store gc --min-age] beside it, which leaves entries
      younger than the minimum age alone so an object just published
      by a request is never evicted.

    A request line longer than 8 MiB is answered with an error and its
    connection closed. *)

type listen =
  | Socket of string  (** Unix-domain socket path (created, later unlinked). *)
  | Stdio  (** Serve stdin→stdout; EOF on stdin drains and returns. *)

type options = {
  jobs : int option;
      (** Worker domains; [None] = {!Locality_par.Pool.default_jobs}. *)
  max_queue : int;  (** In-flight bound (queued + running). *)
  default_timeout_ms : int;
      (** Deadline for requests that carry none; [0] = unbounded. *)
  max_conns : int;
      (** Open-connection cap (kept below [select]'s FD_SETSIZE); an
          accept beyond it is answered with the typed ["overloaded"]
          envelope and closed. *)
  write_timeout_s : float;
      (** Per-reply write-stall budget on socket connections: a client
          that stops reading gets this long before its write side is
          declared dead and its replies dropped, so a stalled peer can
          never wedge a worker, the event loop, or the drain. *)
}

val default_options : options
(** Default jobs, [max_queue = 64], no default timeout, 512
    connections, 10 s write-stall budget. *)

(** {1 Answering one request} *)

type answer
(** What a request computed, before it is addressed to a client. *)

val answer :
  ?jobs:int ->
  Locality_driver.Request.tune_spec option ->
  Locality_driver.Driver.config ->
  answer
(** The one dispatcher, shared by the daemon's workers and
    [memoria sim --request]: a tune spec runs
    {!Locality_stats.Tune.run_config} on [jobs] domains, otherwise
    {!Locality_driver.Driver.run}. An exception from either becomes the
    error ["serve: <exception>"]. *)

val reply :
  id:string -> emit_program:bool -> answer -> Locality_driver.Response.t
(** The answer addressed to one client's request [id]. *)

(** {1 The daemon} *)

type t

val create :
  ?options:options -> ?settings:Locality_driver.Settings.t -> listen -> t
(** Build a server. [settings] (default
    {!Locality_driver.Settings.default}) resolves each request's absent
    replay mode and sampling rate and its ["ambient"] store. Nothing is
    bound or spawned until {!run}. *)

val run : t -> unit
(** Bind, spawn the worker pool, and serve until {!stop} (or EOF under
    {!Stdio}); drains in-flight work before returning. The calling
    thread becomes the event loop. @raise Unix.Unix_error when the
    socket cannot be bound. *)

val stop : t -> unit
(** Test oracle: the shutdown {!install_signal_handlers} triggers; tests
    call it to end a server they run on a thread.

    Ask a running server to drain and return; safe from any thread or
    signal handler, idempotent. *)

val install_signal_handlers : t -> unit
(** SIGINT/SIGTERM → {!stop}; SIGPIPE ignored (a client hanging up
    mid-response must not kill the server). Call before {!run}. *)
