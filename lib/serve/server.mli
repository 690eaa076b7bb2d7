(** The serve daemon: validate once, plan once, run many.

    One Unix-domain socket, one accept thread, one connection thread per
    client, and a single executor thread that owns all SDFG execution —
    executor and connection threads are [Thread.t]s on the main domain,
    so the compiled engine's domain pool (which only the main domain may
    drive) stays usable for parallel maps.

    Admission control: run requests enter a bounded FIFO queue; when the
    queue is full the request is shed immediately with
    [Resp_error { shed = true }].  Requests for the same plan-cache key
    are batched — the executor resolves the instance once and runs the
    whole batch against it before touching the next key.

    Streaming sessions ([stream_open]): one per connection; the reader
    thread feeds pushed chunks through a bounded {!Interp.Stream}
    channel into the executor's {!Interp.Exec.Instance.run_streaming}
    source, output chunks flow back as data frames mid-run, and the
    session occupies the executor until the client closes the stream or
    disconnects, or the daemon stops.
    Backpressure is end to end: full in-graph channel → blocked worker →
    full session channel → reader stops draining the socket → client's
    push blocks. *)

type t

val start :
  ?capacity:int ->
  ?cache_dir:string ->
  ?max_queue:int ->
  ?programs:(string * (unit -> Sdfg_ir.Defs.sdfg)) list ->
  ?log:(string -> unit) ->
  socket:string ->
  unit ->
  t
(** Bind [socket] (an existing file at that path is replaced) and start
    serving.  Must be called from the main domain.
    [capacity] bounds the plan cache (default 32); with [cache_dir] the
    cache persists across restarts.  [max_queue] bounds the run queue
    (default 64).  [programs] registers named graph builders addressable
    as [Prog_name].  [log] receives one line per notable event. *)

val cache : t -> Cache.t
val metrics : t -> Metrics.t
val socket_path : t -> string

val stop : t -> unit
(** Ask the daemon to wind down: stop accepting, end the input of the
    session the executor is serving (the query completes over the
    chunks it has received), fail queued requests and sessions with
    "server shutting down", release the socket.  Idempotent. *)

val wait : t -> unit
(** Block until the accept and executor threads have exited (after
    {!stop}, or a client's [shutdown] request). *)
