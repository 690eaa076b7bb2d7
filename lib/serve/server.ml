(* The serve daemon: validate once, plan once, run many.

   Thread layout — everything is a [Thread.t], never a [Domain.t]:
   OCaml threads stay on the domain that created them, and the compiled
   engine's domain pool ({!Interp.Pool}) may only be driven from the
   main domain.  [start] (called from the main domain) creates the
   accept thread and the single executor thread; the accept thread
   creates one connection thread per client.  All of them therefore
   live on the main domain, and the executor can run parallel maps.

   Connection threads do the cheap work — framing, JSON, parsing the
   program to its canonical form and cache key — and answer [ping] /
   [stats] / [shutdown] inline.  Run requests pass through admission
   control into a bounded FIFO; when the queue is full they are shed
   immediately ([Resp_error { shed = true }]) rather than queued into
   unbounded latency.  The executor pops the oldest job plus every
   queued job with the same cache key (a batch): the instance is
   resolved once and the whole batch runs against it back-to-back,
   so a burst of identical-shape requests pays one cache probe.

   A streaming session is a job with a stream part: the connection's
   reader pushes chunks into the session's bounded {!Interp.Stream}
   channel, and while the executor serves the session its source pops
   them.  Closing the channel ends the query's input; the client's
   [stream_close], a vanished client, the end of the job and [stop] all
   close it.  So at shutdown the session being served completes over
   the chunks it has received, and queued sessions are refused like
   queued runs. *)

module Json = Obs.Json
module Exec = Interp.Exec
module Tensor = Interp.Tensor
module Defs = Sdfg_ir.Defs
module Serialize = Sdfg_ir.Serialize
module Expr = Symbolic.Expr

(* A streaming session's chunks travel through a bounded channel: when
   the executor falls behind, the reader blocks on the full channel and
   stops draining the socket, which is the wire half of the backpressure
   chain. *)
type stream_session = {
  ss_chunks : Tasklang.Types.value array Interp.Stream.t;
  ss_finished : bool Atomic.t;  (* the job has sent its final response *)
}

(* Chunks buffered per session before the reader thread blocks. *)
let max_pending_chunks = 256

type job = {
  jb_key : string;
  jb_text : string option;  (* canonical serialized graph; None = Prog_key *)
  jb_run : Protocol.run_request;
  jb_stream : (string * string option * stream_session) option;
      (* a session's input stream, output stream and channel *)
  jb_reply : Protocol.response -> unit;
  jb_enqueued : float;
}

type t = {
  srv_socket : string;
  srv_cache : Cache.t;
  srv_metrics : Metrics.t;
  srv_programs : (string * (unit -> Defs.sdfg)) list;
  srv_log : string -> unit;
  srv_max_queue : int;
  lock : Mutex.t;
  cond : Condition.t;
  mutable queue : job list;  (* FIFO, head oldest; bounded by max_queue *)
  mutable stopping : bool;
  mutable serving : stream_session option;
      (* the executor's latest session, which [stop] closes *)
  mutable threads : Thread.t list;  (* accept + executor *)
}

let cache srv = srv.srv_cache
let metrics srv = srv.srv_metrics
let socket_path srv = srv.srv_socket

let stop srv =
  Mutex.lock srv.lock;
  if not srv.stopping then begin
    srv.stopping <- true;
    srv.srv_log "stopping";
    Option.iter (fun s -> Interp.Stream.close s.ss_chunks) srv.serving;
    Condition.broadcast srv.cond
  end;
  Mutex.unlock srv.lock

(* --- executor ------------------------------------------------------------ *)

let exn_message = function
  | Exec.Runtime_error msg -> msg
  | Defs.Invalid_sdfg msg -> msg
  | Builder.Ndlang.Frontend_error msg -> msg
  | Failure msg -> msg
  | exn -> Printexc.to_string exn

(* Look the job's key up in the plan cache; on a miss, parse + validate
   + instantiate from the job's canonical text and publish the instance.
   [Cache.add] returns the winning instance, so a lost insertion race
   still leaves every caller sharing one instance (whose internal lock
   serializes runs). *)
let resolve srv job =
  match Cache.find srv.srv_cache job.jb_key with
  | Some inst -> Ok (inst, true)
  | None -> (
    match job.jb_text with
    | None ->
      Error
        (Fmt.str
           "unknown cache key %s (evicted or never seen: resend the program)"
           job.jb_key)
    | Some text -> (
      try
        let g = Serialize.of_string text in
        match Sdfg_ir.Validate.validate g with
        | Error errs ->
          Error
            (Fmt.str "invalid SDFG: %s"
               (String.concat "; "
                  (List.map
                     (fun (e : Sdfg_ir.Validate.error) -> e.e_msg)
                     errs)))
        | Ok () ->
          let inst =
            Exec.Instance.create ~config:job.jb_run.rq_config
              ~symbols:job.jb_run.rq_symbols g
          in
          Ok (Cache.add srv.srv_cache ~key:job.jb_key ~text inst, false)
      with exn -> Error (exn_message exn)))

(* The response's output set: every non-transient array container, the
   caller's tensor when supplied, a zero-initialized allocation at the
   instance's concrete shape otherwise.  Passing them all as [args]
   makes {!Exec.Instance.run} copy results back into exactly these
   tensors — the mutate-in-place contract, reproduced over the wire. *)
let materialize_outputs inst supplied =
  let symbols = Exec.Instance.symbols inst in
  List.filter_map
    (fun (name, d) ->
      match d with
      | Defs.Stream _ -> None
      | Defs.Array a when a.Defs.a_transient -> None
      | Defs.Array a -> (
        match List.assoc_opt name supplied with
        | Some t -> Some (name, t)
        | None ->
          let dims =
            List.map (fun e -> Expr.eval_list symbols e) a.Defs.a_shape
          in
          Some (name, Tensor.create a.Defs.a_dtype (Array.of_list dims))))
    (Sdfg_ir.Sdfg.descs (Exec.Instance.graph inst))

(* Whatever ends a streaming job — success, runtime error, drain at
   shutdown — must release a reader thread blocked on the chunk bound,
   or the connection wedges: closing the channel wakes it. *)
let mark_finished job =
  Option.iter
    (fun (_, _, s) ->
      Atomic.set s.ss_finished true;
      Interp.Stream.close s.ss_chunks)
    job.jb_stream

(* [result] already carries the success response kind (plain runs reply
   [Resp_run], streaming sessions [Resp_stream_done]). *)
let finish srv job ~batched (result : (Protocol.response, string) result) =
  let resp =
    match result with
    | Ok r -> r
    | Error err -> Protocol.Resp_error { err; shed = false }
  in
  mark_finished job;
  (* Record before replying: a client that sees its last response must
     find the full tally in a subsequent [stats] request. *)
  Metrics.record_request srv.srv_metrics
    ~ok:(match result with Ok _ -> true | Error _ -> false)
    ~batched
    ~latency_s:(Obs.Collect.now () -. job.jb_enqueued);
  try job.jb_reply resp with _ -> ()

(* Unknown argument names must error even when they are not output
   containers (e.g. a typo), so let Instance.run see the caller's args
   verbatim plus the materialized outputs. *)
let run_args inst args =
  let outputs = materialize_outputs inst args in
  let extra =
    List.filter (fun (n, _) -> not (List.mem_assoc n outputs)) args
  in
  (extra @ outputs, outputs)

let run_job srv job inst ~hit ~batched =
  let result =
    try
      let args, outputs = run_args inst job.jb_run.rq_args in
      let report =
        match job.jb_stream with
        | None -> Exec.Instance.run ~args inst
        | Some (input, output, s) ->
          (* The executor is occupied for the session's whole lifetime:
             a continuous query is a long-lived tenant, not a request.
             [stop] closes the channel of the session it serves, so a
             client holding its session open cannot keep the daemon up. *)
          Mutex.lock srv.lock;
          srv.serving <- Some s;
          if srv.stopping then Interp.Stream.close s.ss_chunks;
          Mutex.unlock srv.lock;
          let sink =
            Option.map
              (fun _ vs ->
                if Array.length vs > 0 then
                  try job.jb_reply (Protocol.Resp_stream_data vs) with _ -> ())
              output
          in
          Exec.Instance.run_streaming ~args ~input ?output ?sink
            ~source:(fun () -> Interp.Stream.pop s.ss_chunks)
            inst
      in
      let r =
        { Protocol.rs_key = job.jb_key; rs_hit = hit;
          rs_report = Obs.Report.to_json report; rs_outputs = outputs }
      in
      Ok
        (match job.jb_stream with
        | None -> Protocol.Resp_run r
        | Some _ -> Protocol.Resp_stream_done r)
    with exn -> Error (exn_message exn)
  in
  finish srv job ~batched result

let rec exec_loop srv =
  Mutex.lock srv.lock;
  while srv.queue = [] && not srv.stopping do
    Condition.wait srv.cond srv.lock
  done;
  let work =
    match srv.queue with
    | [] -> `Stop (* stopping with an empty queue *)
    | leader :: rest when srv.stopping ->
      srv.queue <- [];
      `Drain (leader :: rest)
    | leader :: rest ->
      (* Only plain runs batch: a streaming session occupies the
         executor open-endedly, so same-key runs behind it must wait
         their turn rather than ride along. *)
      let is_run j = Option.is_none j.jb_stream in
      let batch, other =
        if is_run leader then
          List.partition
            (fun j -> is_run j && String.equal j.jb_key leader.jb_key)
            rest
        else ([], rest)
      in
      srv.queue <- other;
      `Batch (leader, batch)
  in
  let depth = List.length srv.queue in
  Mutex.unlock srv.lock;
  Metrics.queue_changed srv.srv_metrics depth;
  match work with
  | `Stop -> ()
  | `Drain jobs ->
    List.iter
      (fun j -> finish srv j ~batched:false (Error "server shutting down"))
      jobs;
    exec_loop srv
  | `Batch (leader, followers) ->
    (* Same key, same program: resolve from the first job that carries
       its text, so a key-only leader whose entry was evicted does not
       fail followers that resent it. *)
    let source =
      Option.value ~default:leader
        (List.find_opt (fun j -> j.jb_text <> None) (leader :: followers))
    in
    (match resolve srv source with
    | Error e ->
      finish srv leader ~batched:false (Error e);
      List.iter (fun j -> finish srv j ~batched:true (Error e)) followers
    | Ok (inst, hit) ->
      run_job srv leader inst ~hit ~batched:false;
      (* Followers share the leader's freshly resolved instance: a hit
         by construction. *)
      List.iter (fun j -> run_job srv j inst ~hit:true ~batched:true) followers);
    exec_loop srv

(* --- connections --------------------------------------------------------- *)

(* Resolve the request's program to (cache key, canonical text).  Runs
   on the connection thread, which keeps malformed programs out of the
   executor.  Reading and reprinting a never-seen fuzz graph's 3 KB
   .sdfg text takes 0.12-0.16 ms, and printing a registered Polybench
   program about 0.05 ms (2-core x86-64 host), against about 0.12 ms to
   plan a small fuzz graph.  Keying on the canonical form means cosmetic
   differences in the submitted text (whitespace, ordering the
   serializer normalizes) cannot split the cache. *)
let program_key srv ~(program : Protocol.program) ~symbols ~config =
  let key_of text =
    (Protocol.cache_key ~sdfg_text:text ~symbols ~config, Some text)
  in
  match program with
  | Protocol.Prog_key k -> Ok (k, None)
  | Protocol.Prog_sdfg text -> (
    try Ok (key_of (Serialize.to_string (Serialize.of_string text)))
    with exn -> Error (Fmt.str "parse error: %s" (exn_message exn)))
  | Protocol.Prog_ndlang src -> (
    (* Elaborate, then key on the canonical serialized form: the same
       query resubmitted as text, combinators or .sdfg shares one cache
       entry. *)
    try Ok (key_of (Serialize.to_string (Builder.Ndlang.parse src)))
    with exn -> Error (Fmt.str "ndlang error: %s" (exn_message exn)))
  | Protocol.Prog_name name -> (
    match List.assoc_opt name srv.srv_programs with
    | None -> Error (Fmt.str "unknown program %S" name)
    | Some build -> (
      try Ok (key_of (Serialize.to_string (build ())))
      with exn -> Error (exn_message exn)))

let enqueue srv job =
  Mutex.lock srv.lock;
  let verdict =
    if srv.stopping then `Stopping
    else if List.length srv.queue >= srv.srv_max_queue then `Full
    else begin
      srv.queue <- srv.queue @ [ job ];
      Metrics.queue_changed srv.srv_metrics (List.length srv.queue);
      Condition.signal srv.cond;
      `Queued
    end
  in
  Mutex.unlock srv.lock;
  verdict

(* Admission control for run and stream_open: key the program on this
   thread, then queue the job or refuse it.  With [stream] (the input
   and output stream names) the job is a session: it is acked with its
   cache key, and the session the connection must feed is returned. *)
let submit srv ?stream (rq : Protocol.run_request) ~id ~send =
  let refuse err ~shed =
    send id (Protocol.Resp_error { err; shed });
    None
  in
  match
    program_key srv ~program:rq.rq_program ~symbols:rq.rq_symbols
      ~config:rq.rq_config
  with
  | Error err -> refuse err ~shed:false
  | Ok (key, text) -> (
    let jb_stream =
      Option.map
        (fun (input, output) ->
          ( input, output,
            { ss_chunks = Interp.Stream.create ~capacity:max_pending_chunks ();
              ss_finished = Atomic.make false } ))
        stream
    in
    let job =
      { jb_key = key; jb_text = text; jb_run = rq; jb_stream;
        jb_reply = send id; jb_enqueued = Obs.Collect.now () }
    in
    match enqueue srv job with
    | `Stopping -> refuse "server shutting down" ~shed:false
    | `Full ->
      Metrics.record_shed srv.srv_metrics;
      refuse "server overloaded: run queue full" ~shed:true
    | `Queued ->
      Option.map
        (fun (_, _, s) ->
          send id (Protocol.Resp_stream_opened { so_key = key });
          s)
        jb_stream)

let handle_conn srv fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* The executor replies through [send] concurrently with this thread's
     inline ping/stats replies; one lock per connection keeps frames
     whole. *)
  let wlock = Mutex.create () in
  let send id resp =
    Mutex.lock wlock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wlock)
      (fun () ->
        try
          Protocol.write_frame oc
            (Json.to_string (Protocol.response_to_json ~id resp))
        with Sys_error _ | Unix.Unix_error _ -> ())
  in
  (* At most one streaming session per connection; a finished one may be
     replaced by a new [stream_open]. *)
  let active : stream_session option ref = ref None in
  let live_session () =
    (match !active with
    | Some s when Atomic.get s.ss_finished -> active := None
    | _ -> ());
    !active
  in
  let rec loop () =
    match Protocol.read_frame ic with
    | None -> ()
    | Some payload ->
      (match Json.parse payload with
      | exception _ ->
        send 0
          (Protocol.Resp_error { err = "malformed JSON payload"; shed = false })
      | json -> (
        let id = Protocol.request_id json in
        match Protocol.request_of_json json with
        | Error err -> send id (Protocol.Resp_error { err; shed = false })
        | Ok Protocol.Ping -> send id Protocol.Resp_pong
        | Ok Protocol.Stats ->
          send id
            (Protocol.Resp_stats
               (Metrics.to_json
                  (Metrics.snapshot srv.srv_metrics)
                  ~cache:(Cache.stats srv.srv_cache)))
        | Ok Protocol.Shutdown ->
          send id Protocol.Resp_shutdown;
          stop srv
        | Ok (Protocol.Run rq) -> ignore (submit srv rq ~id ~send)
        | Ok (Protocol.Stream_open sq) -> (
          match live_session () with
          | Some _ ->
            send id
              (Protocol.Resp_error
                 { err = "stream already open on this connection";
                   shed = false })
          | None ->
            active :=
              submit srv ~stream:(sq.sq_input, sq.sq_output) sq.sq_run ~id
                ~send)
        | Ok (Protocol.Stream_push vs) -> (
          match live_session () with
          | None ->
            send id
              (Protocol.Resp_error
                 { err = "no open stream on this connection"; shed = false })
          | Some s -> (
            (* A full channel blocks here and stops draining the socket,
               pushing the backpressure out to the client. *)
            try Interp.Stream.push s.ss_chunks vs
            with Interp.Stream.Closed _ ->
              (* A finished session swallows late pushes: the client
                 already holds the terminal response. *)
              if not (Atomic.get s.ss_finished) then
                send id
                  (Protocol.Resp_error
                     { err = "stream already closed"; shed = false })))
        | Ok Protocol.Stream_close -> (
          match live_session () with
          | None ->
            send id
              (Protocol.Resp_error
                 { err = "no open stream on this connection"; shed = false })
          | Some s -> Interp.Stream.close s.ss_chunks)));
      loop ()
  in
  (try loop () with
  | Protocol.Protocol_error _ | Sys_error _ | End_of_file -> ());
  (* A vanished client must not leave the executor blocked in [source]:
     closing the session makes the query drain and finish. *)
  Option.iter (fun s -> Interp.Stream.close s.ss_chunks) !active;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- accept loop --------------------------------------------------------- *)

let accept_loop srv listen_fd =
  let stopping () =
    Mutex.lock srv.lock;
    let s = srv.stopping in
    Mutex.unlock srv.lock;
    s
  in
  let rec loop () =
    if not (stopping ()) then begin
      (* Poll with a timeout so [stop] takes effect even when no client
         ever connects again — a blocked [accept] would never wake. *)
      (match Unix.select [ listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept listen_fd with
        | fd, _ -> ignore (Thread.create (fun () -> handle_conn srv fd) ())
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  try Sys.remove srv.srv_socket with Sys_error _ -> ()

(* --- lifecycle ----------------------------------------------------------- *)

let start ?(capacity = 32) ?cache_dir ?(max_queue = 64) ?(programs = [])
    ?(log = ignore) ~socket () =
  if max_queue < 1 then invalid_arg "Server.start: max_queue must be >= 1";
  (* A client vanishing mid-reply must surface as EPIPE, not kill the
     daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let srv_cache = Cache.create ~capacity ?dir:cache_dir () in
  (try Sys.remove socket with Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX socket);
     Unix.listen listen_fd 64
   with exn ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise exn);
  let srv =
    { srv_socket = socket; srv_cache; srv_metrics = Metrics.create ();
      srv_programs = programs; srv_log = log; srv_max_queue = max_queue;
      lock = Mutex.create (); cond = Condition.create (); queue = [];
      stopping = false; serving = None; threads = [] }
  in
  let acceptor = Thread.create (fun () -> accept_loop srv listen_fd) () in
  let executor = Thread.create (fun () -> exec_loop srv) () in
  srv.threads <- [ acceptor; executor ];
  srv.srv_log
    (Fmt.str "listening on %s (cache capacity %d, queue %d, %d programs)"
       socket capacity max_queue (List.length programs));
  srv

let wait srv = List.iter Thread.join srv.threads
