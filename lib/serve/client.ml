(* Synchronous serve client: frame out, frame in.  Each connection
   carries at most one request at a time, so responses correlate by
   position; the [id] echo exists for sanity checking and for future
   pipelined clients. *)

module Json = Obs.Json

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable next_id : int;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  { fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    next_id = 1 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let next_id c =
  let id = c.next_id in
  c.next_id <- id + 1;
  id

let send c ~id req =
  Protocol.write_frame c.oc (Json.to_string (Protocol.request_to_json ~id req))

(* One frame in, decoded: the response to whatever was sent. *)
let read_response c =
  match Protocol.read_frame c.ic with
  | None -> Error "connection closed by server"
  | Some payload -> (
    match Json.parse payload with
    | exception _ -> Error "malformed response payload"
    | json -> Protocol.response_of_json json)

let request c req =
  send c ~id:(next_id c) req;
  match read_response c with
  | Ok resp -> resp
  | Error e -> raise (Protocol.Protocol_error e)

let run ?(symbols = []) ?(config = Interp.Exec.Config.default) ?(args = []) c
    program =
  match
    request c
      (Protocol.Run
         { rq_program = program; rq_symbols = symbols; rq_config = config;
           rq_args = args })
  with
  | Protocol.Resp_run r -> Ok r
  | Protocol.Resp_error { err; _ } -> Error err
  | _ -> Error "unexpected response kind"

(* Streaming session: open, then write pushes from a helper thread while
   this thread reads data frames — full duplex, so a server blocked
   writing data can never deadlock against a client blocked writing
   pushes. *)
let run_stream ?(symbols = []) ?(config = Interp.Exec.Config.default)
    ?(args = []) ~input ?output c program chunks =
  let frame = send c ~id:(next_id c) in
  frame
    (Protocol.Stream_open
       { sq_run =
           { rq_program = program; rq_symbols = symbols; rq_config = config;
             rq_args = args };
         sq_input = input; sq_output = output });
  match read_response c with
  | Error e -> Error e
  | Ok (Protocol.Resp_error { err; _ }) -> Error err
  | Ok (Protocol.Resp_stream_opened _) ->
    let writer =
      Thread.create
        (fun () ->
          try
            List.iter (fun vs -> frame (Protocol.Stream_push vs)) chunks;
            frame Protocol.Stream_close
          with Sys_error _ | Unix.Unix_error _ -> ())
        ()
    in
    let rec collect acc =
      match read_response c with
      | Error e -> Error e
      | Ok (Protocol.Resp_stream_data vs) -> collect (vs :: acc)
      | Ok (Protocol.Resp_stream_done r) -> Ok (r, List.rev acc)
      | Ok (Protocol.Resp_error { err; _ }) -> Error err
      | Ok _ -> Error "unexpected response kind"
    in
    let result = collect [] in
    Thread.join writer;
    result
  | Ok _ -> Error "unexpected response kind"

let stats c =
  match request c Protocol.Stats with
  | Protocol.Resp_stats j -> Ok j
  | Protocol.Resp_error { err; _ } -> Error err
  | _ -> Error "unexpected response kind"

let ping c =
  match request c Protocol.Ping with
  | Protocol.Resp_pong -> true
  | _ -> false
  | exception _ -> false

let shutdown c =
  match request c Protocol.Shutdown with
  | Protocol.Resp_shutdown | _ -> ()
  | exception _ -> ()
