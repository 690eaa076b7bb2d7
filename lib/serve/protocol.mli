(** Wire protocol of the serve daemon: length-prefixed JSON frames.

    Frame = payload byte length in ASCII decimal, ['\n'], payload.
    Payloads are {!Obs.Json} values.  Tensor data crosses bit-exactly:
    float buffers as 16-hex-digit IEEE-754 bit patterns, integer buffers
    as JSON integers — never through {!Obs.Json}'s (deliberately lossy)
    float emission.

    One request record, {!run_request}, names a program with its
    symbols, config and arguments; [stream_open] carries it too, plus
    the names of the streams it feeds and forwards. *)

exception Protocol_error of string

val max_frame_bytes : int

val write_frame : out_channel -> string -> unit

val read_frame : in_channel -> string option
(** [None] at end of stream.
    @raise Protocol_error on a malformed or oversized length header. *)

(** {1 Tensor codec} *)

val tensor_to_json : Interp.Tensor.t -> Obs.Json.t
val tensor_of_json : Obs.Json.t -> (Interp.Tensor.t, string) result

val value_to_json : Tasklang.Types.value -> Obs.Json.t
val value_of_json : Obs.Json.t -> (Tasklang.Types.value, string) result
(** Individual stream elements, same bit-exact discipline as tensors. *)

val values_to_json : Tasklang.Types.value array -> Obs.Json.t
val values_of_json : Obs.Json.t -> (Tasklang.Types.value array, string) result

val symbols_to_json : (string * int) list -> Obs.Json.t
val symbols_of_json : Obs.Json.t -> ((string * int) list, string) result

(** {1 Cache key} *)

val cache_key :
  sdfg_text:string ->
  symbols:(string * int) list ->
  config:Interp.Exec.Config.t ->
  string
(** Content-addressed identity of a plan-cache entry: digest over the
    canonical serialized graph, the full (sorted) symbol valuation and
    the config normalized as {!Interp.Exec.Instance} resolves it
    (instrumentation off, domain count resolved against the
    environment). *)

(** {1 Requests} *)

type program =
  | Prog_sdfg of string    (** serialized .sdfg text *)
  | Prog_ndlang of string  (** Ndlang source, elaborated server-side *)
  | Prog_name of string    (** server-registered builder *)
  | Prog_key of string     (** cache key from a previous response *)

type run_request = {
  rq_program : program;
  rq_symbols : (string * int) list;
  rq_config : Interp.Exec.Config.t;
  rq_args : (string * Interp.Tensor.t) list;
}

(** A continuous query: [sq_run] names the program, its symbols, config
    and arguments exactly as a [run] does, and its fields go on the wire
    the same way.  [stream_open] resolves the program and holds the
    connection's session open; subsequent [stream_push] frames feed
    [sq_input] chunk by chunk (backpressured end to end — a full
    in-graph channel blocks the server's reader, which stops draining
    the socket); [stream_close] ends the input, and the final
    [Resp_stream_done] carries the report and outputs.  [sq_output]'s
    elements flow back as [Resp_stream_data] frames while the query
    runs. *)
type stream_request = {
  sq_run : run_request;
  sq_input : string;
  sq_output : string option;
}

type request =
  | Run of run_request
  | Stream_open of stream_request
  | Stream_push of Tasklang.Types.value array
  | Stream_close
  | Stats
  | Ping
  | Shutdown

val request_to_json : id:int -> request -> Obs.Json.t
val request_id : Obs.Json.t -> int
(** The [id] field, or 0 — decodable even from payloads that fail
    {!request_of_json}, so error responses stay correlated. *)

val request_of_json : Obs.Json.t -> (request, string) result

(** {1 Responses} *)

type run_result = {
  rs_key : string;   (** cache key; resend as [Prog_key] to skip parsing *)
  rs_hit : bool;     (** plan-cache hit *)
  rs_report : Obs.Json.t;
  rs_outputs : (string * Interp.Tensor.t) list;
}

type response =
  | Resp_run of run_result
  | Resp_stream_opened of { so_key : string }
      (** ack for [Stream_open]: program resolved and queued *)
  | Resp_stream_data of Tasklang.Types.value array
      (** one chunk of the query's output stream, sent mid-run *)
  | Resp_stream_done of run_result
      (** final frame of a streaming session *)
  | Resp_stats of Obs.Json.t
  | Resp_pong
  | Resp_shutdown
  | Resp_error of { err : string; shed : bool }

val response_to_json : id:int -> response -> Obs.Json.t
val response_of_json : Obs.Json.t -> (response, string) result
