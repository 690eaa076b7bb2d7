(* Wire protocol of the serve daemon: length-prefixed JSON frames.

   A frame is the payload's byte length in ASCII decimal, a newline,
   then exactly that many payload bytes.  The payload is one JSON value
   through {!Obs.Json} — the toolchain's single JSON surface — so the
   daemon introduces no new parser.

   Tensor data crosses the wire bit-exactly: float buffers as
   16-hex-digit IEEE-754 bit patterns ([Int64.bits_of_float]), integer
   buffers as JSON integers.  {!Obs.Json}'s float emission is lossy by
   design (NaN becomes [null], infinities become [1e999]) and must never
   touch payload data, because the serve battery checks responses
   byte-identical against direct {!Interp.Exec.run}. *)

module Json = Obs.Json
module Tensor = Interp.Tensor
module T = Tasklang.Types

exception Protocol_error of string

let protocol_error fmt = Fmt.kstr (fun s -> raise (Protocol_error s)) fmt

(* --- framing ------------------------------------------------------------- *)

(* Guard against a corrupt or hostile length header allocating the moon. *)
let max_frame_bytes = 1 lsl 28

let write_frame oc payload =
  output_string oc (string_of_int (String.length payload));
  output_char oc '\n';
  output_string oc payload;
  flush oc

let read_frame ic =
  match input_line ic with
  | exception End_of_file -> None
  | line -> (
    match int_of_string_opt (String.trim line) with
    | Some n when n >= 0 && n <= max_frame_bytes ->
      Some (really_input_string ic n)
    | _ -> protocol_error "bad frame header %S" line)

(* --- tensor codec -------------------------------------------------------- *)

let dtype_of_name = function
  | "float32" -> Some T.F32
  | "float64" -> Some T.F64
  | "int32" -> Some T.I32
  | "int64" -> Some T.I64
  | "bool" -> Some T.Bool
  | _ -> None

(* Row-major element walk of an arbitrary view.  The containers the
   server encodes are dense instance allocations, but the client may
   encode any view, so no density assumption. *)
let elements (t : Tensor.t) f =
  let n = Tensor.num_elements t in
  let rank = Tensor.rank t in
  let idx = Array.make rank 0 in
  for _ = 1 to n do
    f (Tensor.get t (Array.to_list idx));
    let rec carry d =
      if d >= 0 then begin
        idx.(d) <- idx.(d) + 1;
        if idx.(d) >= (Tensor.shape t).(d) then begin
          idx.(d) <- 0;
          carry (d - 1)
        end
      end
    in
    carry (rank - 1)
  done

let tensor_to_json (t : Tensor.t) : Json.t =
  let shape =
    Json.Arr (Array.to_list (Array.map (fun d -> Json.Int d) (Tensor.shape t)))
  in
  let data = ref [] in
  let float_buffer =
    match t.Tensor.buf with Tensor.Fbuf _ -> true | Tensor.Ibuf _ -> false
  in
  elements t (fun v ->
      let j =
        if float_buffer then
          Json.Str (Fmt.str "%016Lx" (Int64.bits_of_float (T.to_float v)))
        else Json.Int (T.to_int v)
      in
      data := j :: !data);
  Json.Obj
    [ ("dtype", Json.Str (T.dtype_name (Tensor.dtype t)));
      ("shape", shape);
      ((if float_buffer then "bits" else "ints"), Json.Arr (List.rev !data)) ]

let tensor_of_json (j : Json.t) : (Tensor.t, string) result =
  let ( let* ) = Result.bind in
  let* dtype =
    match Option.bind (Json.member "dtype" j) Json.to_string_opt with
    | Some s -> (
      match dtype_of_name s with
      | Some dt -> Ok dt
      | None -> Error (Fmt.str "unknown dtype %S" s))
    | None -> Error "tensor: missing dtype"
  in
  let* shape =
    match Json.member "shape" j with
    | Some (Json.Arr dims) ->
      let dims = List.map Json.to_int_opt dims in
      if List.exists Option.is_none dims then
        Error "tensor: non-integer dimension"
      else Ok (Array.of_list (List.map Option.get dims))
    | _ -> Error "tensor: missing shape"
  in
  let n = Array.fold_left ( * ) 1 shape in
  match Json.member "bits" j, Json.member "ints" j with
  | Some (Json.Arr bits), None ->
    if not (T.is_float dtype) then
      Error "tensor: float bits for a non-float dtype"
    else if List.length bits <> n then
      Error (Fmt.str "tensor: %d bits for %d elements" (List.length bits) n)
    else (
      let data = Array.make n 0. in
      match
        List.iteri
          (fun i b ->
            match Json.to_string_opt b with
            | Some s -> data.(i) <- Int64.float_of_bits (Int64.of_string ("0x" ^ s))
            | None -> failwith "tensor: bits must be hex strings")
          bits
      with
      | () -> Ok (Tensor.of_float_array dtype shape data)
      | exception Failure msg -> Error msg
      | exception _ -> Error "tensor: malformed bit pattern")
  | None, Some (Json.Arr ints) ->
    if T.is_float dtype then Error "tensor: integer data for a float dtype"
    else if List.length ints <> n then
      Error (Fmt.str "tensor: %d ints for %d elements" (List.length ints) n)
    else (
      let data = Array.make n 0 in
      match
        List.iteri
          (fun i b ->
            match Json.to_int_opt b with
            | Some v -> data.(i) <- v
            | None -> failwith "tensor: ints must be integers")
          ints
      with
      | () -> Ok (Tensor.of_int_array dtype shape data)
      | exception Failure msg -> Error msg)
  | _ -> Error "tensor: exactly one of bits/ints required"

(* --- stream value codec --------------------------------------------------- *)

(* Individual stream elements cross the wire under the same bit-exact
   discipline as tensors: floats as 16-hex-digit bit patterns, ints and
   bools as themselves. *)
let value_to_json (v : T.value) : Json.t =
  match v with
  | T.F f -> Json.Str (Fmt.str "%016Lx" (Int64.bits_of_float f))
  | T.I n -> Json.Int n
  | T.B b -> Json.Bool b

let value_of_json (j : Json.t) : (T.value, string) result =
  match j with
  | Json.Str s -> (
    match Int64.of_string_opt ("0x" ^ s) with
    | Some bits -> Ok (T.F (Int64.float_of_bits bits))
    | None -> Error (Fmt.str "bad float bit pattern %S" s))
  | Json.Int n -> Ok (T.I n)
  | Json.Bool b -> Ok (T.B b)
  | _ -> Error "stream element must be a hex string, integer or bool"

let values_to_json (vs : T.value array) : Json.t =
  Json.Arr (List.map value_to_json (Array.to_list vs))

let values_of_json (j : Json.t) : (T.value array, string) result =
  match j with
  | Json.Arr js ->
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | v :: rest -> (
        match value_of_json v with
        | Ok v -> go (v :: acc) rest
        | Error msg -> Error msg)
    in
    go [] js
  | _ -> Error "stream data must be an array"

(* --- symbols ------------------------------------------------------------- *)

let symbols_to_json symbols =
  Json.Obj (List.map (fun (s, v) -> (s, Json.Int v)) symbols)

let symbols_of_json j : ((string * int) list, string) result =
  match j with
  | Json.Obj fields ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (s, v) :: rest -> (
        match Json.to_int_opt v with
        | Some n -> go ((s, n) :: acc) rest
        | None -> Error (Fmt.str "symbol %S must be an integer" s))
    in
    go [] fields
  | _ -> Error "symbols must be an object"

(* --- cache key ----------------------------------------------------------- *)

(* Content-addressed identity of a plan-cache entry: the canonical
   serialized graph, the full symbol valuation (it fixes every container
   shape, hence plan and kernel validity) and the run-relevant config.
   The config is normalized the way {!Interp.Exec.Instance} resolves it
   — instrumentation forced off, the domain policy resolved against the
   environment (a pinned count and a predictive cap at the same number
   are distinct entries: they execute differently) — so requests
   differing only in ways the instance ignores share an entry. *)
let cache_key ~sdfg_text ~symbols ~(config : Interp.Exec.Config.t) =
  let config =
    Interp.Exec.Config.(
      let config = config |> with_instrument Obs.Collect.Off in
      match resolved_policy config with
      | Interp.Exec.Fixed d -> with_domains d config
      | Interp.Exec.Predictive cap -> with_auto_domains ~cap config)
  in
  let symbols =
    List.sort (fun (a, _) (b, _) -> String.compare a b) symbols
    |> List.map (fun (s, v) -> Fmt.str "%s=%d" s v)
    |> String.concat ","
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ sdfg_text; symbols;
            Json.to_string (Interp.Exec.Config.to_json config) ]))

(* --- requests ------------------------------------------------------------ *)

type program =
  | Prog_sdfg of string    (* serialized .sdfg text *)
  | Prog_ndlang of string  (* Ndlang source, elaborated server-side *)
  | Prog_name of string    (* server-registered builder *)
  | Prog_key of string     (* cache key from a previous response *)

type run_request = {
  rq_program : program;
  rq_symbols : (string * int) list;
  rq_config : Interp.Exec.Config.t;
  rq_args : (string * Tensor.t) list;
}

type stream_request = {
  sq_run : run_request;
  sq_input : string;          (* stream container fed by push frames *)
  sq_output : string option;  (* stream forwarded back as data frames *)
}

type request =
  | Run of run_request
  | Stream_open of stream_request
  | Stream_push of Tasklang.Types.value array
  | Stream_close
  | Stats
  | Ping
  | Shutdown

let program_field = function
  | Prog_sdfg text -> ("sdfg", Json.Str text)
  | Prog_ndlang src -> ("ndlang", Json.Str src)
  | Prog_name name -> ("name", Json.Str name)
  | Prog_key key -> ("key", Json.Str key)

(* The program/symbols/config/args block shared by run and stream_open. *)
let exec_fields (rq : run_request) =
  [ ("program", Json.Obj [ program_field rq.rq_program ]);
    ("symbols", symbols_to_json rq.rq_symbols);
    ("config", Interp.Exec.Config.to_json rq.rq_config);
    ( "args",
      Json.Obj (List.map (fun (n, t) -> (n, tensor_to_json t)) rq.rq_args) ) ]

let request_to_json ~id (r : request) : Json.t =
  let base ty rest = Json.Obj ((("id", Json.Int id)) :: ("type", Json.Str ty) :: rest) in
  match r with
  | Stats -> base "stats" []
  | Ping -> base "ping" []
  | Shutdown -> base "shutdown" []
  | Stream_close -> base "stream_close" []
  | Stream_push vs -> base "stream_push" [ ("data", values_to_json vs) ]
  | Run rq -> base "run" (exec_fields rq)
  | Stream_open sq ->
    base "stream_open"
      (exec_fields sq.sq_run
      @ [ ("input", Json.Str sq.sq_input) ]
      @ match sq.sq_output with
        | None -> []
        | Some o -> [ ("output", Json.Str o) ])

(* The request id is decoded even from malformed payloads when possible,
   so error responses can still be correlated. *)
let request_id (j : Json.t) : int =
  match Option.bind (Json.member "id" j) Json.to_int_opt with
  | Some id -> id
  | None -> 0

let exec_fields_of_json (j : Json.t) : (run_request, string) result =
  let ( let* ) = Result.bind in
  let* program =
    match Json.member "program" j with
    | Some p -> (
      let field n = Option.bind (Json.member n p) Json.to_string_opt in
      match field "sdfg", field "ndlang", field "name", field "key" with
      | Some text, None, None, None -> Ok (Prog_sdfg text)
      | None, Some src, None, None -> Ok (Prog_ndlang src)
      | None, None, Some name, None -> Ok (Prog_name name)
      | None, None, None, Some key -> Ok (Prog_key key)
      | _ -> Error "program must carry exactly one of sdfg/ndlang/name/key")
    | None -> Error "request: missing program"
  in
  let* symbols =
    match Json.member "symbols" j with
    | None -> Ok []
    | Some s -> symbols_of_json s
  in
  let* config =
    match Json.member "config" j with
    | None -> Ok Interp.Exec.Config.default
    | Some c ->
      Result.map_error Interp.Exec.Config.error_message
        (Interp.Exec.Config.of_json c)
  in
  let* args =
    match Json.member "args" j with
    | None -> Ok []
    | Some (Json.Obj fields) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (n, tj) :: rest -> (
          match tensor_of_json tj with
          | Ok t -> go ((n, t) :: acc) rest
          | Error msg -> Error (Fmt.str "argument %S: %s" n msg))
      in
      go [] fields
    | Some _ -> Error "args must be an object"
  in
  Ok { rq_program = program; rq_symbols = symbols; rq_config = config;
       rq_args = args }

let request_of_json (j : Json.t) : (request, string) result =
  let ( let* ) = Result.bind in
  match Option.bind (Json.member "type" j) Json.to_string_opt with
  | Some "stats" -> Ok Stats
  | Some "ping" -> Ok Ping
  | Some "shutdown" -> Ok Shutdown
  | Some "stream_close" -> Ok Stream_close
  | Some "stream_push" -> (
    match Json.member "data" j with
    | None -> Error "stream_push: missing data"
    | Some d ->
      let* vs = values_of_json d in
      Ok (Stream_push vs))
  | Some "run" -> Result.map (fun rq -> Run rq) (exec_fields_of_json j)
  | Some "stream_open" ->
    let* rq = exec_fields_of_json j in
    let* input =
      match Option.bind (Json.member "input" j) Json.to_string_opt with
      | Some s -> Ok s
      | None -> Error "stream_open: missing input"
    in
    let output =
      Option.bind (Json.member "output" j) Json.to_string_opt
    in
    Ok (Stream_open { sq_run = rq; sq_input = input; sq_output = output })
  | Some ty -> Error (Fmt.str "unknown request type %S" ty)
  | None -> Error "request: missing type"

(* --- responses ----------------------------------------------------------- *)

type run_result = {
  rs_key : string;          (* cache key; resend with Prog_key to skip parsing *)
  rs_hit : bool;            (* plan-cache hit *)
  rs_report : Json.t;       (* the run's Obs.Report *)
  rs_outputs : (string * Tensor.t) list;  (* non-transient containers *)
}

type response =
  | Resp_run of run_result
  | Resp_stream_opened of { so_key : string }
  | Resp_stream_data of Tasklang.Types.value array
  | Resp_stream_done of run_result
  | Resp_stats of Json.t
  | Resp_pong
  | Resp_shutdown
  | Resp_error of { err : string; shed : bool }

let run_result_fields (r : run_result) =
  [ ("key", Json.Str r.rs_key);
    ("cache", Json.Str (if r.rs_hit then "hit" else "miss"));
    ("report", r.rs_report);
    ( "outputs",
      Json.Obj (List.map (fun (n, t) -> (n, tensor_to_json t)) r.rs_outputs) )
  ]

let response_to_json ~id (r : response) : Json.t =
  let base ok rest =
    Json.Obj (("id", Json.Int id) :: ("ok", Json.Bool ok) :: rest)
  in
  match r with
  | Resp_pong -> base true [ ("pong", Json.Bool true) ]
  | Resp_shutdown -> base true [ ("shutdown", Json.Bool true) ]
  | Resp_stats s -> base true [ ("stats", s) ]
  | Resp_error { err; shed } ->
    base false [ ("error", Json.Str err); ("shed", Json.Bool shed) ]
  | Resp_stream_opened { so_key } ->
    base true [ ("stream", Json.Str "opened"); ("key", Json.Str so_key) ]
  | Resp_stream_data vs ->
    base true [ ("stream", Json.Str "data"); ("data", values_to_json vs) ]
  | Resp_stream_done r ->
    base true (("stream", Json.Str "done") :: run_result_fields r)
  | Resp_run r -> base true (run_result_fields r)

let response_of_json (j : Json.t) : (response, string) result =
  let ( let* ) = Result.bind in
  match Option.bind (Json.member "ok" j) (function
    | Json.Bool b -> Some b
    | _ -> None) with
  | None -> Error "response: missing ok"
  | Some false ->
    let err =
      Option.bind (Json.member "error" j) Json.to_string_opt
      |> Option.value ~default:"unknown error"
    in
    let shed =
      match Json.member "shed" j with Some (Json.Bool b) -> b | _ -> false
    in
    Ok (Resp_error { err; shed })
  | Some true -> (
    let run_result_of_json () =
      let* key =
        match Option.bind (Json.member "key" j) Json.to_string_opt with
        | Some k -> Ok k
        | None -> Error "run response: missing key"
      in
      let hit =
        match Option.bind (Json.member "cache" j) Json.to_string_opt with
        | Some "hit" -> true
        | _ -> false
      in
      let report =
        Option.value (Json.member "report" j) ~default:Json.Null
      in
      let* outputs =
        match Json.member "outputs" j with
        | Some (Json.Obj fields) ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | (n, tj) :: rest -> (
              match tensor_of_json tj with
              | Ok t -> go ((n, t) :: acc) rest
              | Error msg -> Error (Fmt.str "output %S: %s" n msg))
          in
          go [] fields
        | _ -> Error "run response: missing outputs"
      in
      Ok { rs_key = key; rs_hit = hit; rs_report = report;
           rs_outputs = outputs }
    in
    match Option.bind (Json.member "stream" j) Json.to_string_opt with
    | Some "opened" -> (
      match Option.bind (Json.member "key" j) Json.to_string_opt with
      | Some k -> Ok (Resp_stream_opened { so_key = k })
      | None -> Error "stream opened response: missing key")
    | Some "data" -> (
      match Json.member "data" j with
      | None -> Error "stream data response: missing data"
      | Some d ->
        let* vs = values_of_json d in
        Ok (Resp_stream_data vs))
    | Some "done" ->
      let* r = run_result_of_json () in
      Ok (Resp_stream_done r)
    | Some kind -> Error (Fmt.str "unknown stream response kind %S" kind)
    | None -> (
      match
        Json.member "pong" j, Json.member "shutdown" j, Json.member "stats" j
      with
      | Some _, _, _ -> Ok Resp_pong
      | _, Some _, _ -> Ok Resp_shutdown
      | _, _, Some s -> Ok (Resp_stats s)
      | None, None, None ->
        let* r = run_result_of_json () in
        Ok (Resp_run r)))
