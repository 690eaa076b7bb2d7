(* serve-mixed (closed loop, two connections).  The repository's own
   `sdfg serve` executable runs as a separate process with a fresh
   --cache-dir and a plan cache smaller than the set of distinct
   programs.  This process is its only client and sends a seeded mix:
   - warm hits by cache key or registered name on small programs, where
     codec, queue and socket costs are visible;
   - Ndlang texts, parsed and hashed on every request, then a hit;
   - never-seen .sdfg texts, which validate, plan, insert, evict and
     persist.
   It is the deployed surface and uses the plan cache for reads and for
   writes, so a gain for hits that costs misses shows here.  Pipelined
   streaming is left out: a feeder, a stage and a drainer need three
   domains on two cores. *)

module P = Serve.Protocol
module Json = Obs.Json
module Tensor = Interp.Tensor
module A = Workloads.Attention

(* Nominal requests per second; a run sends [seconds * rate]. *)
let rate = 600.

let capacity = 16
let setup_reps = 11
let connections = 2
let warm_fuzz = 6
let warm_names = [ "gemm"; "atax"; "bicg"; "mvt"; "2mm"; "jacobi-2d" ]

type kind = Hit_key | Hit_name | Ndlang | Miss

let kind_name = function
  | Hit_key -> "hit_key"
  | Hit_name -> "hit_name"
  | Ndlang -> "ndlang"
  | Miss -> "miss"

type prog = {
  kind : kind;
  first : P.program;  (* how priming, or a miss, sends it *)
  mutable wire : P.program;  (* how a warm request names it *)
  source : Pipeline.source;  (* how the in-process reference loads it *)
  symbols : (string * int) list;
  args : (string * Tensor.t) list;
}

let prog kind program source symbols args =
  { kind; first = program; wire = program; source; symbols; args }

let fuzz kind seed =
  let g = Fuzz.Gen.generate seed in
  let symbols = Fuzz.Gen.symbols_for g in
  let text = Sdfg_ir.Serialize.to_string g in
  prog kind (P.Prog_sdfg text) (Pipeline.Sdfg_text text) symbols
    (Interp.Profile.make_args ~symbols g)

let named name =
  let k = Workloads.Polybench.find name in
  let g = k.Workloads.Polybench.k_build () in
  let symbols = k.Workloads.Polybench.k_mini in
  prog Hit_name (P.Prog_name name)
    (Pipeline.Sdfg_text (Sdfg_ir.Serialize.to_string g))
    symbols
    (Interp.Profile.make_args ~symbols g)

let ndlang src symbols args =
  prog Ndlang (P.Prog_ndlang src) (Pipeline.Ndlang src) symbols args

(* The warm set: primed in set-up, then hit by the timed requests.  It is
   the same for every seed, so set-up does the same work on every run;
   the seed draws the request mix and the misses. *)
let warm () =
  List.init warm_fuzz (fun i -> fuzz Hit_key (Hashtbl.hash ("warm", i)))
  @ List.map named warm_names
  @ [ ndlang A.attention_src A.attention_mini (A.attention_args A.attention_mini);
      ndlang A.conv_src A.conv_mini (A.conv_args A.conv_mini) ]

(* 35% hits by key, 35% by name, 15% Ndlang texts, 15% never-seen
   .sdfg misses. *)
let sequence ~seed warm n =
  let rs = Random.State.make [| 0x736572; seed |] in
  let pool kind = Array.of_list (List.filter (fun p -> p.kind = kind) warm) in
  let keys = pool Hit_key and names = pool Hit_name and texts = pool Ndlang in
  let pick a = a.(Random.State.int rs (Array.length a)) in
  Array.init n (fun i ->
      let r = Random.State.int rs 100 in
      if r < 35 then pick keys
      else if r < 70 then pick names
      else if r < 85 then pick texts
      else fuzz Miss (Hashtbl.hash (seed, "miss", i)))

(* --- connections ----------------------------------------------------------- *)

(* Driven through Protocol's public functions rather than Serve.Client,
   so encoding, the socket round trip and decoding are timed apart. *)
type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable next_id : int;
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    next_id = 1 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One request; returns the response and the request and response
   sizes in bytes. *)
let request tr c req =
  let id = c.next_id in
  c.next_id <- id + 1;
  let payload =
    Tr.span tr "protocol.encode" (fun () ->
        Json.to_string (P.request_to_json ~id req))
  in
  let reply =
    Tr.span tr "serve.roundtrip" (fun () ->
        P.write_frame c.oc payload;
        P.read_frame c.ic)
  in
  match reply with
  | None -> raise (P.Protocol_error "connection closed by the daemon")
  | Some s -> (
    match
      Tr.span tr "protocol.decode" (fun () -> P.response_of_json (Json.parse s))
    with
    | Ok resp -> (resp, String.length payload, String.length s)
    | Error e -> raise (P.Protocol_error e))

let run_request p program =
  P.Run
    { P.rq_program = program;
      rq_symbols = p.symbols;
      rq_config = Pipeline.config;
      rq_args = p.args }

(* A key the cache has evicted is resent as text, as a client holding
   only the key must.  The daemon batches same-key requests behind the
   first one queued and fails the whole batch with it, so a resend
   queued behind the other connection's key-only request for the same
   evicted key fails too: it is retried once more. *)
let send tr c p =
  let rec go program retries sent received =
    let resp, s, r = request tr c (run_request p program) in
    let sent = sent + s and received = received + r in
    match resp with
    | P.Resp_error _ when p.kind = Hit_key && retries > 0 ->
      go p.first (retries - 1) sent received
    | P.Resp_run r -> Ok (r.P.rs_outputs, sent, received)
    | P.Resp_error { err; _ } -> Error err
    | _ -> Error "unexpected response kind"
  in
  go p.wire 2 0 0

let digests outputs =
  List.sort compare (List.map (fun (n, t) -> (n, Pipeline.digest t)) outputs)

(* --- the daemon ------------------------------------------------------------ *)

type daemon = { pid : int; socket : string; dir : string }

(* Daemons still running if the benchmark fails midway: killed and
   reaped at exit. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let spawn ~exe ~out tag =
  let path suffix = Filename.concat out (tag ^ suffix) in
  let socket = path ".sock" and dir = path ".cache" in
  if Sys.file_exists socket then Sys.remove socket;
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let log =
    Unix.openfile (path ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--socket"; socket; "--cache-capacity";
             string_of_int capacity; "--cache-dir"; dir |]
          Unix.stdin log log)
  in
  live := pid :: !live;
  { pid; socket; dir }

(* Start-up ends when the daemon accepts a connection and answers a
   ping. *)
let await d =
  let deadline = Tr.now_ns () + 30_000_000_000 in
  let rec go () =
    match connect d.socket with
    | c -> c
    | exception Unix.Unix_error _ when Tr.now_ns () < deadline ->
      Unix.sleepf 0.0005;
      go ()
  in
  let c = go () in
  (match request (Tr.create false) c P.Ping with
  | P.Resp_pong, _, _ -> ()
  | _ -> failwith "the daemon did not answer the ping");
  c

let stop d c =
  (try ignore (request (Tr.create false) c P.Shutdown) with _ -> ());
  close c;
  let deadline = Tr.now_ns () + 10_000_000_000 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Tr.now_ns () < deadline ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ();
  live := List.filter (fun pid -> pid <> d.pid) !live;
  rm_rf d.dir;
  if Sys.file_exists d.socket then Sys.remove d.socket

(* Set-up: daemon start to first ping, then every warm program sent once
   so the timed phase starts from a primed cache. *)
let set_up ~tr ~exe ~out tag warm =
  Report.setup_rep ~cores:2 (fun () ->
      let d = spawn ~exe ~out tag in
      let c = await d in
      List.iter
        (fun p ->
          match request tr c (run_request p p.first) with
          | P.Resp_run r, _, _ ->
            if p.kind = Hit_key then p.wire <- P.Prog_key r.P.rs_key
          | _ -> failwith "a priming request failed")
        warm;
      (d, c))

let stats c =
  match request (Tr.create false) c P.Stats with
  | P.Resp_stats j, _, _ -> j
  | _ -> failwith "the stats request failed"

let stat path j =
  List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some j) path
  |> (fun v -> Option.bind v Json.to_float_opt)
  |> Option.value ~default:0.

let run ~tr ~seed ~seconds ~exe ~out =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let warm = warm () in
  let n = max 100 (int_of_float (Float.round (seconds *. rate))) in
  let seq = sequence ~seed warm n in
  let digest =
    Array.to_list seq
    |> List.map (fun p ->
           kind_name p.kind ^ Digest.string (Pipeline.source_text p.source))
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let tag rep = Printf.sprintf "serve-%d-%d" (Unix.getpid ()) rep in
  let rec set_ups rep times =
    let (d, c), t = set_up ~tr ~exe ~out (tag rep) warm in
    if rep + 1 < setup_reps then begin
      stop d c;
      set_ups (rep + 1) (t :: times)
    end
    else (d, c, List.rev (t :: times))
  in
  let d, c, setup = set_ups 0 [] in
  let before = stats c in
  let tracers = Array.init connections (fun _ -> Tr.create tr.Tr.on) in
  let conns = Array.init connections (fun _ -> connect d.socket) in
  let answers = Array.make n (Error "not sent") in
  let latencies = Array.make n 0 in
  (* The requests go in segments of [drift.every], both connections
     always busy inside one; the canary runs between segments, while no
     request is in flight. *)
  let drift = Report.drift ~cores:2 200 in
  let worker (w, lo, hi) =
    let t = tracers.(w) and conn = conns.(w) in
    let k = ref (lo + w) in
    while !k < hi do
      let i = !k in
      let r, dt =
        Tr.op t i (fun () ->
            try send t conn seq.(i) with e -> Error (Printexc.to_string e))
      in
      latencies.(i) <- dt;
      answers.(i) <-
        Result.map (fun (outs, sent, received) -> (digests outs, sent, received)) r;
      k := i + connections
    done
  in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + drift.Report.every) in
    Report.tick drift !lo;
    List.iter Thread.join
      (List.init connections (fun w -> Thread.create worker (w, !lo, hi)));
    lo := hi
  done;
  Report.finish drift n;
  Array.iter close conns;
  let after = stats c in
  let rss_mb = Report.peak_rss_mb (string_of_int d.pid) in
  stop d c;
  (* Expected digests from the in-process pipeline, once per distinct
     program, after the timed phase. *)
  let expected = Hashtbl.create 64 in
  let nodes = ref 0 and cov = ref (0, 0, 0) in
  let expect p =
    let key = Pipeline.source_text p.source in
    match Hashtbl.find_opt expected key with
    | Some e -> e
    | None ->
      let e =
        match
          let g, _ = Pipeline.load tr p.source in
          let inst = Pipeline.create tr ~symbols:p.symbols g in
          let second = Pipeline.clone_args p.args in
          let report =
            Pipeline.warm tr inst ~first:(Pipeline.clone_args p.args) ~second
          in
          let k, f, fb = Pipeline.coverage report and a, b, c = !cov in
          cov := (a + k, b + f, c + fb);
          nodes := !nodes + Pipeline.ir_nodes g;
          second
        with
        | second -> Some (digests second)
        | exception _ -> None
      in
      Hashtbl.replace expected key e;
      e
  in
  let failed = ref 0 in
  Array.iteri
    (fun i a ->
      match (a, expect seq.(i)) with
      | Ok (got, _, _), Some want when got = want -> ()
      | _ -> incr failed)
    answers;
  let lat_where pred =
    List.filter_map
      (fun i -> if pred seq.(i).kind then Some (Tr.ms latencies.(i)) else None)
      (List.init n Fun.id)
  in
  let bytes f =
    Array.to_list answers
    |> List.filter_map (function
         | Ok a -> Some (float_of_int (f a))
         | Error _ -> None)
    |> Tr.median
  in
  let delta path = stat path after -. stat path before in
  let hits = delta [ "cache"; "hits" ] and misses = delta [ "cache"; "misses" ] in
  let kernels, fallbacks, fallback_nodes = !cov in
  { Report.attempted = n;
    failed = !failed;
    latencies_ns = latencies;
    concurrency = connections;
    window = max 1 (n / 20);
    drift;
    setup;
    rss_mb;
    digest;
    values =
      [ ("core.ir_nodes", float_of_int !nodes);
        ("interp.kernel_maps", float_of_int kernels);
        ("interp.kernel_fallbacks", float_of_int fallbacks);
        ("interp.fallback_nodes", float_of_int fallback_nodes) ];
    notes =
      [ ("serve.cache_hit_ratio", hits /. Float.max 1. (hits +. misses));
        ("serve.cache_lookups", hits +. misses);
        ("serve.evictions", delta [ "cache"; "evictions" ]);
        ("serve.batched", delta [ "batched" ]);
        ("serve.max_queue_depth", stat [ "max_queue_depth" ] after);
        ("protocol.request_bytes", bytes (fun (_, s, _) -> s));
        ("protocol.response_bytes", bytes (fun (_, _, r) -> r));
        ("serve.hit_ms", Tr.median (lat_where (fun k -> k = Hit_key || k = Hit_name)));
        ("serve.ndlang_ms", Tr.median (lat_where (fun k -> k = Ndlang)));
        ("serve.miss_ms", Tr.median (lat_where (fun k -> k = Miss)));
        ("serve.daemon_p50_ms", 1e3 *. stat [ "latency_p50_s" ] after);
        ("serve.daemon_p99_ms", 1e3 *. stat [ "latency_p99_s" ] after) ];
    tracers = tr :: Array.to_list tracers }
