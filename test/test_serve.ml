(* The serving layer (ISSUE 7): Exec.Config as the one execution-tuning
   surface, Sdfg.hash, the wire protocol's bit-exact tensor codec, the
   LRU plan cache (accounting, bound, persistence, cross-domain
   sharing), and the daemon end-to-end — including 100 concurrent
   fuzz-generated requests whose responses must be bit-identical to
   direct Exec.run. *)

module T = Tasklang.Types
module Exec = Interp.Exec
module Tensor = Interp.Tensor
module Protocol = Serve.Protocol
module Json = Obs.Json
open Sdfg_ir

let tensor_bits = Test_crossval.tensor_bits

let tmp_name prefix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Fmt.str "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))

let compiled_1 =
  Exec.Config.(default |> with_engine Interp.Plan.compiled |> with_domains 1)

(* --- Sdfg.hash ----------------------------------------------------------- *)

let test_hash () =
  let g = Workloads.Kernels.matmul () in
  let h = Sdfg.hash g in
  Alcotest.(check int) "hash is hex md5" 32 (String.length h);
  Alcotest.(check string) "hash = Serialize.hash" (Serialize.hash g) h;
  Alcotest.(check string) "hash deterministic" h (Sdfg.hash g);
  let reloaded = Serialize.of_string (Serialize.to_string g) in
  Alcotest.(check string) "hash stable across serialize round-trip" h
    (Sdfg.hash reloaded);
  let other = Workloads.Kernels.histogram () in
  Alcotest.(check bool) "different graphs hash differently" false
    (String.equal h (Sdfg.hash other))

(* --- Exec.Config --------------------------------------------------------- *)

let test_config_validate () =
  let open Exec.Config in
  (match validate (with_domains 0 default) with
  | Error (Invalid_domains 0) -> ()
  | _ -> Alcotest.fail "domains = 0 must be a typed Invalid_domains error");
  (match validate (with_max_states 0 default) with
  | Error (Invalid_max_states 0) -> ()
  | _ ->
    Alcotest.fail "max_states = 0 must be a typed Invalid_max_states error");
  (* Above the pool maximum is not an error: it clamps. *)
  (match validate (with_domains 1000 default) with
  | Ok c -> Alcotest.(check int) "clamp to 64" 64 (resolved_domains c)
  | Error _ -> Alcotest.fail "domains = 1000 must validate (and clamp)");
  (* run surfaces an invalid config as Runtime_error, not a raw raise. *)
  Alcotest.check_raises "Exec.run rejects invalid config"
    (Exec.Runtime_error "config: domains must be >= 1 (got 0)") (fun () ->
      ignore
        (Exec.run ~config:(with_domains 0 default)
           (Workloads.Kernels.copy ())
           ~symbols:[ ("N", 4) ]))

let test_config_precedence () =
  let open Exec.Config in
  (* An explicit domain count beats the environment variable. *)
  let env = try Some (Sys.getenv "SDFG_DOMAINS") with Not_found -> None in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "SDFG_DOMAINS" (Option.value env ~default:""))
    (fun () ->
      Unix.putenv "SDFG_DOMAINS" "4";
      Alcotest.(check int) "explicit beats SDFG_DOMAINS" 2
        (resolved_domains (with_domains 2 default));
      Alcotest.(check int) "None defers to SDFG_DOMAINS" 4
        (resolved_domains default);
      Alcotest.(check int) "with_default_domains resets" 4
        (resolved_domains (with_default_domains (with_domains 2 default))))

let test_config_json () =
  let open Exec.Config in
  let c =
    default |> with_engine Interp.Plan.compiled
    |> with_instrument Obs.Collect.All |> with_max_states 123
    |> with_domains 3 |> with_kernels false
  in
  (match of_json (to_json c) with
  | Ok c' -> Alcotest.(check bool) "to_json/of_json round-trip" true (c = c')
  | Error e -> Alcotest.fail (error_message e));
  (match of_json (Json.Obj []) with
  | Ok c' ->
    Alcotest.(check bool) "missing fields keep defaults" true (c' = default)
  | Error e -> Alcotest.fail (error_message e));
  (match of_json (Json.Obj [ ("domains", Json.Int 0) ]) with
  | Error (Invalid_domains 0) -> ()
  | _ -> Alcotest.fail "of_json must validate");
  match of_json (Json.Obj [ ("engine", Json.Str "quantum") ]) with
  | Error (Parse _) -> ()
  | _ -> Alcotest.fail "unknown engine must be a Parse error"

(* The streaming knobs ride the same Config surface: with-style setters,
   typed validation and a JSON round-trip where missing fields keep
   their defaults (so pre-streaming configs still parse). *)
let test_config_stream_knobs () =
  let open Exec.Config in
  let c = default |> with_stream_chunk 17 in
  (match validate c with
  | Ok c' ->
    Alcotest.(check int) "chunk survives validate" 17 c'.stream_chunk
  | Error _ -> Alcotest.fail "valid stream knobs must validate");
  (match validate (default |> with_stream_chunk 0) with
  | Error (Invalid_stream_chunk 0) -> ()
  | _ -> Alcotest.fail "stream_chunk 0 must be Invalid_stream_chunk");
  (match of_json (to_json c) with
  | Ok c' -> Alcotest.(check bool) "round-trip" true (c' = c)
  | Error e -> Alcotest.fail (error_message e));
  match of_json (Json.Obj [ ("engine", Json.Str "compiled") ]) with
  | Ok c' -> Alcotest.(check int) "missing chunk defaults" 64 c'.stream_chunk
  | Error e -> Alcotest.fail (error_message e)

(* --- protocol ------------------------------------------------------------ *)

let test_frames () =
  let path = tmp_name "frames" in
  let oc = open_out_bin path in
  Protocol.write_frame oc "hello";
  Protocol.write_frame oc "";
  Protocol.write_frame oc (String.make 100_000 'x');
  close_out oc;
  let ic = open_in_bin path in
  Alcotest.(check (option string)) "frame 1" (Some "hello")
    (Protocol.read_frame ic);
  Alcotest.(check (option string)) "frame 2 (empty)" (Some "")
    (Protocol.read_frame ic);
  Alcotest.(check (option string))
    "frame 3 (large)"
    (Some (String.make 100_000 'x'))
    (Protocol.read_frame ic);
  Alcotest.(check (option string)) "EOF" None (Protocol.read_frame ic);
  close_in ic;
  Sys.remove path;
  let bad = tmp_name "badframe" in
  let oc = open_out_bin bad in
  output_string oc "not-a-length\npayload";
  close_out oc;
  let ic = open_in_bin bad in
  Alcotest.(check bool) "malformed header raises" true
    (match Protocol.read_frame ic with
    | exception Protocol.Protocol_error _ -> true
    | _ -> false);
  close_in ic;
  Sys.remove bad

(* The tensor codec must preserve every bit pattern — including NaN and
   infinities, which Obs.Json's float emission deliberately mangles. *)
let test_tensor_codec () =
  let f64 =
    Tensor.of_float_array T.F64 [| 2; 3 |]
      [| 0.; -0.; 1.5; Float.nan; Float.infinity; Float.neg_infinity |]
  in
  let f32 = Tensor.of_float_array T.F32 [| 3 |] [| 1.25; -2.5; 0.1 |] in
  let i64 = Tensor.of_int_array T.I64 [| 2; 2 |] [| min_int; -1; 0; max_int |] in
  let b = Tensor.of_int_array T.Bool [| 2 |] [| 0; 1 |] in
  List.iter
    (fun t ->
      match Protocol.tensor_of_json (Protocol.tensor_to_json t) with
      | Error e -> Alcotest.fail e
      | Ok t' ->
        Alcotest.(check (list int))
          "shape survives"
          (Array.to_list (Tensor.shape t))
          (Array.to_list (Tensor.shape t'));
        Alcotest.(check (list int64)) "bits survive" (tensor_bits t)
          (tensor_bits t'))
    [ f64; f32; i64; b ]

let test_request_roundtrip () =
  let g = Workloads.Kernels.copy () in
  let symbols = [ ("N", 8) ] in
  let args = Interp.Profile.make_args ~symbols g in
  let req =
    Protocol.Run
      { rq_program = Protocol.Prog_sdfg (Serialize.to_string g);
        rq_symbols = symbols; rq_config = compiled_1; rq_args = args }
  in
  let j = Json.parse (Json.to_string (Protocol.request_to_json ~id:7 req)) in
  Alcotest.(check int) "id survives" 7 (Protocol.request_id j);
  match Protocol.request_of_json j with
  | Error e -> Alcotest.fail e
  | Ok (Protocol.Run rq) ->
    Alcotest.(check bool) "program survives" true
      (rq.rq_program = Protocol.Prog_sdfg (Serialize.to_string g));
    Alcotest.(check bool) "symbols survive" true (rq.rq_symbols = symbols);
    Alcotest.(check bool) "config survives" true (rq.rq_config = compiled_1);
    List.iter2
      (fun (n, t) (n', t') ->
        Alcotest.(check string) "arg order" n n';
        Alcotest.(check (list int64)) "arg bits" (tensor_bits t)
          (tensor_bits t'))
      args rq.rq_args
  | Ok _ -> Alcotest.fail "wrong request kind"

let test_cache_key () =
  let text = Serialize.to_string (Workloads.Kernels.copy ()) in
  let key = Protocol.cache_key ~sdfg_text:text ~symbols:[ ("N", 8) ] in
  let k1 = key ~config:compiled_1 in
  Alcotest.(check string) "deterministic" k1 (key ~config:compiled_1) ;
  (* Instrumentation is normalized away (instances force it off)... *)
  Alcotest.(check string) "instrument level does not split the cache" k1
    (key ~config:(Exec.Config.with_instrument Obs.Collect.All compiled_1));
  (* ...but engine, symbols and domain count are identity. *)
  Alcotest.(check bool) "engine splits" false
    (String.equal k1 (key ~config:Exec.Config.default));
  Alcotest.(check bool) "domains split" false
    (String.equal k1 (key ~config:(Exec.Config.with_domains 2 compiled_1)));
  Alcotest.(check bool) "symbols split" false
    (String.equal k1
       (Protocol.cache_key ~sdfg_text:text ~symbols:[ ("N", 9) ]
          ~config:compiled_1))

(* --- Exec.Instance ------------------------------------------------------- *)

let test_instance_bit_identical () =
  let symbols = [ ("M", 6); ("N", 5); ("K", 4) ] in
  let inst =
    Exec.Instance.create ~config:compiled_1 ~symbols
      (Workloads.Kernels.matmul ())
  in
  let fresh () = Interp.Profile.make_args ~symbols (Workloads.Kernels.matmul ()) in
  (* Two runs of one instance, interleaved with direct Exec.run — all
     four must agree bit-for-bit. *)
  let direct = fresh () in
  ignore
    (Exec.run ~config:compiled_1 ~symbols ~args:direct
       (Workloads.Kernels.matmul ()));
  List.iter
    (fun round ->
      let args = fresh () in
      ignore (Exec.Instance.run ~args inst);
      List.iter2
        (fun (n, t) (_, t') ->
          Alcotest.(check (list int64))
            (Fmt.str "round %d: %S bit-identical to direct run" round n)
            (tensor_bits t') (tensor_bits t))
        args direct)
    [ 1; 2; 3 ];
  match
    Exec.Instance.run ~args:[ ("bogus", Tensor.create T.F64 [| 1 |]) ] inst
  with
  | _ -> Alcotest.fail "unknown argument must be rejected"
  | exception Exec.Runtime_error msg ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "error names the bogus container" true
      (contains msg "bogus")

(* --- cache --------------------------------------------------------------- *)

let mk_instance seed =
  let g = Fuzz.Gen.generate seed in
  let symbols = Fuzz.Gen.symbols_for g in
  let text = Serialize.to_string g in
  let key =
    Protocol.cache_key ~sdfg_text:text ~symbols ~config:compiled_1
  in
  (key, text, Exec.Instance.create ~config:compiled_1 ~symbols g)

let test_cache_accounting () =
  let c = Serve.Cache.create ~capacity:2 () in
  let k0, t0, i0 = mk_instance 0 in
  Alcotest.(check bool) "miss on empty" true (Serve.Cache.find c k0 = None);
  ignore (Serve.Cache.add c ~key:k0 ~text:t0 i0);
  Alcotest.(check bool) "hit after add" true (Serve.Cache.find c k0 <> None);
  let k1, t1, i1 = mk_instance 1 in
  ignore (Serve.Cache.add c ~key:k1 ~text:t1 i1);
  (* Touch k0 so k1 is the LRU victim when k2 arrives. *)
  ignore (Serve.Cache.find c k0);
  let k2, t2, i2 = mk_instance 2 in
  ignore (Serve.Cache.add c ~key:k2 ~text:t2 i2);
  Alcotest.(check int) "LRU bound holds" 2 (Serve.Cache.size c);
  Alcotest.(check bool) "LRU victim evicted" true
    (Serve.Cache.find c k1 = None);
  Alcotest.(check bool) "recently-used survivor" true
    (Serve.Cache.find c k0 <> None);
  let s = Serve.Cache.stats c in
  Alcotest.(check int) "hits" 3 s.c_hits;
  Alcotest.(check int) "misses" 2 s.c_misses;
  Alcotest.(check int) "evictions" 1 s.c_evictions;
  (* A racing add returns the incumbent instance, not the newcomer. *)
  let _, _, dup = mk_instance 0 in
  Alcotest.(check bool) "incumbent wins an add race" true
    (Serve.Cache.add c ~key:k0 ~text:t0 dup == i0)

let test_cache_persistence () =
  let dir = tmp_name "sdfg-cache" in
  let c = Serve.Cache.create ~capacity:8 ~dir () in
  let entries = List.map mk_instance [ 0; 1; 2 ] in
  List.iter
    (fun (k, t, i) -> ignore (Serve.Cache.add c ~key:k ~text:t i))
    entries;
  (* Simulated restart: a fresh cache over the same directory comes up
     warm, and its rebuilt instances produce bit-identical runs. *)
  let c' = Serve.Cache.create ~capacity:8 ~dir () in
  Alcotest.(check int) "restart restores all entries" 3 (Serve.Cache.size c');
  List.iteri
    (fun n (k, _, original) ->
      match Serve.Cache.find c' k with
      | None -> Alcotest.fail (Fmt.str "entry %d lost across restart" n)
      | Some rebuilt ->
        let g = Exec.Instance.graph original in
        let symbols = Exec.Instance.symbols original in
        let fresh () = Interp.Profile.make_args ~symbols g in
        let a = fresh () and b = fresh () in
        ignore (Exec.Instance.run ~args:a original);
        ignore (Exec.Instance.run ~args:b rebuilt);
        List.iter2
          (fun (arg, t) (_, t') ->
            Alcotest.(check (list int64))
              (Fmt.str "entry %d: %S identical after restart" n arg)
              (tensor_bits t) (tensor_bits t'))
          a b)
    entries;
  (* A corrupt graph file must be skipped, not fatal. *)
  let k0, _, _ = List.hd entries in
  Out_channel.with_open_bin
    (Filename.concat dir (k0 ^ ".sdfg"))
    (fun oc -> output_string oc "(not an sdfg");
  let c'' = Serve.Cache.create ~capacity:8 ~dir () in
  Alcotest.(check int) "corrupt entry skipped" 2 (Serve.Cache.size c'')

(* Keys [index.json] lists, sorted. *)
let index_keys dir =
  let idx =
    Json.parse
      (In_channel.with_open_bin (Filename.concat dir "index.json")
         In_channel.input_all)
  in
  match Json.member "entries" idx with
  | Some (Json.Arr es) ->
    List.sort compare
      (List.filter_map
         (fun e -> Option.bind (Json.member "key" e) Json.to_string_opt)
         es)
  | _ -> Alcotest.fail "index.json has no entries array"

let test_cache_atomic_writes () =
  let dir = tmp_name "sdfg-cache-atomic" in
  let c = Serve.Cache.create ~capacity:2 ~dir () in
  let entries = List.map mk_instance [ 0; 1; 2; 3 ] in
  List.iter
    (fun (k, t, i) -> ignore (Serve.Cache.add c ~key:k ~text:t i))
    entries;
  let files = Array.to_list (Sys.readdir dir) in
  Alcotest.(check (list string))
    "no temporary file left behind" []
    (List.filter (fun f -> Filename.check_suffix f ".tmp") files);
  let live =
    List.sort compare
      (List.filter_map
         (fun (k, _, _) ->
           if Serve.Cache.find c k <> None then Some k else None)
         entries)
  in
  Alcotest.(check int) "evictions left the capacity" 2 (List.length live);
  Alcotest.(check (list string))
    "index lists exactly the in-memory keys" live (index_keys dir);
  Alcotest.(check (list string))
    "one graph file per in-memory key"
    (List.map (fun k -> k ^ ".sdfg") live)
    (List.sort compare
       (List.filter (fun f -> Filename.check_suffix f ".sdfg") files))

let test_cache_stray_tmp_files () =
  (* what a crash mid-write leaves behind: the previous complete files
     plus partial temporaries, which the loader must ignore *)
  let dir = tmp_name "sdfg-cache-stray" in
  let c = Serve.Cache.create ~capacity:8 ~dir () in
  let entries = List.map mk_instance [ 0; 1; 2 ] in
  List.iter
    (fun (k, t, i) -> ignore (Serve.Cache.add c ~key:k ~text:t i))
    entries;
  let write name contents =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        output_string oc contents)
  in
  write "index.json.tmp" "{\"entries\": [{\"key\": \"garb";
  let k0, t0, _ = List.hd entries in
  write (k0 ^ ".sdfg.tmp") (String.sub t0 0 (String.length t0 / 2));
  let c' = Serve.Cache.create ~capacity:8 ~dir () in
  Alcotest.(check int) "every listed entry loads" 3 (Serve.Cache.size c');
  List.iter
    (fun (k, _, _) ->
      Alcotest.(check bool) "entry present" true (Serve.Cache.find c' k <> None))
    entries

(* Shared cache, concurrent lookups from several domains: every domain's
   runs must be bit-identical to an uncached direct run.  Instances pin
   domains = 1 — the compiled engine's domain pool may only be driven
   from the main domain, which sits idle here. *)
let test_cache_concurrent domains () =
  let seeds = [ 0; 1; 2; 3 ] in
  let cache = Serve.Cache.create ~capacity:8 () in
  let entries =
    List.map
      (fun seed ->
        let k, t, i = mk_instance seed in
        ignore (Serve.Cache.add cache ~key:k ~text:t i);
        let g = Fuzz.Gen.generate seed in
        let symbols = Fuzz.Gen.symbols_for g in
        let expected = Interp.Profile.make_args ~symbols g in
        ignore (Exec.run ~config:compiled_1 ~symbols ~args:expected g);
        (k, g, symbols, expected))
      seeds
  in
  let failures = Atomic.make 0 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for round = 0 to 4 do
              List.iter
                (fun (k, g, symbols, expected) ->
                  ignore (round, d);
                  match Serve.Cache.find cache k with
                  | None -> Atomic.incr failures
                  | Some inst ->
                    let args = Interp.Profile.make_args ~symbols g in
                    ignore (Exec.Instance.run ~args inst);
                    if
                      not
                        (List.for_all2
                           (fun (_, t) (_, t') ->
                             tensor_bits t = tensor_bits t')
                           args expected)
                    then Atomic.incr failures)
                entries
            done))
  in
  List.iter Domain.join spawned;
  Alcotest.(check int)
    (Fmt.str "%d domains: cached runs bit-identical to uncached" domains)
    0 (Atomic.get failures);
  let s = Serve.Cache.stats cache in
  Alcotest.(check int) "every lookup hit"
    (domains * 5 * List.length seeds)
    s.c_hits

(* --- metrics ------------------------------------------------------------- *)

let test_metrics () =
  let m = Serve.Metrics.create () in
  List.iter
    (fun l -> Serve.Metrics.record_request m ~ok:true ~batched:false ~latency_s:l)
    [ 0.010; 0.020; 0.030; 0.040; 0.100 ];
  Serve.Metrics.record_request m ~ok:false ~batched:true ~latency_s:0.5;
  Serve.Metrics.record_shed m;
  Serve.Metrics.queue_changed m 3;
  Serve.Metrics.queue_changed m 1;
  let s = Serve.Metrics.snapshot m in
  Alcotest.(check int) "requests" 6 s.s_requests;
  Alcotest.(check int) "errors" 1 s.s_errors;
  Alcotest.(check int) "shed" 1 s.s_shed;
  Alcotest.(check int) "batched" 1 s.s_batched;
  Alcotest.(check int) "queue depth" 1 s.s_queue_depth;
  Alcotest.(check int) "max queue depth" 3 s.s_max_queue_depth;
  Alcotest.(check bool) "p50 <= p95 <= p99" true
    (s.s_p50_s <= s.s_p95_s && s.s_p95_s <= s.s_p99_s);
  Alcotest.(check (float 1e-9)) "p99 is the tail" 0.5 s.s_p99_s

(* --- server end-to-end --------------------------------------------------- *)

let with_server ?cache_dir ?programs f =
  let socket = tmp_name "sdfg-serve" ^ ".sock" in
  let srv = Serve.Server.start ?cache_dir ?programs ~socket () in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop srv;
      Serve.Server.wait srv)
    (fun () -> f socket srv)

let test_server_basic () =
  with_server ~programs:[ ("mm", Workloads.Kernels.matmul) ]
    (fun socket _srv ->
      let c = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          Alcotest.(check bool) "ping" true (Serve.Client.ping c);
          let symbols = [ ("M", 6); ("N", 5); ("K", 4) ] in
          let g = Workloads.Kernels.matmul () in
          let expected = Interp.Profile.make_args ~symbols g in
          ignore (Exec.run ~config:compiled_1 ~symbols ~args:expected g);
          let check_result tag = function
            | Error e -> Alcotest.fail (tag ^ ": " ^ e)
            | Ok (r : Protocol.run_result) ->
              List.iter
                (fun (n, want) ->
                  match List.assoc_opt n r.rs_outputs with
                  | None -> Alcotest.fail (tag ^ ": missing output " ^ n)
                  | Some got ->
                    Alcotest.(check (list int64))
                      (Fmt.str "%s: %S bit-identical" tag n)
                      (tensor_bits want) (tensor_bits got))
                expected;
              r
          in
          (* By name: first a miss, then a hit; by key: also a hit. *)
          let args () = Interp.Profile.make_args ~symbols g in
          let r1 =
            check_result "by-name"
              (Serve.Client.run ~symbols ~config:compiled_1 ~args:(args ()) c
                 (Protocol.Prog_name "mm"))
          in
          Alcotest.(check bool) "first request misses" false r1.rs_hit;
          let r2 =
            check_result "by-name-again"
              (Serve.Client.run ~symbols ~config:compiled_1 ~args:(args ()) c
                 (Protocol.Prog_name "mm"))
          in
          Alcotest.(check bool) "second request hits" true r2.rs_hit;
          let r3 =
            check_result "by-key"
              (Serve.Client.run ~symbols ~config:compiled_1 ~args:(args ()) c
                 (Protocol.Prog_key r1.rs_key))
          in
          Alcotest.(check bool) "key request hits" true r3.rs_hit;
          (* Errors come back typed, with the connection still usable. *)
          (match
             Serve.Client.run ~symbols c (Protocol.Prog_name "no-such")
           with
          | Error e ->
            Alcotest.(check bool) "unknown program reported" true
              (String.length e > 0)
          | Ok _ -> Alcotest.fail "unknown program must error");
          (match
             Serve.Client.run ~symbols c
               (Protocol.Prog_key (String.make 32 '0'))
           with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "unknown key must error");
          (match
             Serve.Client.run c (Protocol.Prog_sdfg "(garbage")
           with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "unparsable program must error");
          Alcotest.(check bool) "still alive after errors" true
            (Serve.Client.ping c);
          match Serve.Client.stats c with
          | Error e -> Alcotest.fail e
          | Ok j -> (
            match Option.bind (Json.member "requests" j) Json.to_int_opt with
            | Some n ->
              Alcotest.(check bool) "stats counted the runs" true (n >= 3)
            | None -> Alcotest.fail "stats missing request counter")))

(* 100+ concurrent fuzz-generated requests at 2 domains, checked
   bit-identical to direct Exec.run.  Expected outputs are computed
   before the server starts: the domain pool is not reentrant, so the
   executor must be its only user while requests are in flight. *)
let test_server_concurrent () =
  let config =
    Exec.Config.(
      default |> with_engine Interp.Plan.compiled |> with_domains 2)
  in
  let seeds = List.init 10 Fun.id in
  let expected =
    List.map
      (fun seed ->
        let g = Fuzz.Gen.generate seed in
        let symbols = Fuzz.Gen.symbols_for g in
        let args = Interp.Profile.make_args ~symbols g in
        ignore (Exec.run ~config ~symbols ~args g);
        (seed, (Serialize.to_string g, g, symbols, args)))
      seeds
  in
  (* Float WCR/Reduce graphs may legally reorder their accumulation at
     2 domains (same policy as the parallel cross-validation oracle), so
     those compare approximately; everything else must be bit-exact. *)
  let matches g (want : Tensor.t) (got : Tensor.t) =
    if Fuzz.Oracle.float_accumulation g then Tensor.approx_equal want got
    else tensor_bits want = tensor_bits got
  in
  with_server (fun socket srv ->
      let clients = 4 and per_client = 26 in
      let failures = Atomic.make 0 and hits = Atomic.make 0 in
      let threads =
        List.init clients (fun w ->
            Thread.create
              (fun () ->
                let c = Serve.Client.connect socket in
                Fun.protect
                  ~finally:(fun () -> Serve.Client.close c)
                  (fun () ->
                    for i = 0 to per_client - 1 do
                      let seed = (w + (i * clients)) mod List.length seeds in
                      let text, g, symbols, want = List.assoc seed expected in
                      (* make_args is deterministic: these are the same
                         initial inputs the direct run above saw. *)
                      let args = Interp.Profile.make_args ~symbols g in
                      match
                        Serve.Client.run ~symbols ~config ~args c
                          (Protocol.Prog_sdfg text)
                      with
                      | Error _ -> Atomic.incr failures
                      | Ok r ->
                        if r.rs_hit then Atomic.incr hits;
                        if
                          not
                            (List.for_all
                               (fun (n, t) ->
                                 match List.assoc_opt n r.rs_outputs with
                                 | Some t' -> matches g t t'
                                 | None -> false)
                               want)
                        then Atomic.incr failures
                    done))
              ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int)
        (Fmt.str "%d concurrent requests all bit-identical"
           (clients * per_client))
        0 (Atomic.get failures);
      let s = Serve.Cache.stats (Serve.Server.cache srv) in
      Alcotest.(check int) "one plan per distinct graph"
        (List.length seeds) (s.c_entries + s.c_evictions);
      (* At most one miss per distinct graph: later requests are either
         cache hits or batched followers, both reported rs_hit = true. *)
      Alcotest.(check bool) "warm requests hit" true
        (Atomic.get hits >= (clients * per_client) - List.length seeds))

let test_server_persistent_restart () =
  let dir = tmp_name "sdfg-serve-cache" in
  let symbols = [ ("N", 16) ] in
  let g = Workloads.Kernels.copy () in
  let key =
    with_server ~cache_dir:dir (fun socket _srv ->
        let c = Serve.Client.connect socket in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            match
              Serve.Client.run ~symbols ~config:compiled_1
                ~args:(Interp.Profile.make_args ~symbols g)
                c
                (Protocol.Prog_sdfg (Serialize.to_string g))
            with
            | Ok r -> r.rs_key
            | Error e -> Alcotest.fail e))
  in
  (* A restarted daemon over the same cache directory serves the bare
     key — no program text attached — from its warm-loaded cache. *)
  with_server ~cache_dir:dir (fun socket _srv ->
      let c = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let expected = Interp.Profile.make_args ~symbols g in
          ignore (Exec.run ~config:compiled_1 ~symbols ~args:expected g);
          match
            Serve.Client.run ~symbols ~config:compiled_1
              ~args:(Interp.Profile.make_args ~symbols g)
              c (Protocol.Prog_key key)
          with
          | Error e -> Alcotest.fail ("key not served after restart: " ^ e)
          | Ok r ->
            Alcotest.(check bool) "restart serves the key as a hit" true
              r.rs_hit;
            List.iter
              (fun (n, want) ->
                match List.assoc_opt n r.rs_outputs with
                | Some got ->
                  Alcotest.(check (list int64))
                    (Fmt.str "%S identical after restart" n)
                    (tensor_bits want) (tensor_bits got)
                | None -> Alcotest.fail ("missing output " ^ n))
              expected))

(* Ndlang source over the wire: the daemon elaborates the text, keys the
   cache on the canonical serialized graph (so resubmission — and the
   same graph submitted as .sdfg text — hit), and the run is
   bit-identical to local elaboration + direct execution. *)
let test_server_ndlang () =
  let src = "# axpy over the wire\ninput A[N]\ninput B[N]\noutput C[N]\nC = A * 2.0 + B\n" in
  let symbols = [ ("N", 8) ] in
  let g = Builder.Ndlang.parse src in
  let expected = Interp.Profile.make_args ~symbols g in
  ignore (Exec.run ~config:compiled_1 ~symbols ~args:expected g);
  with_server (fun socket _srv ->
      let c = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let args () = Interp.Profile.make_args ~symbols g in
          let run tag program =
            match
              Serve.Client.run ~symbols ~config:compiled_1 ~args:(args ()) c
                program
            with
            | Error e -> Alcotest.fail (tag ^ ": " ^ e)
            | Ok (r : Protocol.run_result) ->
              List.iter
                (fun (n, want) ->
                  match List.assoc_opt n r.rs_outputs with
                  | None -> Alcotest.fail (tag ^ ": missing output " ^ n)
                  | Some got ->
                    Alcotest.(check (list int64))
                      (Fmt.str "%s: %S bit-identical" tag n)
                      (tensor_bits want) (tensor_bits got))
                expected;
              r
          in
          let r1 = run "ndlang" (Protocol.Prog_ndlang src) in
          Alcotest.(check bool) "first submission misses" false r1.rs_hit;
          let r2 = run "ndlang-again" (Protocol.Prog_ndlang src) in
          Alcotest.(check bool) "resubmission hits" true r2.rs_hit;
          Alcotest.(check string) "same key" r1.rs_key r2.rs_key;
          (* The canonical form is the cache identity: the elaborated
             graph submitted as .sdfg text shares the entry. *)
          let r3 = run "as-sdfg" (Protocol.Prog_sdfg (Serialize.to_string g)) in
          Alcotest.(check string) "text and sdfg share a key" r1.rs_key
            r3.rs_key;
          Alcotest.(check bool) "sdfg form hits" true r3.rs_hit;
          (* Malformed source errors with the line, connection intact. *)
          (match
             Serve.Client.run ~symbols c (Protocol.Prog_ndlang "output Z[N]\nZ = nope + 1.0\n")
           with
          | Error e ->
            let contains s sub =
              let n = String.length s and m = String.length sub in
              let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
              go 0
            in
            Alcotest.(check bool) "error names the line" true
              (contains e "line 2")
          | Ok _ -> Alcotest.fail "undeclared container must error");
          Alcotest.(check bool) "alive after ndlang error" true
            (Serve.Client.ping c)))

(* The scenario workloads' Ndlang sources — the exact strings
   [Workloads.Attention] authors — accepted end-to-end: elaborated by
   the daemon, run bit-identically to local elaboration + direct
   execution on the same deterministic arguments, and keyed by the
   canonical serialized graph so resubmission hits. *)
let test_server_workload_ndlang () =
  let cases =
    [ ( "attention", Workloads.Attention.attention_src,
        Workloads.Attention.attention_mini,
        Workloads.Attention.attention_args, "O" );
      ( "conv-im2col", Workloads.Attention.conv_src,
        Workloads.Attention.conv_mini, Workloads.Attention.conv_args, "O2" )
    ]
  in
  with_server (fun socket _srv ->
      let c = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          List.iter
            (fun (tag, src, symbols, args_of, out) ->
              let g = Builder.Ndlang.parse src in
              let expected = args_of symbols in
              ignore (Exec.run ~config:compiled_1 ~symbols ~args:expected g);
              let run label =
                match
                  Serve.Client.run ~symbols ~config:compiled_1
                    ~args:(args_of symbols) c (Protocol.Prog_ndlang src)
                with
                | Error e -> Alcotest.fail (tag ^ " " ^ label ^ ": " ^ e)
                | Ok (r : Protocol.run_result) ->
                  (match List.assoc_opt out r.rs_outputs with
                  | None ->
                    Alcotest.fail
                      (Fmt.str "%s %s: missing output %S" tag label out)
                  | Some got ->
                    Alcotest.(check (list int64))
                      (Fmt.str "%s %s: %S matches direct execution" tag
                         label out)
                      (tensor_bits (List.assoc out expected))
                      (tensor_bits got));
                  r
              in
              let r1 = run "first" in
              Alcotest.(check bool)
                (tag ^ ": first submission misses") false r1.rs_hit;
              let r2 = run "again" in
              Alcotest.(check bool)
                (tag ^ ": resubmission hits") true r2.rs_hit;
              Alcotest.(check string)
                (tag ^ ": content-addressed key is stable") r1.rs_key
                r2.rs_key)
            cases))

(* A streaming session over the wire: stream_open holds the channel
   across push frames; output chunks flow back mid-run; the final done
   frame carries report + outputs; everything is bit-identical to a
   batch run with the same elements pre-loaded.  A second session over
   the same program is a plan-cache hit. *)
let test_server_stream () =
  let name, mk, input, output, symbols =
    match
      List.find_opt (fun (_, _, _, o, _) -> o <> None) Workloads.Streaming.all
    with
    | Some (n, mk, i, Some o, syms) -> (n, mk, i, o, syms)
    | _ -> Alcotest.fail "no streaming workload with an output stream"
  in
  ignore name;
  let g = mk () in
  let values = Workloads.Streaming.sample_values 40 7 in
  let inst = Exec.Instance.create ~config:compiled_1 ~symbols g in
  let batch_args = Interp.Profile.make_args ~symbols g in
  ignore (Exec.Instance.run ~args:batch_args ~stream_args:[ (input, values) ] inst);
  let batch_out = Exec.Instance.stream_contents inst output in
  let chunks =
    let rec go i acc =
      if i >= Array.length values then List.rev acc
      else
        let len = min 7 (Array.length values - i) in
        go (i + len) (Array.sub values i len :: acc)
    in
    go 0 []
  in
  with_server (fun socket _srv ->
      let c = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let session tag =
            match
              (* make_args is deterministic: the server starts from the
                 same initial tensors the batch baseline saw. *)
              Serve.Client.run_stream ~symbols ~config:compiled_1
                ~args:(Interp.Profile.make_args ~symbols g) ~input ~output c
                (Protocol.Prog_sdfg (Serialize.to_string g))
                chunks
            with
            | Error e -> Alcotest.fail (tag ^ ": " ^ e)
            | Ok (r, data) ->
              let got = Array.concat data in
              Alcotest.(check int)
                (tag ^ ": output element count")
                (Array.length batch_out) (Array.length got);
              Alcotest.(check bool)
                (tag ^ ": streamed output bit-identical to batch")
                true (got = batch_out);
              List.iter
                (fun (n, want) ->
                  match List.assoc_opt n r.rs_outputs with
                  | None -> Alcotest.fail (tag ^ ": missing output " ^ n)
                  | Some t ->
                    Alcotest.(check (list int64))
                      (Fmt.str "%s: %S bit-identical" tag n)
                      (tensor_bits want) (tensor_bits t))
                batch_args;
              r
          in
          let r1 = session "first session" in
          Alcotest.(check bool) "first session misses" false r1.rs_hit;
          let r2 = session "second session" in
          Alcotest.(check bool) "second session hits the plan cache" true
            r2.rs_hit;
          (* The connection is a plain request channel again. *)
          Alcotest.(check bool) "alive after sessions" true
            (Serve.Client.ping c)))

(* A same-key batch whose leader is a key-only request for an evicted
   entry resolves from the follower that resent the program text: both
   requests succeed with bit-identical outputs.  A held streaming
   session keeps the executor busy while the two requests queue up
   behind it in order. *)
let test_server_batch_key_only_leader () =
  let g = Workloads.Kernels.copy () in
  let text = Serialize.to_string g in
  let symbols = [ ("N", 16) ] in
  let run_text c syms =
    match
      Serve.Client.run ~symbols:syms ~config:compiled_1
        ~args:(Interp.Profile.make_args ~symbols:syms g)
        c (Protocol.Prog_sdfg text)
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let srv =
    Serve.Server.start ~capacity:1 ~socket:(tmp_name "sdfg-serve" ^ ".sock")
      ()
  in
  let socket = Serve.Server.socket_path srv in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop srv;
      Serve.Server.wait srv)
    (fun () ->
      let c = Serve.Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          (* 1. cache the program, then evict it with another valuation *)
          let key = (run_text c symbols).rs_key in
          ignore (run_text c [ ("N", 8) ]);
          let cs = Serve.Cache.stats (Serve.Server.cache srv) in
          Alcotest.(check bool) "first key evicted" true (cs.c_evictions >= 1);
          (* 2. hold the executor with an open streaming session *)
          let w_name, w_mk, w_input, _, w_syms =
            List.hd Workloads.Streaming.all
          in
          Alcotest.(check string) "session query" "window" w_name;
          (match
             Serve.Client.request c
               (Protocol.Stream_open
                  { sq_run =
                      { rq_program =
                          Protocol.Prog_sdfg (Serialize.to_string (w_mk ()));
                        rq_symbols = w_syms; rq_config = compiled_1;
                        rq_args = [] };
                    sq_input = w_input; sq_output = None })
           with
          | Protocol.Resp_stream_opened _ -> ()
          | _ -> Alcotest.fail "stream_open not acknowledged");
          let depth () =
            (Serve.Metrics.snapshot (Serve.Server.metrics srv)).s_queue_depth
          in
          let await n =
            let t0 = Unix.gettimeofday () in
            while depth () <> n do
              if Unix.gettimeofday () -. t0 > 10. then
                Alcotest.failf "queue depth never reached %d" n;
              Thread.delay 0.002
            done
          in
          await 0;
          (* 3. a key-only request, then a text request, for that key *)
          let submit program =
            let result = ref (Error "not run") in
            let th =
              Thread.create
                (fun () ->
                  let c' = Serve.Client.connect socket in
                  Fun.protect
                    ~finally:(fun () -> Serve.Client.close c')
                    (fun () ->
                      result :=
                        Serve.Client.run ~symbols ~config:compiled_1
                          ~args:(Interp.Profile.make_args ~symbols g)
                          c' program))
                ()
            in
            (th, result)
          in
          let th_key, by_key = submit (Protocol.Prog_key key) in
          await 1;
          let th_text, by_text = submit (Protocol.Prog_sdfg text) in
          await 2;
          (* 4. release the executor: the batch runs *)
          (match Serve.Client.request c Protocol.Stream_close with
          | Protocol.Resp_stream_done _ -> ()
          | _ -> Alcotest.fail "session did not finish");
          Thread.join th_key;
          Thread.join th_text;
          let outputs tag = function
            | Ok (r : Protocol.run_result) ->
              Alcotest.(check string) (tag ^ ": same key") key r.rs_key;
              r.rs_outputs
            | Error e -> Alcotest.failf "%s failed: %s" tag e
          in
          let ok = outputs "key-only leader" !by_key in
          let ot = outputs "text follower" !by_text in
          List.iter2
            (fun (n1, t1) (n2, t2) ->
              Alcotest.(check string) "output order" n1 n2;
              Alcotest.(check (list int64))
                (Fmt.str "%S bit-identical" n1)
                (tensor_bits t1) (tensor_bits t2))
            ok ot))

let test_server_shutdown_request () =
  let socket = tmp_name "sdfg-serve" ^ ".sock" in
  let srv = Serve.Server.start ~socket () in
  let c = Serve.Client.connect socket in
  Serve.Client.shutdown c;
  Serve.Client.close c;
  (* Must return promptly: the accept loop polls its stop flag. *)
  Serve.Server.wait srv;
  Alcotest.(check bool) "socket file released" false (Sys.file_exists socket)

(* --- the wire, pinned ---------------------------------------------------- *)

(* The one place the tests spell out a [stream_open] request. *)
let stream_open ?(config = compiled_1) ?(args = []) ?output ~symbols ~input
    program =
  Protocol.Stream_open
    { sq_run =
        { rq_program = program; rq_symbols = symbols; rq_config = config;
          rq_args = args };
      sq_input = input; sq_output = output }

(* One request and one response of each kind, byte for byte, and each
   line decodes to a value that encodes to the same bytes. *)
let test_wire_golden () =
  let args =
    [ ("A", Tensor.of_float_array T.F64 [| 2 |] [| 1.5; -0. |]);
      ("B", Tensor.of_int_array T.I32 [| 2 |] [| 3; -4 |]) ]
  in
  let symbols = [ ("N", 2) ] in
  let rq program : Protocol.run_request =
    { rq_program = program; rq_symbols = symbols; rq_config = compiled_1;
      rq_args = args }
  in
  let key = String.make 32 'a' in
  let requests =
    [ ("run sdfg", Protocol.Run (rq (Protocol.Prog_sdfg "(sdfg text)")));
      ( "run ndlang",
        Protocol.Run
          { rq_program = Protocol.Prog_ndlang "let y = x";
            rq_symbols = []; rq_config = Exec.Config.default; rq_args = [] }
      );
      ("run name", Protocol.Run (rq (Protocol.Prog_name "mm")));
      ("run key", Protocol.Run (rq (Protocol.Prog_key key)));
      ( "stream_open with output",
        stream_open ~args ~symbols ~input:"in_q" ~output:"out_q"
          (Protocol.Prog_name "filter") );
      ( "stream_open without output",
        stream_open ~config:Exec.Config.default ~symbols:[] ~input:"in_q"
          (Protocol.Prog_key key) );
      ("stream_push", Protocol.Stream_push [| T.F 0.25; T.I 7; T.B true |]);
      ("stream_close", Protocol.Stream_close);
      ("stats", Protocol.Stats);
      ("ping", Protocol.Ping);
      ("shutdown", Protocol.Shutdown) ]
  in
  let result : Protocol.run_result =
    { rs_key = key; rs_hit = true;
      rs_report = Json.Obj [ ("wall_s", Json.Float 0.5) ];
      rs_outputs = args }
  in
  let responses =
    [ ("run hit", Protocol.Resp_run result);
      ("run miss", Protocol.Resp_run { result with rs_hit = false });
      ("stream opened", Protocol.Resp_stream_opened { so_key = key });
      ("stream data", Protocol.Resp_stream_data [| T.F (-1.); T.I 2 |]);
      ("stream done", Protocol.Resp_stream_done result);
      ("stats", Protocol.Resp_stats (Json.Obj [ ("requests", Json.Int 3) ]));
      ("pong", Protocol.Resp_pong);
      ("shutdown", Protocol.Resp_shutdown);
      ("error", Protocol.Resp_error { err = "boom"; shed = false });
      ( "shed",
        Protocol.Resp_error
          { err = "server overloaded: run queue full"; shed = true } ) ]
  in
  let line enc decode (label, v) =
    let s = Json.to_string (enc v) in
    (match decode (Json.parse s) with
    | Error e -> Alcotest.failf "%s: %s" label e
    | Ok v' ->
      Alcotest.(check string) (label ^ ": decodes to itself") s
        (Json.to_string (enc v')));
    label ^ "\t" ^ s
  in
  let lines =
    List.mapi
      (fun i r ->
        line (Protocol.request_to_json ~id:(i + 1)) Protocol.request_of_json r)
      requests
    @ List.mapi
        (fun i r ->
          line
            (Protocol.response_to_json ~id:(i + 1))
            Protocol.response_of_json r)
        responses
  in
  Test_report.check_golden "serve.wire.golden" (String.concat "\n" lines ^ "\n")

(* --- session edges ------------------------------------------------------- *)

(* A raw connection: frames go out under any id, and a reader thread
   keeps every response with its id, so a test can see whether an
   answer has arrived, or wait for one with a deadline. *)
type raw = {
  fd : Unix.file_descr;
  oc : out_channel;
  lock : Mutex.t;
  mutable got : (int * Protocol.response) list;  (* newest first *)
  mutable reader : Thread.t option;
}

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let r =
    { fd; oc = Unix.out_channel_of_descr fd; lock = Mutex.create ();
      got = []; reader = None }
  in
  let ic = Unix.in_channel_of_descr fd in
  let rec read () =
    match Protocol.read_frame ic with
    | None -> ()
    | Some payload ->
      let j = Json.parse payload in
      (match Protocol.response_of_json j with
      | Ok resp ->
        Mutex.lock r.lock;
        r.got <- (Protocol.request_id j, resp) :: r.got;
        Mutex.unlock r.lock
      | Error e -> failwith e);
      read ()
    | exception (Sys_error _ | End_of_file | Unix.Unix_error _) -> ()
  in
  r.reader <- Some (Thread.create read ());
  r

let raw_send r ~id req =
  Protocol.write_frame r.oc (Json.to_string (Protocol.request_to_json ~id req))

(* Answers to [id] so far that are not output chunks, oldest first: for
   a [stream_open], the ack and then the end. *)
let raw_answers r ~id =
  Mutex.lock r.lock;
  let got = r.got in
  Mutex.unlock r.lock;
  List.rev
    (List.filter_map
       (fun (i, resp) ->
         match resp with
         | Protocol.Resp_stream_data _ -> None
         | resp -> if i = id then Some resp else None)
       got)

(* The output chunks answered to [id], in arrival order, concatenated. *)
let raw_data r ~id =
  Mutex.lock r.lock;
  let got = r.got in
  Mutex.unlock r.lock;
  Array.concat
    (List.rev
       (List.filter_map
          (fun (i, resp) ->
            match resp with
            | Protocol.Resp_stream_data vs when i = id -> Some vs
            | _ -> None)
          got))

(* The [n]th answer of {!raw_answers}, waiting up to [within] seconds. *)
let raw_nth ?(within = 10.) r ~id n =
  let t0 = Unix.gettimeofday () in
  let rec poll () =
    match List.nth_opt (raw_answers r ~id) n with
    | Some resp -> resp
    | None ->
      if Unix.gettimeofday () -. t0 > within then
        Alcotest.failf "no answer %d to request %d within %.0f s" n id within;
      Thread.delay 0.002;
      poll ()
  in
  poll ()

(* Drop the connection without a word, the way a vanishing client does. *)
let raw_close r =
  (try Unix.shutdown r.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Option.iter Thread.join r.reader;
  try Unix.close r.fd with Unix.Unix_error _ -> ()

let describe = function
  | Protocol.Resp_stream_opened _ -> "opened"
  | Protocol.Resp_stream_done _ -> "done"
  | Protocol.Resp_pong -> "pong"
  | Protocol.Resp_error { err; _ } -> "error: " ^ err
  | _ -> "other"

let check_answer tag want resp =
  Alcotest.(check string) tag want (describe resp)

let await_depth srv n =
  let t0 = Unix.gettimeofday () in
  while
    (Serve.Metrics.snapshot (Serve.Server.metrics srv)).s_queue_depth <> n
  do
    if Unix.gettimeofday () -. t0 > 10. then
      Alcotest.failf "queue depth never reached %d" n;
    Thread.delay 0.002
  done

let window_query () =
  match Workloads.Streaming.all with
  | ("window", mk, input, _, symbols) :: _ ->
    (Protocol.Prog_sdfg (Serialize.to_string (mk ())), input, symbols)
  | _ -> Alcotest.fail "the first streaming workload is not window"

(* Open a window-query session on [r] under id 1 and wait for the ack. *)
let open_window r =
  let program, input, symbols = window_query () in
  raw_send r ~id:1 (stream_open ~symbols ~input program);
  check_answer "session opened" "opened" (raw_nth r ~id:1 0)

(* Session A: opened and never closed, so it holds the executor until
   [release].  Returns once the executor has taken it off the queue. *)
let hold_executor socket srv =
  let a = raw_connect socket in
  open_window a;
  await_depth srv 0;
  a

let release a =
  raw_send a ~id:2 Protocol.Stream_close;
  check_answer "held session ends" "done" (raw_nth a ~id:1 1)

let with_held_executor f =
  with_server (fun socket srv ->
      let a = hold_executor socket srv in
      Fun.protect ~finally:(fun () -> raw_close a) (fun () -> f socket srv a))

(* A queued session that is closed refuses a later push and still runs
   to the end; a second open on its connection is refused. *)
let test_session_closed_push () =
  with_held_executor (fun socket srv a ->
      let b = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> raw_close b)
        (fun () ->
          open_window b;
          await_depth srv 1;
          let chunk = Workloads.Streaming.sample_values 5 3 in
          raw_send b ~id:2 (Protocol.Stream_push chunk);
          raw_send b ~id:3 Protocol.Stream_close;
          raw_send b ~id:4 (Protocol.Stream_push chunk);
          check_answer "push after close" "error: stream already closed"
            (raw_nth b ~id:4 0);
          let program, input, symbols = window_query () in
          raw_send b ~id:5 (stream_open ~symbols ~input program);
          check_answer "second open"
            "error: stream already open on this connection"
            (raw_nth b ~id:5 0);
          release a;
          check_answer "closed session ends" "done" (raw_nth b ~id:1 1)))

(* Backpressure: a queued session's reader stops at the chunk bound, so
   a ping behind 300 pushes waits until the executor drains them; the
   streamed output is bit-identical to the batch run. *)
let test_session_backpressure () =
  let mk, input, output, symbols =
    match
      List.find_opt (fun (n, _, _, _, _) -> n = "filter")
        Workloads.Streaming.all
    with
    | Some (_, mk, input, Some output, symbols) -> (mk, input, output, symbols)
    | _ -> Alcotest.fail "no filter query"
  in
  let g = mk () in
  let values = Workloads.Streaming.sample_values 300 11 in
  let inst = Exec.Instance.create ~config:compiled_1 ~symbols g in
  ignore (Exec.Instance.run ~stream_args:[ (input, values) ] inst);
  let batch_out = Exec.Instance.stream_contents inst output in
  with_held_executor (fun socket _srv a ->
      let d = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> raw_close d)
        (fun () ->
          raw_send d ~id:1
            (stream_open ~symbols ~input ~output
               (Protocol.Prog_sdfg (Serialize.to_string g)));
          check_answer "session opened" "opened" (raw_nth d ~id:1 0);
          Array.iteri
            (fun i v -> raw_send d ~id:(2 + i) (Protocol.Stream_push [| v |]))
            values;
          raw_send d ~id:302 Protocol.Ping;
          Thread.delay 0.5;
          Alcotest.(check int) "ping waits behind the chunk bound" 0
            (List.length (raw_answers d ~id:302));
          release a;
          check_answer "ping answered once the session runs" "pong"
            (raw_nth d ~id:302 0);
          raw_send d ~id:303 Protocol.Stream_close;
          check_answer "session ends" "done" (raw_nth d ~id:1 1);
          let got = raw_data d ~id:1 in
          Alcotest.(check int) "output element count"
            (Array.length batch_out) (Array.length got);
          Alcotest.(check bool) "streamed output bit-identical to batch" true
            (got = batch_out)))

(* A session whose input names no container ends in an error; later
   pushes find no open stream, and the connection still answers. *)
let test_session_unknown_input () =
  with_held_executor (fun socket _srv a ->
      let e = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> raw_close e)
        (fun () ->
          let program, _, symbols = window_query () in
          raw_send e ~id:1 (stream_open ~symbols ~input:"nope" program);
          check_answer "session opened" "opened" (raw_nth e ~id:1 0);
          release a;
          check_answer "session fails" "error: no runtime container \"nope\""
            (raw_nth e ~id:1 1);
          raw_send e ~id:2
            (Protocol.Stream_push (Workloads.Streaming.sample_values 2 1));
          check_answer "push after the end"
            "error: no open stream on this connection" (raw_nth e ~id:2 0);
          raw_send e ~id:3 Protocol.Ping;
          check_answer "still answers" "pong" (raw_nth e ~id:3 0)))

(* The client holding the executor vanishes without [stream_close]:
   its session ends, and every queued session still completes. *)
let test_session_client_vanishes () =
  with_server (fun socket srv ->
      let a = hold_executor socket srv in
      let queued =
        List.init 2 (fun i ->
            let r = raw_connect socket in
            open_window r;
            await_depth srv (i + 1);
            raw_send r ~id:2
              (Protocol.Stream_push (Workloads.Streaming.sample_values 9 i));
            raw_send r ~id:3 Protocol.Stream_close;
            r)
      in
      raw_close a;
      List.iter
        (fun r ->
          check_answer "queued session completes" "done" (raw_nth r ~id:1 1);
          raw_close r)
        queued)

(* A shutdown request while another connection holds a session open:
   the held query ends done over the chunks it was sent, the queued one
   is refused, and [wait] returns. *)
let test_shutdown_with_open_session () =
  let socket = tmp_name "sdfg-serve" ^ ".sock" in
  let srv = Serve.Server.start ~socket () in
  let a = hold_executor socket srv in
  raw_send a ~id:2
    (Protocol.Stream_push (Workloads.Streaming.sample_values 10 5));
  let b = raw_connect socket in
  open_window b;
  await_depth srv 1;
  let c = Serve.Client.connect socket in
  Serve.Client.shutdown c;
  Serve.Client.close c;
  let returned = Atomic.make false in
  let waiter =
    Thread.create (fun () -> Serve.Server.wait srv; Atomic.set returned true) ()
  in
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get returned)) && Unix.gettimeofday () -. t0 < 5. do
    Thread.delay 0.01
  done;
  let in_time = Atomic.get returned in
  if in_time then begin
    check_answer "held session ends" "done" (raw_nth a ~id:1 1);
    check_answer "queued session refused" "error: server shutting down"
      (raw_nth b ~id:1 1)
  end;
  (* Dropping A lets a daemon that missed the deadline exit too. *)
  raw_close a;
  Thread.join waiter;
  raw_close b;
  Alcotest.(check bool) "wait returns within 5 s" true in_time;
  Alcotest.(check bool) "socket file released" false (Sys.file_exists socket)

let suite =
  [ Alcotest.test_case "Sdfg.hash stability" `Quick test_hash;
    Alcotest.test_case "Config validation is typed" `Quick
      test_config_validate;
    Alcotest.test_case "Config domains precedence" `Quick
      test_config_precedence;
    Alcotest.test_case "Config JSON round-trip" `Quick test_config_json;
    Alcotest.test_case "config stream knobs" `Quick
      test_config_stream_knobs;
    Alcotest.test_case "length-prefixed frames" `Quick test_frames;
    Alcotest.test_case "tensor codec is bit-exact" `Quick test_tensor_codec;
    Alcotest.test_case "request JSON round-trip" `Quick
      test_request_roundtrip;
    Alcotest.test_case "cache key identity" `Quick test_cache_key;
    Alcotest.test_case "instance runs bit-identical" `Quick
      test_instance_bit_identical;
    Alcotest.test_case "cache hit/miss/evict accounting" `Quick
      test_cache_accounting;
    Alcotest.test_case "cache persists across restart" `Quick
      test_cache_persistence;
    Alcotest.test_case "cache shared by 2 domains" `Quick
      (test_cache_concurrent 2);
    Alcotest.test_case "cache shared by 4 domains" `Quick
      (test_cache_concurrent 4);
    Alcotest.test_case "metrics counters and percentiles" `Quick
      test_metrics;
    Alcotest.test_case "server round-trip, cache, errors" `Quick
      test_server_basic;
    Alcotest.test_case "server: 104 concurrent requests bit-identical"
      `Quick test_server_concurrent;
    Alcotest.test_case "server: persistent cache across restart" `Quick
      test_server_persistent_restart;
    Alcotest.test_case "server: ndlang source submissions" `Quick
      test_server_ndlang;
    Alcotest.test_case "server: attention and conv ndlang end-to-end"
      `Quick test_server_workload_ndlang;
    Alcotest.test_case "server: streaming session over the wire" `Quick
      test_server_stream;
    Alcotest.test_case "server: key-only leader of an evicted key" `Quick
      test_server_batch_key_only_leader;
    Alcotest.test_case "server: shutdown request" `Quick
      test_server_shutdown_request;
    Alcotest.test_case "cache writes by rename, index mirrors memory" `Quick
      test_cache_atomic_writes;
    Alcotest.test_case "cache ignores partial temporary files" `Quick
      test_cache_stray_tmp_files;
    Alcotest.test_case "wire format golden" `Quick test_wire_golden;
    Alcotest.test_case "session: closed, then push refused" `Quick
      test_session_closed_push;
    Alcotest.test_case "session: backpressure at the chunk bound" `Quick
      test_session_backpressure;
    Alcotest.test_case "session: input names no container" `Quick
      test_session_unknown_input;
    Alcotest.test_case "session: holding client vanishes" `Quick
      test_session_client_vanishes;
    Alcotest.test_case "server: shutdown with a session held open" `Quick
      test_shutdown_with_open_session ]
