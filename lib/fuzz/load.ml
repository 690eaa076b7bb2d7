(* Serve-daemon load generator built on the fuzzer's graph generator.

   Every worker thread owns one connection and replays a deterministic
   slice of the request schedule, so a run is reproducible end-to-end:
   request [i] always carries the graph of seed [i mod distinct] with
   {!Gen.symbols_for} sizes and {!Interp.Profile.make_args} inputs.
   Graphs, inputs and learned cache keys are shared across workers
   behind one mutex — generation is deterministic, so sharing changes
   nothing semantically, and it makes the request mix realistic: a seed
   is shipped as serialized text once, then resubmitted by key. *)

module Json = Obs.Json
module Exec = Interp.Exec
module Tensor = Interp.Tensor
module Serialize = Sdfg_ir.Serialize

type outcome = {
  o_requests : int;
  o_ok : int;
  o_errors : int;
  o_hits : int;
  o_mismatches : int;
  o_wall_s : float;
  o_rps : float;
}

type tally = {
  mutable t_ok : int;
  mutable t_errors : int;
  mutable t_hits : int;
  mutable t_mismatches : int;
}

(* Per-run state shared by all workers: each seed's generated graph,
   sizes and inputs, plus the cache key learned from its first
   response.  All access behind [lock]. *)
type shared = {
  lock : Mutex.t;
  material : (int, Sdfg_ir.Sdfg.t * (string * int) list
                   * (string * Tensor.t) list) Hashtbl.t;
  keys : (int, string) Hashtbl.t;
  gen_config : Gen.config;
}

let locked sh f =
  Mutex.lock sh.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.lock) f

let material_for sh seed =
  locked sh (fun () ->
      match Hashtbl.find_opt sh.material seed with
      | Some m -> m
      | None ->
        let g = Gen.generate ~config:sh.gen_config seed in
        let symbols = Gen.symbols_for g in
        let args = Interp.Profile.make_args ~symbols g in
        let m = (g, symbols, args) in
        Hashtbl.replace sh.material seed m;
        m)

(* Bit equality, except graphs with float accumulations run at > 1
   domain, where reduction order is legal to change (same policy as the
   parallel cross-validation oracle). *)
let outputs_match g config (outputs : (string * Tensor.t) list) expected =
  let approx =
    Oracle.float_accumulation g && Exec.Config.resolved_domains config > 1
  in
  List.for_all
    (fun (name, want) ->
      match List.assoc_opt name outputs with
      | None -> false
      | Some got ->
        if approx then Tensor.approx_equal got want else Tensor.equal got want)
    expected

(* Direct verification runs execute in this process, and the compiled
   engine's domain pool is not reentrant — one worker at a time may be
   inside {!Exec.run}.  Workers spend their time blocked on the socket
   anyway, so serializing the (optional) verification step costs little
   concurrency. *)
let verify_lock = Mutex.create ()

(* One request through an open connection: text on a seed's first
   submission, [Prog_key] afterwards (the protocol's fast path, which
   skips shipping and parsing the graph), falling back to text when the
   key was evicted meanwhile. *)
let one_request sh c ~config ~verify ~seed tally =
  let g, symbols, args = material_for sh seed in
  let send program = Serve.Client.run ~symbols ~config ~args c program in
  let send_text () =
    send (Serve.Protocol.Prog_sdfg (Serialize.to_string g))
  in
  let result =
    match locked sh (fun () -> Hashtbl.find_opt sh.keys seed) with
    | None -> send_text ()
    | Some key -> (
      match send (Serve.Protocol.Prog_key key) with
      | Error _ ->
        locked sh (fun () -> Hashtbl.remove sh.keys seed);
        send_text ()
      | ok -> ok)
  in
  match result with
  | Error _ -> tally.t_errors <- tally.t_errors + 1
  | Ok r ->
    tally.t_ok <- tally.t_ok + 1;
    locked sh (fun () ->
        Hashtbl.replace sh.keys seed r.Serve.Protocol.rs_key);
    if r.Serve.Protocol.rs_hit then tally.t_hits <- tally.t_hits + 1;
    if verify then begin
      let expected = Interp.Profile.make_args ~symbols g in
      let ok =
        Mutex.lock verify_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock verify_lock)
          (fun () ->
            match Exec.run ~config ~symbols ~args:expected g with
            | (_ : Obs.Report.t) ->
              outputs_match g config r.Serve.Protocol.rs_outputs expected
            | exception _ -> false)
      in
      if not ok then tally.t_mismatches <- tally.t_mismatches + 1
    end

(* A dead daemon or a broken connection must surface as counted errors
   (and a non-zero exit from the CLI), never as a silently-dead worker
   thread reporting zero of everything. *)
let worker sh ~socket ~config ~verify ~indices ~distinct tally =
  match Serve.Client.connect socket with
  | exception _ -> tally.t_errors <- tally.t_errors + List.length indices
  | c ->
    Fun.protect
      ~finally:(fun () -> try Serve.Client.close c with _ -> ())
      (fun () ->
        List.iter
          (fun i ->
            try one_request sh c ~config ~verify ~seed:(i mod distinct) tally
            with _ -> tally.t_errors <- tally.t_errors + 1)
          indices)

let run ?(clients = 4) ?(distinct = 8) ?(verify = false)
    ?(config = Exec.Config.default) ?(gen_config = Gen.default)
    ?(prime = false) ~socket ~requests () =
  if requests < 0 then invalid_arg "Load.run: requests must be >= 0";
  let clients = max 1 (min clients (max 1 requests)) in
  let distinct = max 1 distinct in
  let sh =
    { lock = Mutex.create (); material = Hashtbl.create 16;
      keys = Hashtbl.create 16; gen_config }
  in
  (* Priming (unmeasured): submit every distinct seed once so the
     daemon's cache and the workers' key table are warm before the
     clock starts — the measured phase is then pure steady state. *)
  if prime then begin
    let c = Serve.Client.connect socket in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        let scratch =
          { t_ok = 0; t_errors = 0; t_hits = 0; t_mismatches = 0 }
        in
        for seed = 0 to distinct - 1 do
          one_request sh c ~config ~verify:false ~seed scratch
        done)
  end;
  let slices = Array.make clients [] in
  for i = requests - 1 downto 0 do
    slices.(i mod clients) <- i :: slices.(i mod clients)
  done;
  let tallies =
    Array.init clients (fun _ ->
        { t_ok = 0; t_errors = 0; t_hits = 0; t_mismatches = 0 })
  in
  let t0 = Obs.Collect.now () in
  let threads =
    Array.to_list
      (Array.mapi
         (fun w indices ->
           Thread.create
             (fun () ->
               worker sh ~socket ~config ~verify ~indices ~distinct
                 tallies.(w))
             ())
         slices)
  in
  List.iter Thread.join threads;
  let wall = Obs.Collect.now () -. t0 in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 tallies in
  let ok = sum (fun t -> t.t_ok) in
  { o_requests = requests;
    o_ok = ok;
    o_errors = sum (fun t -> t.t_errors);
    o_hits = sum (fun t -> t.t_hits);
    o_mismatches = sum (fun t -> t.t_mismatches);
    o_wall_s = wall;
    o_rps = (if wall > 0. then float_of_int ok /. wall else 0.) }

let outcome_to_json o =
  Json.Obj
    [ ("requests", Json.Int o.o_requests);
      ("ok", Json.Int o.o_ok);
      ("errors", Json.Int o.o_errors);
      ("hits", Json.Int o.o_hits);
      ("mismatches", Json.Int o.o_mismatches);
      ("wall_s", Json.Float o.o_wall_s);
      ("rps", Json.Float o.o_rps) ]
