(* Execution entry points: the configuration, the one environment
   constructor, reports, one-shot runs and reusable instances.  The
   engines live below this module — {!Reference} (the oracle and the run
   state), {!Plan} (the compiled engine) and {!Pipeline} (streaming) —
   and the constructor picks the per-state executor once, from the
   config's engine. *)

open Sdfg_ir
open Defs
open Tasklang.Types

exception Runtime_error = Reference.Runtime_error

type engine = Reference.engine
type domain_policy = Reference.domain_policy = Fixed of int | Predictive of int

let register_external = Reference.register_external
let runtime_error = Reference.runtime_error

let engine_name : engine -> string = function
  | `Reference -> "reference"
  | `Compiled -> "compiled"

let engine_of_string : string -> engine option = function
  | "reference" -> Some `Reference
  | "compiled" -> Some `Compiled
  | _ -> None

(* The environment's pin, if any: [Some d] when SDFG_DOMAINS is set to a
   number, clamped to [1, 64] (unparsable garbage pins 1); [None] when
   unset or empty — the predictive policy's opening. *)
let env_domains () =
  match Sys.getenv_opt "SDFG_DOMAINS" with
  | None -> None
  | Some s -> (
    let s = String.trim s in
    if s = "" then None
    else
      match int_of_string_opt s with
      | Some n when n >= 1 -> Some (min n 64)
      | _ -> Some 1)

(* The predictive policy's worker-count ceiling when no cap is given:
   what the hardware actually offers. *)
let auto_cap () = max 1 (min (Pool.available ()) 64)

(* --- execution configuration --------------------------------------------- *)

(* The single tuning surface of the execution layer.  Everything that
   used to travel as a row of optional labelled arguments (engine,
   instrument, max_states, domains, kernels) is one record, so adding a
   knob no longer ripples a new [?arg] through Profile, Opt.Search, the
   CLI, the bench harness and the fuzz oracles — and so the serving
   layer can hash, serialize and validate a request's tuning in one
   place. *)
module Config = struct
  type error =
    | Invalid_domains of int
    | Invalid_max_states of int
    | Invalid_stream_chunk of int
    | Parse of string

  let error_message = function
    | Invalid_domains n -> Fmt.str "config: domains must be >= 1 (got %d)" n
    | Invalid_max_states n ->
      Fmt.str "config: max_states must be >= 1 (got %d)" n
    | Invalid_stream_chunk n ->
      Fmt.str "config: stream_chunk must be >= 1 (got %d)" n
    | Parse msg -> "config: " ^ msg

  (* How the config asks for domains.  [Denv]: defer to SDFG_DOMAINS at
     run time — set, it pins that count; unset, the predictive policy
     decides per map up to {!auto_cap}.  [Dfixed d] beats the
     environment.  [Dauto cap] forces the predictive policy with an
     optional explicit ceiling. *)
  type domains_spec = Denv | Dfixed of int | Dauto of int option

  type t = {
    engine : engine;
    instrument : Obs.Collect.level;
    max_states : int;
    domains : domains_spec;
        (* precedence: explicit config > SDFG_DOMAINS > predictive *)
    kernels : bool;
    stream_chunk : int;
        (* streaming mode: output elements buffered per sink flush *)
  }

  let default =
    { engine = `Reference; instrument = Obs.Collect.Off;
      max_states = 1_000_000; domains = Denv; kernels = true;
      stream_chunk = 64 }

  (* With-style setters, argument-last so they chain off [default]:
     [Config.(default |> with_engine `Compiled |> with_domains 4)]. *)
  let with_engine engine c = { c with engine }
  let with_instrument instrument c = { c with instrument }
  let with_max_states max_states c = { c with max_states }
  let with_domains d c = { c with domains = Dfixed d }
  let with_default_domains c = { c with domains = Denv }
  let with_auto_domains ?cap c = { c with domains = Dauto cap }
  let with_kernels kernels c = { c with kernels }
  let with_stream_chunk stream_chunk c = { c with stream_chunk }

  let validate c =
    if c.max_states < 1 then Error (Invalid_max_states c.max_states)
    else if c.stream_chunk < 1 then Error (Invalid_stream_chunk c.stream_chunk)
    else
      match c.domains with
      | Dfixed n | Dauto (Some n) when n < 1 -> Error (Invalid_domains n)
      | _ -> Ok c

  (* The effective worker-count policy: explicit setting first (capped at
     the pool maximum), then the SDFG_DOMAINS environment variable, then
     the predictive policy capped at the hardware's domain count. *)
  let resolved_policy c : domain_policy =
    match c.domains with
    | Dfixed n -> Fixed (max 1 (min n 64))
    | Dauto (Some n) -> Predictive (max 1 (min n 64))
    | Dauto None -> Predictive (auto_cap ())
    | Denv -> (
      match env_domains () with
      | Some d -> Fixed d
      | None -> Predictive (auto_cap ()))

  (* The worker-count ceiling of {!resolved_policy}: the pinned count
     under [Fixed], the cap under [Predictive].  What the compiled
     engine sizes replica sets (and the pool) by. *)
  let resolved_domains c =
    match resolved_policy c with Fixed d -> d | Predictive cap -> cap

  let to_json c : Obs.Json.t =
    Obs.Json.Obj
      [ ("engine", Obs.Json.Str (engine_name c.engine));
        ("instrument", Obs.Json.Str (Obs.Collect.level_name c.instrument));
        ("max_states", Obs.Json.Int c.max_states);
        ("domains",
         (match c.domains with
         | Dfixed n -> Obs.Json.Int n
         | Denv -> Obs.Json.Null
         | Dauto None -> Obs.Json.Str "auto"
         | Dauto (Some n) -> Obs.Json.Str (Fmt.str "auto:%d" n)));
        ("kernels", Obs.Json.Bool c.kernels);
        ("stream_chunk", Obs.Json.Int c.stream_chunk) ]

  (* Missing fields keep their defaults; present fields must be
     well-typed.  [Null] for [domains] means "defer to the environment",
     mirroring {!to_json}. *)
  let of_json (j : Obs.Json.t) : (t, error) result =
    let field name update c =
      match Obs.Json.member name j with
      | None | Some Obs.Json.Null -> Ok c
      | Some v -> update v c
    in
    let ( let* ) = Result.bind in
    let str name v =
      match Obs.Json.to_string_opt v with
      | Some s -> Ok s
      | None -> Error (Parse (Fmt.str "%s must be a string" name))
    in
    let int name v =
      match Obs.Json.to_int_opt v with
      | Some n -> Ok n
      | None -> Error (Parse (Fmt.str "%s must be an integer" name))
    in
    let* c =
      field "engine"
        (fun v c ->
          let* s = str "engine" v in
          match engine_of_string s with
          | Some e -> Ok { c with engine = e }
          | None -> Error (Parse (Fmt.str "unknown engine %S" s)))
        default
    in
    let* c =
      field "instrument"
        (fun v c ->
          let* s = str "instrument" v in
          match Obs.Collect.level_of_string s with
          | Some l -> Ok { c with instrument = l }
          | None -> Error (Parse (Fmt.str "unknown instrument level %S" s)))
        c
    in
    let* c =
      field "max_states"
        (fun v c ->
          let* n = int "max_states" v in
          Ok { c with max_states = n })
        c
    in
    let* c =
      field "domains"
        (fun v c ->
          match v with
          | Obs.Json.Str "auto" -> Ok { c with domains = Dauto None }
          | Obs.Json.Str s
            when String.length s > 5 && String.sub s 0 5 = "auto:" -> (
            let rest = String.sub s 5 (String.length s - 5) in
            match int_of_string_opt rest with
            | Some n -> Ok { c with domains = Dauto (Some n) }
            | None ->
              Error (Parse (Fmt.str "bad domains cap in %S" s)))
          | _ ->
            let* n = int "domains" v in
            Ok { c with domains = Dfixed n })
        c
    in
    let* c =
      field "kernels"
        (fun v c ->
          match v with
          | Obs.Json.Bool b -> Ok { c with kernels = b }
          | _ -> Error (Parse "kernels must be a boolean"))
        c
    in
    let* c =
      field "stream_chunk"
        (fun v c ->
          let* n = int "stream_chunk" v in
          Ok { c with stream_chunk = n })
        c
    in
    validate c
end

(* The one environment constructor: validates the config and derives
   fresh run state from it — counters, collector, the resolved domain
   policy, the engine's state executor — then binds [g] through
   {!Reference.enter}, keeping [containers]. *)
let make_env (config : Config.t) g ~containers ~symbols =
  (match Config.validate config with
  | Ok _ -> ()
  | Error e -> runtime_error "%s" (Config.error_message e));
  let env =
    { Reference.g; containers; symbols = Hashtbl.create 8;
      stats = Obs.Report.zero_counters ();
      collector = Obs.Collect.create config.instrument;
      max_states = config.max_states; engine = config.engine;
      exec_state =
        (match config.engine with
        | `Reference -> Reference.exec_state
        | `Compiled -> Plan.exec_state);
      plans = Hashtbl.create 4; domains = Config.resolved_domains config;
      policy = Config.resolved_policy config; par = Reference.fresh_par ();
      kernels = config.kernels }
  in
  Reference.enter env g ~containers ~symbols

(* The one report builder; [of_collector] copies the live counters and
   decision records.  The multicore section: a [Fixed] pin above 1
   always gets one (the PR 5 contract); [Fixed 1] only for a pipeline;
   [Predictive] exactly when the run had something multicore to decide
   about — so sequential-by-nature programs keep their reports
   unchanged.  A pipeline reports its worker count as its domains. *)
let report ?(channels = []) ?(workers = []) (env : Reference.env) ~wall_s =
  let par = env.par in
  let show =
    match env.policy with
    | Fixed d -> d > 1 || workers <> []
    | Predictive _ ->
      par.par_decisions <> [] || par.par_maps > 0 || par.par_chunks > 0
      || par.par_forced_seq > 0 || channels <> [] || workers <> []
  in
  let parallel =
    if not show then None
    else
      Some
        { Obs.Report.par_domains =
            (match workers with [] -> env.domains | _ -> List.length workers);
          par_policy =
            (match env.policy with
            | Fixed _ -> "fixed"
            | Predictive _ -> "predictive");
          par_maps = par.par_maps;
          par_chunks = par.par_chunks;
          par_forced_seq = par.par_forced_seq;
          par_decisions = List.rev par.par_decisions;
          par_channels = channels;
          par_workers = workers }
  in
  Obs.Report.of_collector ?parallel ~program:env.g.g_name
    ~engine:(engine_name env.engine) ~wall_s ~counters:env.stats
    env.collector

(* Main entry point: run [g] on the given tensors and symbol values.
   Non-transient containers not supplied in [args] are allocated
   zero-initialized and discarded.  The returned report carries the
   counters, the instrumentation timing tree (per the config's
   [instrument] level), the compiled engine's plan coverage and — when
   the resolved domain count exceeds 1 — the multicore summary. *)
let run ?(config = Config.default) ?(symbols = []) ?(args = [])
    (g : sdfg) : Obs.Report.t =
  let containers = Hashtbl.create 16 in
  List.iter
    (fun (name, t) -> Hashtbl.replace containers name (Reference.Tens t))
    args;
  let t0 = Obs.Collect.now () in
  let env = make_env config g ~containers ~symbols in
  Reference.run_state_machine env;
  report env ~wall_s:(Obs.Collect.now () -. t0)

(* --- reusable instances (plan-once / run-many) ----------------------------- *)

(* A persistent execution environment for one (graph, symbol valuation,
   config) triple.  Compiled plans close over their environment — the
   stats record, the collector, the container table, even specific
   tensors for recognized bulk kernels — so reuse means keeping ONE
   environment alive and resetting its mutable contents per run, not
   rebuilding it.  This is the unit the serving layer caches: validate
   once, plan on first run, then every subsequent run pays only
   copy-in + execute + copy-out. *)
module Instance = struct
  type t = {
    i_env : Reference.env;
    i_config : Config.t;
    i_symbols : (string * int) list;
    i_lock : Mutex.t;  (* an instance runs one request at a time *)
  }

  let create ?(config = Config.default) ?(symbols = []) (g : sdfg) : t =
    (* Timing spans memoize into plan closures at compile time, so a
       timed plan would accumulate spans across requests; instances are
       counters-only. *)
    let config = { config with Config.instrument = Obs.Collect.Off } in
    (* Every container is allocated up front so plans and recognized
       kernels bind to tensors that stay stable across runs.  Shapes
       concretize against the instance's symbol valuation, which is why
       the valuation is part of the instance's identity (and of the serve
       cache key).  The clone isolates the plans from later caller
       mutation of [g]. *)
    let env =
      make_env config (Sdfg.clone g) ~containers:(Hashtbl.create 16) ~symbols
    in
    { i_env = env; i_config = config; i_symbols = symbols;
      i_lock = Mutex.create () }

  let config inst = inst.i_config
  let symbols inst = inst.i_symbols
  let graph inst = inst.i_env.g

  let reset_par (p : Reference.par_stats) =
    p.par_maps <- 0;
    p.par_chunks <- 0;
    p.par_forced_seq <- 0;
    (* decision records are plan-scoped (registered at compile time, the
       plans survive the reset), so keep them and zero the per-run
       tallies *)
    List.iter
      (fun (d : Obs.Report.map_decision) ->
        d.pm_invocations <- 0;
        d.pm_trips <- 0)
      p.par_decisions

  (* Shared per-run preparation: validate the request's containers,
     restore the instance's symbol valuation, zero the counters, copy
     the request's tensors in, zero-fill unsupplied tensors exactly as
     [enter] zero-allocates them, and empty every stream. *)
  let prepare (inst : t) args =
    let env = inst.i_env in
    List.iter
      (fun (name, _) ->
        if not (Hashtbl.mem env.containers name) then
          runtime_error "instance %S: unknown argument container %S"
            env.g.g_name name)
      args;
    Hashtbl.reset env.symbols;
    List.iter
      (fun (s, v) -> Hashtbl.replace env.symbols s v)
      inst.i_symbols;
    Obs.Report.reset_counters env.stats;
    reset_par env.par;
    Hashtbl.iter
      (fun name c ->
        match c with
        | Reference.Tens t -> (
          match List.assoc_opt name args with
          | Some src ->
            if
              Tensor.shape src <> Tensor.shape t
              || Tensor.dtype src <> Tensor.dtype t
            then
              runtime_error
                "instance %S: argument %S does not match the instance's \
                 shape/dtype for that container"
                env.g.g_name name
            else Tensor.copy_into ~src ~dst:t
          | None -> Tensor.fill t (Tasklang.Types.zero_of (Tensor.dtype t)))
        | Reference.Strm s -> Array.iter Stream.clear s.qs)
      env.containers

  let copy_out (env : Reference.env) args =
    List.iter
      (fun (name, dst) ->
        match Hashtbl.find_opt env.containers name with
        | Some (Reference.Tens src) -> Tensor.copy_into ~src ~dst
        | _ -> ())
      args

  (* One run: copy the request's tensors in, reset every piece of
     mutable run state the plans close over, execute, copy results back
     into the caller's tensors (preserving {!run}'s mutate-in-place
     contract).  Bit-identical to a fresh [run] with the same config.
     [stream_args] pre-loads stream containers element-by-element before
     the state machine starts — the batch baseline the streaming
     cross-validation oracle compares against. *)
  let run ?(args = []) ?(stream_args = []) (inst : t) : Obs.Report.t =
    Mutex.lock inst.i_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock inst.i_lock) @@ fun () ->
    let env = inst.i_env in
    prepare inst args;
    List.iter
      (fun (name, vs) ->
        match Hashtbl.find_opt env.containers name with
        | Some (Reference.Strm s) -> Reference.feed_stream env s vs
        | _ ->
          runtime_error "instance %S: stream argument %S is not a stream"
            env.g.g_name name)
      stream_args;
    let t0 = Obs.Collect.now () in
    Reference.run_state_machine env;
    let wall_s = Obs.Collect.now () -. t0 in
    copy_out env args;
    report env ~wall_s

  (* Non-destructive peek at a stream container's buffered contents, in
     pop order.  How batch runs expose what streaming runs hand to the
     sink. *)
  let stream_contents (inst : t) name : value array =
    match Hashtbl.find_opt inst.i_env.containers name with
    | Some (Reference.Strm s) ->
      Array.of_list (List.concat_map Stream.to_list (Array.to_list s.qs))
    | Some _ ->
      runtime_error "instance %S: container %S is not a stream"
        inst.i_env.g.g_name name
    | None ->
      runtime_error "instance %S: no container %S" inst.i_env.g.g_name name

  (* Streaming run: feed [input] incrementally from [source] (chunks of
     elements, [None] = end of stream), emit [output] incrementally to
     [sink].  When the pipeline verdict admits it the consume scopes run
     as overlapped workers with bounded backpressure channels; otherwise
     the graph executes once, batch-style, after the source drains.
     Either way the observable results are bit-identical to
     [run ~stream_args:[(input, all-elements)]] followed by
     [stream_contents] on the output. *)
  let run_streaming ?(args = []) ~input ?output
      ?(sink = fun (_ : value array) -> ()) ~source (inst : t) :
      Obs.Report.t =
    Mutex.lock inst.i_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock inst.i_lock) @@ fun () ->
    let env = inst.i_env in
    prepare inst args;
    let t0 = Obs.Collect.now () in
    let channels, workers =
      Pipeline.run env ~chunk:inst.i_config.stream_chunk ~input ~output
        ~source ~sink
    in
    let wall_s = Obs.Collect.now () -. t0 in
    copy_out env args;
    report env ~wall_s ~channels ~workers
end
