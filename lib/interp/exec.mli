(** Reference interpreter for SDFGs — an executable rendition of the
    operational semantics of Appendix A.

    Execution follows the state machine: run the current state's dataflow
    to quiescence in topological order, evaluate outgoing transitions,
    apply assignments, repeat until no condition holds.  Map scopes
    expand their symbolic ranges (Fig. 6b); consume scopes process
    streams dynamically until quiescence (Fig. 8); WCR memlets combine
    values with their resolution function; nested SDFGs run on aliased
    views of the outer memory.

    The interpreter is the semantic oracle of the test suite: every
    transformation and device offload is checked to preserve its
    results.

    Run state keeps one representation per concept.  A stream container
    is an array of {!Stream.t}: unbounded in batch runs, bounded
    channels in a streaming pipeline.  The counters and per-map policy
    decisions the engines update are {!Obs.Report}'s own records, which
    a report copies when it is built.  {!run}, {!Instance} and nested
    SDFG invocations share one environment constructor, one container
    allocator and one report builder. *)

exception Runtime_error of string

(** A stream container: a flattened array of {!Stream.t}s of shape
    [q_shape] (paper Fig. 3).  Batch runs allocate them unbounded; a
    pipeline worker's container table binds each stream to its bounded
    channel, a single one with [q_shape = [||]]. *)
type stream_rt = {
  qs : Tasklang.Types.value Stream.t array;
  q_shape : int array;
}

type container = Tens of Tensor.t | Strm of stream_rt

(** How the compiled engine picks a worker count for each
    [Cpu_multicore] map: [Fixed d] dispatches every Parallel-verdict map
    on [min d trips] workers; [Predictive cap] prices each map with
    {!Machine.Cost.Parallel} per invocation and uses the predicted
    profitable count, up to [cap] — a map that will not profit runs
    sequential by prediction, at sequential cost. *)
type domain_policy = Fixed of int | Predictive of int

(** Multicore bookkeeping (compiled engine); shared down through nested
    SDFGs like the counters.  [par_chunks] depends on the domain count —
    determinism checks across domain counts compare the counters. *)
type par_stats = {
  mutable par_maps : int;        (** parallel map-scope invocations *)
  mutable par_chunks : int;      (** chunks dispatched to the pool *)
  mutable par_forced_seq : int;  (** Cpu_multicore maps forced sequential *)
  mutable par_decisions : Obs.Report.map_decision list;
      (** one standing policy record per planned Cpu_multicore map,
          registered when the map is planned and updated on every
          invocation; registration order reversed *)
}

val fresh_par : unit -> par_stats

val register_decision :
  par_stats ->
  state:string ->
  node:int ->
  map:string ->
  kind:string ->
  verdict:string ->
  forced:bool ->
  Obs.Report.map_decision
(** Add (or replace, keyed by [(state, node)] — recompiles must not
    duplicate, and one state may hold two maps over the same span) the
    decision record for one map; called by {!Plan} at plan time. *)

val register_external :
  string -> ((string * Tasklang.Eval.binding) list -> unit) -> unit
(** Provide the native implementation for an [External] tasklet (paper
    Fig. 5), keyed by tasklet name.  The bindings give the connector
    accessors; the implementation must not touch anything else. *)

type engine = [ `Reference | `Compiled ]
(** Which execution engine drives each state's dataflow.  [`Reference]
    interprets the graph directly and is the semantic oracle;
    [`Compiled] runs plans lowered once per state by {!Plan}
    (closure-compiled tasklets, slot-indexed symbol frames, compiled
    memlet offset arithmetic).  Both produce bit-identical results and
    instrumentation counters. *)

val engine_name : engine -> string
(** ["reference"] / ["compiled"] — the [r_engine] field of reports. *)

(** Execution-tuning configuration — the single surface for every knob
    that used to be a separate optional argument of {!run}.  Build one
    with the with-style setters off {!Config.default}:
    [Config.(default |> with_engine `Compiled |> with_domains 4)]. *)
module Config : sig
  type error =
    | Invalid_domains of int          (** [domains < 1] *)
    | Invalid_max_states of int       (** [max_states < 1] *)
    | Invalid_stream_chunk of int     (** [stream_chunk < 1] *)
    | Invalid_stream_capacity of int  (** [stream_capacity < 1] *)
    | Parse of string                 (** malformed JSON field *)

  val error_message : error -> string

  (** How the config asks for domains: [Denv] (the default) defers to
      the environment — [SDFG_DOMAINS] set pins that count, unset or
      empty selects the predictive per-map policy capped at the
      hardware's domain count ([Pool.available ()] clamped to
      [[1, 64]]); [Dfixed d] pins a count, beating the environment;
      [Dauto cap] forces the predictive policy with an optional
      explicit ceiling. *)
  type domains_spec = Denv | Dfixed of int | Dauto of int option

  type t = {
    engine : engine;                  (** default [`Reference] *)
    instrument : Obs.Collect.level;   (** default [Off] *)
    max_states : int;                 (** default 1,000,000 *)
    domains : domains_spec;
        (** precedence: explicit config > [SDFG_DOMAINS] > predictive.
            See {!resolved_policy}. *)
    kernels : bool;                   (** default [true] *)
    stream_chunk : int;
        (** streaming mode: output elements buffered per sink flush;
            default 64 *)
    stream_capacity : int option;
        (** streaming mode: overrides every channel's capacity; [None]
            (the default) uses each stream's declared [s_buffer], with
            256 standing in for unbounded or unevaluable buffers *)
  }

  val default : t

  val with_engine : engine -> t -> t
  val with_instrument : Obs.Collect.level -> t -> t
  val with_max_states : int -> t -> t

  val with_domains : int -> t -> t
  (** Pin the domain count explicitly (beats [SDFG_DOMAINS]). *)

  val with_default_domains : t -> t
  (** Back to deferring to the environment. *)

  val with_auto_domains : ?cap:int -> t -> t
  (** Force the predictive per-map policy, optionally capped at [cap]
      (default: the hardware's domain count), regardless of
      [SDFG_DOMAINS]. *)

  val with_kernels : bool -> t -> t
  val with_stream_chunk : int -> t -> t
  val with_stream_capacity : int -> t -> t

  val validate : t -> (t, error) result
  (** Typed validation: [domains < 1], [max_states < 1],
      [stream_chunk < 1] and [stream_capacity < 1] are {!error}s here
      rather than raises downstream — the CLI and the serve protocol
      report them without exception handling.  Values above the pool
      maximum (64) are not errors; they clamp. *)

  val resolved_policy : t -> domain_policy
  (** The effective worker-count policy: [Fixed] for [Dfixed] and for
      [Denv] with [SDFG_DOMAINS] set; [Predictive] for [Dauto] and for
      [Denv] with [SDFG_DOMAINS] unset/empty.  Counts and caps clamp to
      [[1, 64]]. *)

  val resolved_domains : t -> int
  (** The worker-count ceiling of {!resolved_policy}: the pinned count
      under [Fixed], the cap under [Predictive].  What the compiled
      engine sizes replica sets by. *)

  val to_json : t -> Obs.Json.t

  val of_json : Obs.Json.t -> (t, error) result
  (** Missing fields keep their defaults; present fields must be
      well-typed ([engine]/[instrument] as names, [max_states]/
      [stream_chunk]/[stream_capacity] integers, [kernels] boolean;
      [domains] an integer pin, [null] for the environment default, or
      the strings ["auto"] / ["auto:N"] for the predictive policy).
      Runs {!validate}. *)
end

val run :
  ?config:Config.t ->
  ?symbols:(string * int) list ->
  ?args:(string * Tensor.t) list ->
  Sdfg_ir.Sdfg.t ->
  Obs.Report.t
(** Execute an SDFG.  [symbols] binds the free symbols (sizes);
    [args] binds non-transient containers to caller-owned tensors,
    which are mutated in place (the array-based interface of §2.1).
    Containers not supplied are allocated zero-initialized.
    [config] carries every tuning knob (engine, instrumentation level,
    state budget, domain count, kernel lowering) — see {!Config};
    the default is {!Config.default}.
    The returned {!Obs.Report.t} carries the counters, the
    per-construct timing tree and — for the compiled engine — plan
    coverage and (at a resolved domain count > 1) the multicore
    summary.
    @raise Runtime_error on stuck or ill-formed programs, and on a
    config that fails {!Config.validate}. *)

(** Plan-once / run-many execution.  An instance pins one
    (graph, symbol valuation, config) triple, keeps the execution
    environment — including compiled plans and their kernel tensor
    bindings — alive across runs, and resets all mutable run state per
    request.  The unit cached by the serving layer. *)
module Instance : sig
  type t

  val create :
    ?config:Config.t ->
    ?symbols:(string * int) list ->
    Sdfg_ir.Sdfg.t ->
    t
  (** Validates the config, clones the graph (later caller mutation
      cannot invalidate cached plans) and allocates every container
      zero-initialized at shapes concretized against [symbols].  The
      instrumentation level is forced to [Off]: plan closures memoize
      their spans, so a timed instance would accumulate timing state
      across requests.  Plans are compiled lazily on first {!run}.
      @raise Runtime_error on an invalid config or unbound shape
      symbols. *)

  val run :
    ?args:(string * Tensor.t) list ->
    ?stream_args:(string * Tasklang.Types.value array) list ->
    t ->
    Obs.Report.t
  (** Execute once: copies [args] into the instance's containers
      (shape and dtype must match exactly), zero-fills the rest,
      resets symbols/counters/streams, runs, then copies results back
      into the caller's tensors ({!Exec.run}'s mutate-in-place
      contract).  [stream_args] pre-loads stream containers
      element-by-element before the state machine starts — the batch
      baseline {!run_streaming} is validated against.  Results and
      counters are bit-identical to a fresh {!Exec.run} with the same
      config, symbols and args.  Thread-safe: an internal lock
      serializes concurrent runs of one instance.
      @raise Runtime_error on unknown or mis-shaped argument
      containers. *)

  val run_streaming :
    ?args:(string * Tensor.t) list ->
    input:string ->
    ?output:string ->
    ?sink:(Tasklang.Types.value array -> unit) ->
    source:(unit -> Tasklang.Types.value array option) ->
    t ->
    Obs.Report.t
  (** Continuous-query execution: poll [source] for input chunks
      ([None] = end of stream) fed into the [input] stream, deliver
      [output]'s elements to [sink] in chunks of the config's
      [stream_chunk].  When {!Analysis.Races.analyze_pipeline} proves
      the graph a pipeline (single state; every stream single-producer,
      single-consumer; acyclic stages with disjoint non-stream
      footprints), consume scopes run as long-lived workers connected
      by bounded channels — producers block on full channels
      (backpressure), consumers on empty ones — and the report's
      parallel section carries per-channel depth/blocked-time and
      per-worker utilization.  Otherwise the source is drained fully
      and the graph runs once, batch-style, the sink receiving one
      final chunk.  Both paths are bit-identical to
      [run ~stream_args:[(input, elements)]] followed by
      {!stream_contents} on the output.
      @raise Runtime_error on unknown containers or a worker failure
      (first error rethrown after shutdown). *)

  val stream_contents : t -> string -> Tasklang.Types.value array
  (** Non-destructive peek at a stream container's buffered elements in
      pop order — how batch runs expose what {!run_streaming} hands to
      the sink.
      @raise Runtime_error if the container is missing or not a
      stream. *)

  val config : t -> Config.t
  val symbols : t -> (string * int) list
  val graph : t -> Sdfg_ir.Sdfg.t
end

(** {1 Engine internals}

    The pieces below are the shared substrate of both engines: the
    compiled engine ({!Plan}) builds its plans over the same runtime
    environment and falls back to the reference executors for constructs
    it does not compile (multi-queue streams, nested or uncompilable
    consume scopes, nested SDFGs, external tasklets, data-dependent
    symbols), so instrumentation counters stay identical.  Not intended
    for general use. *)

type cached_plan = { pl_version : int; pl_run : unit -> unit }
(** A state lowered by the compiled engine, tagged with the structural
    version ([st_version]) it was compiled at. *)

type env = {
  g : Sdfg_ir.Defs.sdfg;
  containers : (string, container) Hashtbl.t;
  symbols : (string, int) Hashtbl.t;
  stats : Obs.Report.counters;  (** the run's live counters *)
  collector : Obs.Collect.t;  (** wall-clock spans + plan coverage *)
  max_states : int;
  engine : engine;
  plans : (int, cached_plan) Hashtbl.t;  (** state id -> cached plan *)
  domains : int;  (** domains the compiled engine may use (>= 1) *)
  policy : domain_policy;  (** how each parallel map picks its workers *)
  par : par_stats;
  kernels : bool;  (** allow bulk-kernel lowering of affine map bodies *)
}

val map_span_name : Sdfg_ir.Defs.map_info -> string
(** Span name of a map scope — shared by both engines so timing trees
    match shape-for-shape. *)

val runtime_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** @raise Runtime_error always. *)

val scope_body : Sdfg_ir.Defs.state -> int -> int list
(** The direct children of the scope opened by the given entry node, in
    the state's topological order — the body schedule shared by the
    reference executors, compiled plans and pipeline stages. *)

val exec_nodes :
  env ->
  Sdfg_ir.Defs.state ->
  params:(string * int) list ->
  popped:(string * Tasklang.Types.value) list ->
  int list ->
  unit
(** Execute the given nodes of one scope level in the supplied order with
    the reference engine — the fallback path of compiled plans. *)

val set_compiled_state_exec : (env -> Sdfg_ir.Defs.state -> unit) -> unit
(** Register the compiled engine's state executor; called by {!Plan} at
    load time. *)

val set_stage_compiler :
  (env ->
  Sdfg_ir.Defs.state ->
  int ->
  Sdfg_ir.Defs.consume_info ->
  (int -> Tasklang.Types.value -> unit) option) ->
  unit
(** Register the streaming stage compiler; called by {!Plan} at load
    time.  Invoked once per pipeline worker with the worker's private
    environment, the state, the consume entry's node id and its info;
    [Some f] means [f pe v] runs the stage body for one popped element
    (kernel-lowered map bodies included), [None] keeps the worker on
    the reference body loop. *)
