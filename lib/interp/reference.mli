(** Reference interpreter for SDFGs — an executable rendition of the
    operational semantics of Appendix A — and the run state every engine
    shares.

    Execution follows the state machine: run the current state's dataflow
    to quiescence in topological order, evaluate outgoing transitions,
    apply assignments, repeat until no condition holds.  Map scopes
    expand their symbolic ranges (Fig. 6b); consume scopes process
    streams dynamically until quiescence (Fig. 8); WCR memlets combine
    values with their resolution function; nested SDFGs run on aliased
    views of the outer memory.

    The interpreter is the semantic oracle: every transformation, device
    offload and compiled plan is checked against its results.  It names
    no other engine.  {!run_state_machine} runs each state with
    [env.exec_state], which {!Exec} sets from the config's engine and
    {!enter} keeps, so a nested SDFG runs on its parent's engine.  The
    compiled engine ({!Plan}) plans over the {!env} defined here and
    falls back to {!exec_nodes} for what it does not compile. *)

exception Runtime_error of string

val runtime_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** @raise Runtime_error always. *)

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
  engine : engine;  (** names the engine in reports *)
  exec_state : env -> Sdfg_ir.Defs.state -> unit;
      (** the engine's state executor: {!exec_state} or
          [Plan.exec_state] *)
  plans : (int, cached_plan) Hashtbl.t;  (** state id -> cached plan *)
  domains : int;  (** domains the compiled engine may use (>= 1) *)
  policy : domain_policy;  (** how each parallel map picks its workers *)
  par : par_stats;
  kernels : bool;  (** allow bulk-kernel lowering of affine map bodies *)
}

val map_span_name : Sdfg_ir.Defs.map_info -> string
(** Span name of a map scope — shared by both engines so timing trees
    match shape-for-shape. *)

val eval_expr : env -> (string * int) list -> Symbolic.Expr.t -> int
(** Evaluate against scope parameters, then interstate symbols, then
    single-element containers and stream lengths (data-dependent
    symbols). *)

val get_container : env -> string -> container
(** @raise Runtime_error when [env] binds no such container. *)

val pop_all : stream_rt -> Tasklang.Types.value array
(** Pop every element, queues in flattened order. *)

val feed_stream : env -> stream_rt -> Tasklang.Types.value array -> unit
(** Push the values onto the stream's first queue, one counted push
    each: how stream arguments and streaming input enter a batch run. *)

val scope_body : Sdfg_ir.Defs.state -> int -> int list
(** The direct children of the scope opened by the given entry node, in
    the state's topological order — the body schedule shared by the
    reference executors, compiled plans and pipeline stages. *)

val enter :
  env ->
  Sdfg_ir.Defs.sdfg ->
  containers:(string, container) Hashtbl.t ->
  symbols:(string * int) list ->
  env
(** Bind a graph into an environment derived from [env]: its own symbol
    table (holding [symbols]) and plan cache, and [containers] — every
    descriptor not already bound there is allocated zeroed at shapes
    concretized against [symbols].  Counters, collector, policy and
    state executor carry over from [env]. *)

val exec_nodes :
  env ->
  Sdfg_ir.Defs.state ->
  params:(string * int) list ->
  popped:(string * Tasklang.Types.value) list ->
  int list ->
  unit
(** Execute the given nodes of one scope level in the supplied order with
    the reference engine — the fallback path of compiled plans. *)

val exec_state : env -> Sdfg_ir.Defs.state -> unit
(** The reference engine's state executor: the state's top-level nodes
    through {!exec_nodes}, counting one state execution. *)

val run_state_machine : env -> unit
(** Run [env.g] from its start state until no transition holds, each
    state through [env.exec_state].
    @raise Runtime_error past [env.max_states] state executions. *)
