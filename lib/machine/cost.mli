(** Analytic performance model: evaluates a scheduled SDFG against a
    machine description ({!Spec}).

    The model is driven by exactly the information the IR carries — the
    paper's thesis that data movement is the first-order concern:

    - memlet volumes give data movement; propagated scope memlets give
      unique working sets, so MapTiling and LocalStorage change modeled
      traffic the way they change measured traffic;
    - per-edge stride analysis w.r.t. the innermost map parameter
      classifies accesses as register-resident, streaming, or
      line-granular; a taint analysis of tasklet bodies classifies
      indirect accesses (x[cols[j]]) as random-bandwidth traffic;
    - schedules give parallelism (OpenMP parallelizes the outermost map
      parameter; GPU maps parallelize all of them; FPGA-unrolled maps
      replicate processing elements);
    - WCR edges to non-transient containers whose concurrent parameters
      do not disambiguate the written location pay atomic costs —
      privatizing transformations (AccumulateTransient, ReducePeeling)
      therefore remove them;
    - state-machine visits are counted by walking the transition system
      on the inter-state symbols, evaluating each state under up to 32
      sampled symbol environments (exact for affine, accurate for
      triangular loop nests); data-dependent conditions fall back to
      visit hints.  The samples differ only in the symbols inter-state
      edges assign.  A state reads its map ranges and consume PE
      counts, its memlets' subsets, reindex subsets and access counts,
      the shapes of the containers it touches and every identifier in
      its tasklet code; one holding a nested SDFG reads every symbol.
      A state that reads none of the assigned symbols prices the same
      under every sample, so it is priced once and that value is added
      once per sample: the sum is bit-identical to pricing each
      sample.  A nested SDFG's symbol map shadows outer symbols of the
      same name, as it does in the interpreter.

    Time is a roofline over the target's peak compute and bandwidth plus
    explicit overheads: OpenMP forks, kernel launches, PCIe copies, FPGA
    initiation intervals.

    {b Known blind spots} (exposed by the scenario workloads in
    {!Workloads.Cfd} and {!Workloads.Attention}; documented rather than
    silently mispriced):

    - {b Dynamic windows are priced at full volume.}  A dynamic memlet
      ([in_]/[out_] with [m_dynamic]) reports its whole declared window
      per iteration, so a mesh gather that reads one of [NDOF] elements
      per tasklet is modeled as if it read all of them ([dyn_bytes] is
      deliberately never cache-collapsed).  Modeled traffic for
      gather/scatter maps is therefore an upper bound; relative
      comparisons between two variants that both carry dynamic windows
      remain meaningful, absolute bytes do not.
    - {b State-sequenced reduction chains serialize invisibly.}  States
      are priced independently and summed.  A softmax-style chain
      (contract → row-max → exp-normalize → contract) whose small
      reduction maps sit between large contractions costs almost nothing
      in the model, yet bounds the critical path at execution time:
      every stage consumes a reduction of the previous one, so no
      cross-state overlap exists to recover.  The model neither rewards
      nor penalizes fusing such stages beyond their movement deltas.
    - {b Per-visit interpreter overhead is not a roofline term.}
      Visit counts from the state-machine walk multiply each state's
      modeled time, but the fixed per-state-visit cost of the engines
      (plan lookup, frame setup — what dominates a many-small-operations
      element loop against its batched rewrite) appears only through
      the launch/fork overhead options, which are calibrated for device
      kernels, not interpreter states.  Batched-vs-naive speedups such
      as [BENCH_workloads.json]'s CFD row are therefore under-predicted
      by the model and must be measured. *)

type target = Tcpu | Tgpu | Tfpga

exception Cost_error of string

(** Modeling knobs; the baseline compiler models in {!Baselines} are
    configurations of these options applied to the same workload SDFG. *)
type options = {
  force_sequential : bool;      (** drop all parallel schedules *)
  parallel_efficiency : float;  (** fraction of linear speedup achieved *)
  vector_override : float option;  (** force a SIMD factor *)
  assume_cache_optimal : bool;  (** charge only compulsory traffic *)
  copy_factor : float;          (** multiplier on host<->device copies *)
  naive_fpga : bool;            (** unpipelined HLS behaviour *)
  hints : (string * float) list;
      (** tasklet-name -> average data-dependent trip count *)
  visit_hints : (string * float) list;
      (** state-label -> visit count, for data-dependent loops *)
}

val default_options : options

(** Per-execution accounting, before conversion to time. *)
type acct = {
  flops : float;
  iops : float;
  bytes : float;       (** streaming DRAM traffic *)
  rand_bytes : float;  (** irregular/indirect DRAM traffic *)
  dyn_bytes : float;   (** dynamic-memlet traffic (never cache-collapsed) *)
  atomics : float;
  copies : float;      (** host<->device bytes *)
  launches : float;    (** kernel launches / parallel-region entries *)
  vec_width : float;
  fpga_pes : float;
  fpga_ii : float;
  iterations : float;
}

type report = {
  r_time_s : float;
  r_compute_s : float;
  r_memory_s : float;
  r_atomic_s : float;
  r_copy_s : float;
  r_overhead_s : float;
  r_flops : float;
  r_bytes : float;
  r_acct : acct;
}

val pp_report : Format.formatter -> report -> unit

val indirect_connectors : Sdfg_ir.Defs.tasklet -> string list
(** Connectors accessed through data-dependent indices (taint analysis of
    the tasklet body) — exposed for tests and diagnostics. *)

val estimate :
  ?opts:options ->
  spec:Spec.t ->
  target:target ->
  symbols:(string * int) list ->
  Sdfg_ir.Sdfg.t ->
  report
(** Evaluate an SDFG at concrete sizes on the given machine.  On the CPU
    target, a top-level [Cpu_multicore] map contributes parallelism only
    when {!Analysis.Races} proves it parallelizable — the model prices
    what the compiled engine's multicore runtime will actually do.
    [estimate ... g] is [pricer ... () g].
    @raise Cost_error when a map extent cannot be evaluated (missing
    symbol or hint). *)

val pricer :
  ?opts:options ->
  spec:Spec.t ->
  target:target ->
  symbols:(string * int) list ->
  unit ->
  Sdfg_ir.Sdfg.t ->
  report
(** A function equal to {!estimate} at these settings, bit for bit, that
    keeps per-state work across the graphs it prices.  A state's
    accounting is kept by content stamp ({!Sdfg_ir.State.stamp}) and
    visit environment, and reused while every descriptor the state names
    (through its access nodes and memlet containers) is physically the
    one priced; a state holding a nested SDFG is priced fresh.  The
    transition walk is kept by the physical transition list and start
    state, when it succeeded.  Sums fold in the order {!estimate} folds
    them.

    The race verdicts behind the CPU parallel degree are not kept:
    {!Analysis.Races} decides whether a transient is private by reading
    other states and the transitions, so no per-state key holds a
    verdict.  They are recomputed for every graph.

    The kept work lives as long as the returned function and is not
    safe to share between domains: make one pricer per search. *)

val calibrate_parallel_efficiency :
  ?default:float -> (int * float) list -> float
(** Fit the [parallel_efficiency] knob to a measured domain-count scaling
    curve [(domains, wall_seconds)]: each point with [domains > 1] yields
    [speedup / domains] against the [domains = 1] baseline; the result is
    their mean clamped to (0, 1].  Returns [default] (the built-in 0.92)
    when the curve has no usable baseline or multi-domain points. *)

(** Per-map predictive parallel policy — the runtime pricing side of the
    model.  Given a map the race analysis proved [Parallel], predict the
    profitable domain count from a calibration record (per-kernel-kind
    iteration throughput and measured fork/chunk/merge overhead
    constants) so the compiled engine can leave unprofitable maps
    sequential {e by prediction} rather than relying on a global
    [SDFG_DOMAINS] choice.  The prediction is a pure function of
    (calibration, inputs): deterministic for a fixed calibration and
    monotone in [trips] (a larger map never predicts fewer domains).
    Maps with a Serial verdict are forced sequential by the engine
    before pricing and never reach {!Parallel.predict}. *)
module Parallel : sig
  type calibration = {
    cal_host_domains : int;
        (** cores the host can actually run in parallel
            ([Domain.recommended_domain_count ()] by default); modeled
            speedup saturates here — extra domains only add overhead *)
    cal_fork_s : float;           (** fork + join barrier per dispatch *)
    cal_chunk_s : float;          (** dynamic chunk-dealing cost per chunk *)
    cal_merge_s_per_elem : float; (** accumulator merge per element per copy *)
    cal_kernel_iter_ns : (string * float) list;
        (** per-iteration nanoseconds by bulk-kernel kind
            ({!Interp.Kernels.t}'s [k_name]: "fill", "copy", ...) *)
    cal_closure_iter_ns : float;  (** per-iteration ns on the closure path *)
    cal_efficiency : float;       (** fraction of linear speedup achieved *)
  }

  val default_calibration : calibration
  (** Conservative built-in constants; the [calibrate] bench experiment
      measures the real ones and persists them in BENCH_interp.json. *)

  val calibration : unit -> calibration
  (** The process-wide calibration consulted when [?cal] is omitted;
      {!default_calibration} until {!set_calibration}. *)

  val set_calibration : calibration -> unit

  type decision = {
    d_domains : int;    (** 1 = run sequential *)
    d_reason : string;
        (** ["single-domain"], ["zero-trip"], ["below-threshold"] or
            ["profitable"] *)
  }

  val predicted_time_s :
    ?cal:calibration ->
    kind:string option ->
    trips:int ->
    inner:int ->
    merge_elems:int ->
    int ->
    float
  (** Modeled wall seconds of one map invocation at the given domain
      count: work scaled by efficiency-adjusted speedup plus fork,
      chunk-dealing and accumulator-merge overheads.  [kind] is the bulk
      kernel the body lowered to ([None] = closure path), [trips] the
      outermost (chunked) dimension's trip count, [inner] the iterations
      per outer trip, [merge_elems] the total elements of private WCR
      accumulators merged after the join. *)

  val predict :
    ?cal:calibration ->
    max_domains:int ->
    kind:string option ->
    trips:int ->
    inner:int ->
    merge_elems:int ->
    unit ->
    decision
  (** The profitable domain count in [[1, max_domains]]: the candidate
      minimizing {!predicted_time_s}, required to beat sequential by at
      least 5%; otherwise 1 with the reason. *)
end
