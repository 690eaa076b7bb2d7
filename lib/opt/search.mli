(** Cost-guided transformation search — the automatic counterpart of the
    paper's §4 performance-engineer workflow.

    The driver is a greedy hill-climb with a configurable beam width:
    each step enumerates candidate applications from the {!Transform.Xform}
    registry over sorted names and candidate indices, builds each
    successor as a clone of the committed graph with the enumerated match
    applied, scores successors with {!Machine.Cost} under the chosen
    target, prunes dominated states (graphs already seen, and everything
    beyond the beam), and — in {!Measured} mode — confirms the surviving
    beam with {!Interp.Profile} medians before committing.  Non-improving
    lateral moves are taken up to a bounded patience; the returned chain
    is the best state ever visited, so laterals can only help.
    Model-only searches never invoke the profiler and are fully
    deterministic.

    A successor differs from the committed graph only in the states its
    step rewrote.  Each search makes one {!Sdfg_ir.Dot.signer} and one
    {!Machine.Cost.pricer}, which reuse every state whose content stamp
    ({!Sdfg_ir.State.stamp}) the step did not move, and
    {!Sdfg_ir.Propagate.propagate} skips such states; the kept texts
    and accounts die with the search.  Signatures and scores are those
    of {!Sdfg_ir.Dot.of_sdfg} and {!Machine.Cost.estimate}, bit for
    bit.

    "Already seen" compares the {!Sdfg_ir.Dot} rendering, which omits
    map schedules, storage, tasklet code, descriptors and nested bodies.
    Graphs that differ only there count as one state, and the later one
    is pruned unscored.  MPITransform changes only schedules, so its
    successors are never scored.  Where the model prices them at their
    parent's time (gemm, atax, mvt, 2mm and jacobi-2d on
    {!Machine.Cost.Tcpu}) that costs nothing; on cfd-batched it hides
    successors the model prices at about half their parent's time. *)

type objective =
  | Model_only  (** score by {!Machine.Cost} alone; deterministic *)
  | Measured    (** confirm the beam with profiled run-only medians per step *)

val objective_name : objective -> string
val target_name : Machine.Cost.target -> string

type config = {
  c_target : Machine.Cost.target;
  c_spec : Machine.Spec.t;
  c_opts : Machine.Cost.options;
  c_symbols : (string * int) list;  (** sizes the model is evaluated at *)
  c_measure_symbols : (string * int) list;  (** sizes measured runs use *)
  c_objective : objective;
  c_exec : Interp.Exec.Config.t;
      (** execution config of measured runs and crossval (engine,
          domains, kernels) — default: compiled engine, everything else
          {!Interp.Exec.Config.default} *)
  c_warmup : int;
  c_repeat : int;
  c_beam : int;            (** beam width *)
  c_max_steps : int;       (** committed-step bound *)
  c_max_candidates : int;  (** candidate indices explored per xform *)
  c_min_gain : float;      (** relative gain required to count as improving *)
  c_patience : int;        (** lateral (non-improving) steps tolerated *)
  c_budget_s : float option;  (** wall-clock budget for the whole search *)
  c_xforms : string list;  (** restrict the registry; [[]] = everything *)
}

val config :
  ?spec:Machine.Spec.t ->
  ?opts:Machine.Cost.options ->
  ?measure_symbols:(string * int) list ->
  ?objective:objective ->
  ?exec:Interp.Exec.Config.t ->
  ?warmup:int ->
  ?repeat:int ->
  ?beam:int ->
  ?max_steps:int ->
  ?max_candidates:int ->
  ?min_gain:float ->
  ?patience:int ->
  ?budget_s:float ->
  ?xforms:string list ->
  target:Machine.Cost.target ->
  symbols:(string * int) list ->
  unit ->
  config
(** Defaults: paper-testbed spec, default model options, measure at the
    model sizes, model-only, compiled engine, warmup 1 / repeat 5, beam 4,
    8 steps, 8 candidates per transformation, 0.1% minimum gain, patience
    1, no budget, full registry. *)

(** Per-step search log entry. *)
type step_log = {
  l_step : int;
  l_tried : int;      (** chain extensions attempted *)
  l_applied : int;
      (** of which new to the search, valid and scored; an already-seen
          graph counts in [l_pruned] instead *)
  l_pruned : int;
      (** dominated: already seen, or scored but beyond the beam *)
  l_measured : int;   (** profiler confirmations run this step *)
  l_committed : Transform.Xform.chain_step option;
  l_note : string;
  l_model_s : float;          (** modeled time after this step *)
  l_wall_s : float option;    (** measured median after this step *)
  l_model_error : float option;
      (** |modeled speedup − measured speedup| / measured speedup for the
          committed step; measured searches only *)
}

type result = {
  r_program : string;
  r_objective : objective;
  r_target : Machine.Cost.target;
  r_chain : Transform.Xform.chain_step list;  (** best state visited *)
  r_base_model_s : float;
  r_best_model_s : float;
  r_base_wall_s : float option;
  r_best_wall_s : float option;
  r_steps : step_log list;
  r_stop : string;
      (** ["converged"], ["budget"], ["max-steps"] or ["exhausted"] *)
  r_profile_runs : int;  (** total profiler invocations; 0 in model-only *)
  r_search_wall_s : float;
  r_report : Obs.Report.t;
      (** the search itself as a timing tree: one span per step, with
          [enumerate] and [measure] children *)
}

val optimize :
  ?name:string -> config -> (unit -> Sdfg_ir.Sdfg.t) -> result
(** Search from one [build ()]: [build] runs once per search.  Each
    successor is a clone of the committed graph with one step applied, so
    no graph the search has committed is mutated.  {!crossval} still
    replays the chain on fresh builds, as the independent check.
    @raise Machine.Cost.Cost_error when even the untransformed graph
    cannot be scored. *)

val crossval :
  ?symbols:(string * int) list ->
  (unit -> Sdfg_ir.Sdfg.t) ->
  Transform.Xform.chain_step list ->
  (unit, string) Stdlib.result
(** Replay [chain] on a fresh build and check that both engines produce
    results bit-identical to the reference engine on the untransformed
    graph, over {!Interp.Profile.make_args} deterministic inputs. *)

val to_json : result -> Obs.Json.t
val pp : Format.formatter -> result -> unit
