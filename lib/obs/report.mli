(** Structured execution reports — the result surface of [Exec.run].

    A snapshot of one run: instrumentation counters, the per-construct
    wall-clock timing tree, and (compiled engine) plan coverage.  The
    counter, decision and channel records are the same ones the engines
    update while they run; a report holds copies taken when it is built,
    so a later run cannot change it.  Renders as a human-readable table,
    JSON, or a Chrome trace-event file for chrome://tracing / Perfetto. *)

type counters = {
  mutable elements_moved : int;   (** memlet-bound element transfers *)
  mutable tasklet_execs : int;
  mutable map_iterations : int;
  mutable stream_pushes : int;
  mutable stream_pops : int;
  mutable states_executed : int;
  mutable wcr_writes : int;       (** write-conflict resolutions applied *)
}
(** Instrumentation counters: the live record an engine bumps during a
    run, and (copied) a report's [r_counters]. *)

val zero_counters : unit -> counters

val add_counters : into:counters -> counters -> unit
(** Add every field of the second record into [into] — how parallel
    replicas and pipeline workers publish their private counters. *)

val reset_counters : counters -> unit

type timer = {
  t_kind : Collect.kind;
  t_name : string;
  t_count : int;       (** invocations *)
  t_total_s : float;   (** accumulated wall-clock seconds *)
  t_children : timer list;
}

type coverage = {
  cov_states : int;    (** states planned by the compiled engine *)
  cov_compiled : int;  (** nodes lowered to native closures *)
  cov_fallback : int;  (** nodes executed through the reference path *)
  cov_kernels : (string * int) list;
  (** bulk-kernel maps lowered, tallied by kernel name *)
  cov_kernel_fallbacks : (string * int) list;
  (** maps left on the closure path, tallied by fallback reason code *)
}

type channel_stat = {
  pc_name : string;
  pc_capacity : int;
  mutable pc_pushes : int;
  mutable pc_pops : int;
  mutable pc_depth_hwm : int;   (** never exceeds capacity: backpressure held *)
  mutable pc_push_blocked_s : float;  (** producers waiting on a full one *)
  mutable pc_pop_blocked_s : float;   (** consumers waiting on an empty one *)
}
(** Per-channel pressure counters from a streaming run: the live record
    of a bounded [Interp.Stream] channel, copied by its [stats]. *)

type worker_stat = {
  pw_name : string;
  pw_elements : int;  (** elements processed *)
  pw_busy_s : float;  (** time spent executing, not blocked *)
  pw_wall_s : float;  (** lifetime of the worker *)
}
(** Per-worker utilization from a streaming run ([pw_busy_s /
    pw_wall_s]): the feeder, one worker per consume scope, drainers. *)

type map_decision = {
  pm_state : string;   (** state label *)
  pm_node : int;       (** map-entry node id, disambiguates same-span maps *)
  pm_map : string;     (** map span name, ["[i,j]"] *)
  pm_kind : string;    (** bulk-kernel kind, or ["closure"] *)
  pm_verdict : string; (** race verdict / Serial reason code *)
  pm_forced : bool;    (** invocations counted as forced sequential *)
  mutable pm_domains : int;    (** worker count of the last invocation *)
  mutable pm_reason : string;
      (** policy reason: ["profitable"], ["below-threshold"],
          ["single-domain"], ["zero-trip"], ["pinned"],
          ["forced-serial"] *)
  mutable pm_trips : int;      (** outer trip count of the last invocation *)
  mutable pm_invocations : int;
}
(** One [Cpu_multicore] map's domain-policy record: the race verdict,
    what the policy decided the last time the map ran, and why.  The
    compiled engine registers it when it plans the map and updates it
    on every invocation.  JSON fields: [predicted_domains] /
    [policy_reason]. *)

type parallel = {
  par_domains : int;     (** domains the run was allowed to use *)
  par_policy : string;   (** ["fixed"] or ["predictive"] *)
  par_maps : int;        (** parallel map-scope invocations *)
  par_chunks : int;      (** chunks dispatched to the domain pool *)
  par_forced_seq : int;  (** parallel-scheduled maps forced sequential *)
  par_decisions : map_decision list;
      (** one per planned [Cpu_multicore] map, plan order *)
  par_channels : channel_stat list;  (** streaming runs only *)
  par_workers : worker_stat list;    (** streaming runs only *)
}
(** Multicore execution summary, present on runs pinned to more than one
    domain, on predictive-policy runs that had [Cpu_multicore] maps to
    decide about, and on streaming runs.  [par_chunks] depends on the
    domain count; determinism checks across domain counts compare
    [counters], not this record. *)

type t = {
  r_program : string;
  r_engine : string;
  r_level : Collect.level;
  r_wall_s : float;              (** end-to-end wall-clock of the run *)
  r_counters : counters;
  r_timers : timer list;         (** roots; empty when timing was off *)
  r_coverage : coverage option;  (** compiled engine only *)
  r_parallel : parallel option;  (** multicore runs only *)
}

val of_collector :
  ?parallel:parallel ->
  program:string ->
  engine:string ->
  wall_s:float ->
  counters:counters ->
  Collect.t ->
  t
(** Freeze a collector into a report, copying [counters] and the
    decision records of [parallel].  Coverage is included when the
    collector recorded any planner activity. *)

val shape : t -> string
(** Deterministic structural signature of the timing tree — kinds, names,
    invocation counts and nesting, but no times.  Equal across engines for
    the same program and inputs; the cross-validation suite asserts it. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table: counters, coverage, and the timing tree with
    per-construct counts, totals and percentages. *)

val pp_counters : Format.formatter -> counters -> unit

val to_json : t -> Json.t
val to_trace : t -> Json.t
(** Chrome trace-event format ("traceEvents" with "ph": "X" complete
    events, microsecond timestamps).  Timestamps are synthetic — the tree
    stores aggregates, so spans are laid out proportionally under their
    parents rather than replaying the raw interleaving. *)

val save_json : t -> string -> unit
val save_trace : t -> string -> unit
