(** Profiler: the one measurement protocol of the toolchain.

    Every timing reads {!Obs.Collect.now}, the monotonic clock.  An SDFG
    is measured on one planned {!Exec.Instance}: set-up is timed on its
    own, then the timed runs are uninstrumented runs of that instance,
    and their walls are summarized as median, quartiles, minimum and
    count.  {!sample} applies the same protocol to work that is not an
    SDFG run.  Backs the [sdfg profile] CLI subcommand, the measured
    objective of [Opt.Search], {!Transform.Session}'s default measure
    function and every measured experiment of the bench harness. *)

val make_args :
  ?symbols:(string * int) list -> Sdfg_ir.Sdfg.t -> (string * Tensor.t) list
(** Deterministic dtype-aware inputs for every non-transient array
    container, with shapes evaluated under [symbols].  Identical across
    calls, so repetitions and engines see the same computation. *)

(** {1 Samples} *)

type summary = {
  s_n : int;  (** sample count *)
  s_median : float;
  s_q1 : float;  (** first quartile *)
  s_q3 : float;  (** third quartile; [s_q3 - s_q1] is the IQR *)
  s_min : float;
}

val summarize : float list -> summary
(** Median and quartiles interpolate linearly between order statistics.
    @raise Invalid_argument on an empty list. *)

val summary_to_json : summary -> Obs.Json.t
(** [{"n", "median_s", "q1_s", "q3_s", "min_s"}], in seconds. *)

val sample : repeat:int -> prepare:(unit -> 'a) -> ('a -> unit) -> float list
(** Time a thunk that is not an SDFG run: one unmeasured warm-up call,
    then [repeat] timed ones, in seconds, in order.  Each call gets a
    fresh [prepare ()], made outside the timed span.
    @raise Invalid_argument when [repeat < 1]. *)

(** {1 SDFG runs} *)

type result = {
  p_report : Obs.Report.t;
      (** the breakdown: the median timed run's report when the config's
          instrument level is [Off], else one extra {!Exec.run} at that
          level, which supplies the timer tree and the trace *)
  p_setup_s : float;
      (** {!Exec.Instance.create} plus the first run, which compiles the
          plans *)
  p_walls : float list;
      (** run-only walls of the timed runs, in order: the state machine,
          without copying arguments in and out *)
  p_run : summary;  (** of [p_walls]; [s_n] is the repeat count *)
  p_warmup : int;
  p_host_cores : int;  (** [Domain.recommended_domain_count ()] *)
}

val run :
  ?config:Exec.Config.t ->
  ?warmup:int ->
  ?repeat:int ->
  ?symbols:(string * int) list ->
  ?args_for:(unit -> (string * Tensor.t) list) ->
  Sdfg_ir.Sdfg.t ->
  result
(** Profile an SDFG on one {!Exec.Instance} built from [config]
    (default {!Exec.Config.default}; engine, domains and kernel lowering
    travel in it): time set-up, then [warmup] unmeasured runs (default
    1) and [repeat] timed runs (default 5).  Timed runs are never
    instrumented; at an instrument level other than [Off], one extra
    {!Exec.run} at that level supplies [p_report].  Every run gets fresh
    arguments — from [args_for] when given, else {!make_args} — made
    outside the timed span, so in-place mutation cannot leak between
    repetitions.
    @raise Invalid_argument when [repeat < 1] or [warmup < 0]. *)

val timing_to_json : result -> Obs.Json.t
(** [{"setup_s", "run"}], where [run] is a {!summary_to_json}. *)

val to_json : result -> Obs.Json.t
(** [clock], [host_cores], [warmup], the {!timing_to_json} fields,
    [walls_s], [breakdown] (which run the report came from) and
    [report]. *)

val pp : Format.formatter -> result -> unit
