(** Optimization sessions — the programmatic core of DIODE (paper §4.2).

    A session holds a base SDFG and the history of applied
    transformations, with a figure of merit recorded after each step:
    "run and compare historical performance of transformations", "save
    transformation chains to files", and "optimization version control
    ... diverging from a mid-point in the chain".

    The session state (current graph, history) is encapsulated; history
    is only readable as an immutable list and only changed through
    {!apply}/{!apply_exn}/{!undo}. *)

type entry = {
  e_step : Xform.chain_step;
  e_note : string;          (** candidate description *)
  e_metric : float option;  (** figure of merit after the step *)
}

type t

val create : ?measure:(Sdfg_ir.Sdfg.t -> float) -> (unit -> Sdfg_ir.Sdfg.t) -> t
(** [create ?measure build] starts a session on a fresh [build ()].
    [measure] (optional) is evaluated after every applied step and
    recorded as the entry's metric. *)

val create_profiled :
  ?exec:Interp.Exec.Config.t ->
  ?warmup:int ->
  ?repeat:int ->
  ?symbols:(string * int) list ->
  (unit -> Sdfg_ir.Sdfg.t) ->
  t
(** A session whose measure is the profiler's median run-only wall
    (set-up excluded) over [repeat] runs (default 3, after [warmup]
    unmeasured runs) of the current graph under the [exec] config (default
    {!Interp.Exec.Config.default}) — the DIODE "run and compare" loop
    backed by {!Interp.Profile}. *)

val current : t -> Sdfg_ir.Sdfg.t
(** The working graph.  Mutated in place by {!apply}. *)

val history : t -> entry list
(** Applied steps, oldest first. *)

val candidates : t -> string -> Xform.candidate list
(** Candidates of the named transformation on the current graph. *)

val apply : ?index:int -> t -> string -> (unit, string) result
(** Apply the named transformation to candidate [index] (default 0) and
    record the step.  [Error msg] when the transformation does not apply
    (unknown candidate index, failed precondition); the session is
    unchanged in that case. *)

val apply_exn : ?index:int -> t -> string -> unit
(** As {!apply} but raises {!Xform.Not_applicable}. *)

val undo : ?n:int -> t -> unit
(** Drop the last [n] steps.  The session keeps a snapshot of the graph
    after each step, and the current graph becomes a clone of the last
    kept step's snapshot (of the base when none is kept).  Nothing is
    re-applied and the measure is not run, so the kept entries keep their
    recorded metrics. *)

val branch_at : t -> steps:int -> t
(** A new session holding the first [steps] entries, with their recorded
    metrics, on a clone of the snapshot after the last of them —
    diverging from a mid-point in the chain (§4.2).  Runs no measure;
    the two sessions share no working graph, so either can go on without
    touching the other. *)

val to_chain : t -> Xform.chain_step list
val save_chain : t -> string -> unit

val replay_chain :
  ?measure:(Sdfg_ir.Sdfg.t -> float) ->
  (unit -> Sdfg_ir.Sdfg.t) ->
  Xform.chain_step list ->
  t

val load_chain :
  ?measure:(Sdfg_ir.Sdfg.t -> float) -> (unit -> Sdfg_ir.Sdfg.t) -> string -> t

val pp_history : Format.formatter -> t -> unit
(** The historical-performance view of DIODE's comparison pane. *)
