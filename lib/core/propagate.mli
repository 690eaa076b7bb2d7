(** Memlet propagation — the data-dependency inference of §4.3 step ❶:
    memlet ranges are propagated from tasklets and containers outwards
    through scopes, using the image of the scope function (the map range)
    on the union of the internal memlet subsets.

    Propagated outer memlets are what make exact accelerator copies
    possible, and what the performance model charges for data movement. *)

val scope_params :
  Defs.state -> int -> (string * Symbolic.Subset.range) list
(** Parameters and ranges of a scope entry node. *)

val scope_executions : Defs.state -> int -> Symbolic.Expr.t
(** Number of executions of the scope body (product of range extents). *)

val propagate_memlet :
  params:(string * Symbolic.Subset.range) list ->
  executions:Symbolic.Expr.t ->
  Defs.memlet ->
  Defs.memlet
(** Image of one memlet over the scope parameters; the access count is
    multiplied by the execution count. *)

val propagate_state : Defs.state -> unit
(** Propagate all scopes of a state, innermost first, and record the
    state's content stamp as propagated. *)

val propagate : Defs.sdfg -> unit
(** Propagate every state of [g] and of its nested SDFGs.  A state whose
    content stamp ({!State.stamp}) is the one recorded at its last
    propagation is skipped, since propagation reads nothing outside the
    state; a state holding a nested SDFG is always redone.  A freshly
    built or parsed state has never been propagated. *)

val state_movement_volume : Defs.state -> Symbolic.Expr.t
(** Total data movement of a state's top-level edges, in elements. *)
