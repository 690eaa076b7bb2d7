(** Instrumentation collector — the mutable timing tree both execution
    engines report into during a run.

    Spans aggregate by (kind, name) under their dynamically enclosing
    span: a scope executed many times is a single tree node carrying an
    invocation count and total wall-clock seconds.  The tree's shape is
    determined by the program structure alone, so the reference and
    compiled engines produce identically-shaped trees (asserted by the
    cross-validation suite). *)

(** Global instrumentation level of a run.  [Off]: collect nothing —
    the compiled engine's planner emits the exact uninstrumented
    closures (zero overhead, no per-iteration branch).  [Marked]: time
    only constructs whose IR [instrument] flag is set.  [All]: time
    every state, scope and tasklet. *)
type level = Off | Marked | All

val level_name : level -> string
val level_of_string : string -> level option

type kind = Sdfg | State | Map | Consume | Tasklet

val kind_name : kind -> string

type span = {
  sp_kind : kind;
  sp_name : string;
  mutable sp_count : int;      (** invocations *)
  mutable sp_total_s : float;  (** accumulated wall-clock seconds *)
  mutable sp_children : span list;  (** newest first; use {!children} *)
}

type t

val create : level -> t
val level : t -> level

val timing_on : t -> bool
(** [level <> Off]. *)

val should_time : t -> flag:bool -> bool
(** Whether a construct carrying IR flag [flag] is timed at this level. *)

val now : unit -> float
(** Seconds on the monotonic clock ([CLOCK_MONOTONIC]), from an
    arbitrary origin: the one clock every timing in the library reads.
    Only differences are meaningful; a wall-clock step cannot make one
    negative. *)

val enter : t -> kind -> string -> span
(** Find-or-create the (kind, name) child of the innermost open span and
    open it, returning it for {!exit} and for memoized {!reenter}. *)

val reenter : t -> span -> unit
(** Re-open an already-resolved span — the compiled engine's fast path:
    the child lookup happened once at plan time. *)

val exit : t -> span -> unit
(** Close the span: accumulate elapsed time, bump the count.  If inner
    spans are still open (an exception propagated through them), they are
    closed too. *)

val roots : t -> span list
(** Top-level spans in first-opened order. *)

val children : span -> span list
(** Child spans in first-opened order. *)

(** {1 Multicore merge} *)

val absorb : t -> t -> unit
(** [absorb dst src] folds [src]'s finished root spans into [dst] under
    [dst]'s innermost open span, summing counts and times by (kind, name)
    recursively, then zeroes [src]'s counts in place (structure kept —
    the compiled engine memoizes span nodes).  The parallel map runtime
    uses this to merge worker-domain collectors back into the main tree;
    the resulting tree shape and counts equal a sequential run's.  Must
    only be called from the domain owning [dst], after workers joined. *)

(** {1 Compiled-engine plan coverage} *)

val note_planned_state : t -> unit
val note_compiled_node : t -> unit
val note_fallback_node : t -> unit

val note_kernel_map : t -> string -> unit
(** Record one map scope lowered to the named bulk kernel. *)

val note_kernel_fallback : t -> string -> unit
(** Record one map scope left on the closure path, with the reason code
    the recognizer produced. *)

val coverage : t -> int * int * int
(** (states planned, nodes compiled natively, nodes on the reference
    fallback path) accumulated by the compiled engine's planner. *)

val kernel_coverage : t -> (string * int) list * (string * int) list
(** (kernel name, maps lowered) and (fallback reason, maps on the
    closure path) tallies, each sorted by key. *)

val merge_coverage : t -> t -> unit
(** [merge_coverage dst src] adds [src]'s coverage counters into [dst]
    (without clearing [src]).  The parallel planner compiles a map body
    once per domain on replica collectors and merges exactly one
    replica's coverage, so totals match the sequential plan. *)
