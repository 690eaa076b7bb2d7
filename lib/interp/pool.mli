(** Spawn-once/reuse domain pool for the compiled engine's parallel maps.

    Workers are plain [Stdlib.Domain]s parked on mutex/condition
    mailboxes, spawned lazily on first use, reused for the rest of the
    process and joined at exit; at most 64.  Not reentrant: [run] must
    only be called from the main domain (parallel map bodies never
    start nested parallel regions). *)

val run : domains:int -> (int -> unit) -> unit
(** [run ~domains f] executes [f w] for every worker index [w] in
    [0, domains): index 0 on the calling domain, the rest on pool
    domains.  Barrier semantics — returns after all indices finish — and
    re-raises the first exception in worker-index order, so failures are
    deterministic.  [domains <= 1] degenerates to [f 0] inline. *)

val available : unit -> int
(** [Domain.recommended_domain_count ()]. *)
