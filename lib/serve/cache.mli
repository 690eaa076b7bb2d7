(** Content-addressed plan cache: {!Protocol.cache_key} ->
    {!Interp.Exec.Instance}.

    LRU-bounded in memory; every mutation behind one mutex, so the
    executor, connection threads and test domains share a cache freely.
    With [~dir], an on-disk index ([index.json] + one [<key>.sdfg] per
    entry) mirrors the table and instances are rebuilt from it on
    {!create} — a restarted daemon comes up warm (plans recompile
    lazily on first run; parse and validation are skipped).  Each file
    is written to [<file>.tmp] and renamed over the old one, so a crash
    mid-write cannot truncate the index. *)

type t

type stats = {
  c_entries : int;
  c_capacity : int;
  c_hits : int;
  c_misses : int;
  c_evictions : int;
}

val create : ?capacity:int -> ?dir:string -> unit -> t
(** Default capacity 32.  [dir] is created if missing; a corrupt or
    stale persisted entry is skipped, never fatal.
    @raise Invalid_argument when [capacity < 1]. *)

val find : t -> string -> Interp.Exec.Instance.t option
(** Bumps recency and the hit counter; counts a miss on [None]. *)

val add :
  t -> key:string -> text:string -> Interp.Exec.Instance.t ->
  Interp.Exec.Instance.t
(** Register a freshly created instance under [key]; evicts LRU entries
    over capacity and persists.  Returns the winning instance: when a
    concurrent [add] got there first, the earlier one — all callers must
    share a single instance so its internal lock serializes runs. *)

val size : t -> int
val stats : t -> stats
val to_json : stats -> Obs.Json.t
