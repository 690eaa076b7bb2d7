(** Streams: the one runtime form of a stream container.

    A stream is either unbounded or a bounded channel, fixed when it is
    created.  Batch runs allocate unbounded streams: a plain queue that
    takes no lock, keeps no metrics and never blocks, because only one
    domain touches it.  Streaming execution ({!Pipeline.run}) connects
    its pipeline stages by bounded channels: a fixed-capacity ring buffer
    where [push] blocks while the channel is full (backpressure), [pop]
    blocks while it is empty, and [close] marks end-of-stream — after a
    closed channel drains, [pop] returns [None].

    Channel operations are thread-safe (one mutex, two condition
    variables per channel) and may be called from any domain.  A
    channel also accumulates sustained-load metrics — push/pop counts,
    depth high-water mark, and the wall-clock time either side spent
    blocked — surfaced via {!stats} and reported in [Obs.Report]'s
    parallel section. *)

type 'a t

(** Raised by {!push} on a closed channel (the payload is the channel
    name).  Pushing after close is always a caller bug — EOS must
    cascade strictly downstream. *)
exception Closed of string

(** [create ()] makes an empty unbounded stream; [create ~capacity ()]
    an empty open channel, capacity clamped to at least 1. *)
val create : ?name:string -> ?capacity:int -> unit -> 'a t

val capacity : 'a t -> int
(** A channel's capacity; [0] for an unbounded stream. *)

(** Current number of buffered elements. *)
val length : 'a t -> int

(** Blocks while a channel is full; raises {!Closed} if the channel is
    (or becomes, while waiting) closed. *)
val push : 'a t -> 'a -> unit

(** Blocks while a channel is empty and open; [None] means end-of-stream
    (closed and fully drained).  On an unbounded stream, [None] means
    empty. *)
val pop : 'a t -> 'a option

(** Non-blocking pop; [None] when currently empty (no EOS distinction —
    use {!pop} in worker loops). *)
val try_pop : 'a t -> 'a option

val drain : 'a t -> ('a -> unit) -> unit
(** Pop and pass each element to [f] until the stream is empty,
    including elements [f] itself pushes back.  Never blocks.  On an
    unbounded stream this is one lock-free pop per element with no
    allocation: the batch consume loop. *)

val to_list : 'a t -> 'a list
(** The buffered elements in pop order, without removing them. *)

val clear : 'a t -> unit

(** Idempotent; wakes all blocked producers and consumers.  A no-op on
    an unbounded stream. *)
val close : 'a t -> unit

val stats : 'a t -> Obs.Report.channel_stat
(** A copy of a channel's metrics, taken under its lock.  An unbounded
    stream keeps none: its record is all zeros, capacity [0]. *)
