(* Streams: the one runtime form of a stream container.

   A batch run allocates each stream unbounded: a plain queue with no
   lock and no metrics, touched by one domain only (the race analysis
   keeps every map that accesses a stream serial).  A pipeline
   ([Pipeline.run]) connects its stages by bounded channels: a
   fixed-capacity ring buffer with mutex/condvar blocking semantics.
   Producers block on a full channel (backpressure — this is what bounds
   memory when a producer outruns its consumer), consumers block on an
   empty one, and [close] marks end-of-stream: once a closed channel
   drains, [pop] returns [None] and consume-scope workers shut down.

   Channels keep their sustained-load counters (pushes, pops, depth
   high-water mark, accumulated blocked time on either side) in the
   report's own [channel_stat] record, so [Obs.Report]'s parallel
   section can surface per-channel pressure without any extra
   instrumentation hooks in the workers. *)

type 'a channel = {
  buf : 'a option array;          (* ring storage, [cap] slots *)
  cap : int;
  mutable head : int;             (* index of the next element to pop *)
  mutable len : int;              (* live elements in the ring *)
  mutable closed : bool;
  lock : Mutex.t;
  nonempty : Condition.t;         (* signalled on push and on close *)
  nonfull : Condition.t;          (* signalled on pop and on close *)
  m : Obs.Report.channel_stat;    (* metrics, guarded by [lock] *)
}

type 'a t = Unbounded of 'a Queue.t | Bounded of 'a channel

exception Closed of string

let zero_stat name cap =
  { Obs.Report.pc_name = name; pc_capacity = cap; pc_pushes = 0; pc_pops = 0;
    pc_depth_hwm = 0; pc_push_blocked_s = 0.; pc_pop_blocked_s = 0. }

let create ?(name = "") ?capacity () =
  match capacity with
  | None -> Unbounded (Queue.create ())
  | Some capacity ->
    let cap = max 1 capacity in
    Bounded
      { buf = Array.make cap None; cap; head = 0; len = 0; closed = false;
        lock = Mutex.create (); nonempty = Condition.create ();
        nonfull = Condition.create (); m = zero_stat name cap }

let capacity = function Unbounded _ -> 0 | Bounded c -> c.cap

let locked c f =
  Mutex.lock c.lock;
  let r = f () in
  Mutex.unlock c.lock;
  r

let length = function
  | Unbounded q -> Queue.length q
  | Bounded c -> locked c (fun () -> c.len)

let push s v =
  match s with
  | Unbounded q -> Queue.push v q
  | Bounded c ->
    Mutex.lock c.lock;
    let m = c.m in
    if c.len >= c.cap && not c.closed then begin
      let t0 = Obs.Collect.now () in
      while c.len >= c.cap && not c.closed do
        Condition.wait c.nonfull c.lock
      done;
      m.pc_push_blocked_s <- m.pc_push_blocked_s +. (Obs.Collect.now () -. t0)
    end;
    if c.closed then begin
      Mutex.unlock c.lock;
      raise (Closed m.pc_name)
    end;
    c.buf.((c.head + c.len) mod c.cap) <- Some v;
    c.len <- c.len + 1;
    m.pc_pushes <- m.pc_pushes + 1;
    if c.len > m.pc_depth_hwm then m.pc_depth_hwm <- c.len;
    Condition.signal c.nonempty;
    Mutex.unlock c.lock

(* Pop the head of the ring, or [None] when it is empty; the caller
   holds the lock and this releases it. *)
let take c =
  if c.len = 0 then begin
    Mutex.unlock c.lock;
    None
  end
  else begin
    let v = c.buf.(c.head) in
    c.buf.(c.head) <- None;
    c.head <- (c.head + 1) mod c.cap;
    c.len <- c.len - 1;
    c.m.pc_pops <- c.m.pc_pops + 1;
    Condition.signal c.nonfull;
    Mutex.unlock c.lock;
    v
  end

let pop = function
  | Unbounded q -> Queue.take_opt q
  | Bounded c ->
    Mutex.lock c.lock;
    if c.len = 0 && not c.closed then begin
      let t0 = Obs.Collect.now () in
      while c.len = 0 && not c.closed do
        Condition.wait c.nonempty c.lock
      done;
      c.m.pc_pop_blocked_s <-
        c.m.pc_pop_blocked_s +. (Obs.Collect.now () -. t0)
    end;
    (* empty here means closed and drained: end-of-stream *)
    take c

let try_pop = function
  | Unbounded q -> Queue.take_opt q
  | Bounded c ->
    Mutex.lock c.lock;
    take c

let drain s f =
  match s with
  | Unbounded q ->
    while not (Queue.is_empty q) do
      f (Queue.take q)
    done
  | Bounded _ ->
    let rec loop () =
      match try_pop s with
      | Some v -> f v; loop ()
      | None -> ()
    in
    loop ()

let to_list = function
  | Unbounded q -> List.of_seq (Queue.to_seq q)
  | Bounded c ->
    locked c (fun () ->
        List.init c.len (fun i -> Option.get c.buf.((c.head + i) mod c.cap)))

let clear s =
  match s with Unbounded q -> Queue.clear q | Bounded _ -> drain s ignore

let close = function
  | Unbounded _ -> ()
  | Bounded c ->
    locked c (fun () ->
        if not c.closed then begin
          c.closed <- true;
          Condition.broadcast c.nonempty;
          Condition.broadcast c.nonfull
        end)

let stats = function
  | Unbounded _ -> zero_stat "" 0
  | Bounded c -> locked c (fun () -> { c.m with pc_pushes = c.m.pc_pushes })
