(* Aggregate service counters for the serve daemon, reported through the
   [stats] request.

   Latencies are kept in a bounded ring (the most recent [lat_window]
   request latencies); percentiles sort a snapshot of the ring at query
   time, which at this window size is microseconds — fine for a stats
   endpoint.  All mutation is behind one mutex: connection threads
   record sheds and queue depth, the executor records completions. *)

module Json = Obs.Json

let lat_window = 4096

type t = {
  lock : Mutex.t;
  mutable requests : int;     (* run requests completed, ok or error *)
  mutable errors : int;       (* of which failed *)
  mutable shed : int;         (* rejected at admission (queue full) *)
  mutable batched : int;      (* served as a same-key batch follower *)
  mutable queue_depth : int;  (* gauge: jobs waiting or executing *)
  mutable max_queue_depth : int;
  lats : float array;         (* seconds, ring buffer *)
  mutable lat_count : int;    (* total recorded (ring wraps) *)
  started : float;
}

let create () =
  { lock = Mutex.create (); requests = 0; errors = 0; shed = 0; batched = 0;
    queue_depth = 0; max_queue_depth = 0; lats = Array.make lat_window 0.;
    lat_count = 0; started = Obs.Collect.now () }

let locked m f =
  Mutex.lock m.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock m.lock) f

let record_request m ~ok ~batched ~latency_s =
  locked m (fun () ->
      m.requests <- m.requests + 1;
      if not ok then m.errors <- m.errors + 1;
      if batched then m.batched <- m.batched + 1;
      m.lats.(m.lat_count mod lat_window) <- latency_s;
      m.lat_count <- m.lat_count + 1)

let record_shed m = locked m (fun () -> m.shed <- m.shed + 1)

let queue_changed m depth =
  locked m (fun () ->
      m.queue_depth <- depth;
      if depth > m.max_queue_depth then m.max_queue_depth <- depth)

(* Nearest-rank percentile over the retained window. *)
let percentiles_locked m qs =
  let n = min m.lat_count lat_window in
  if n = 0 then List.map (fun _ -> 0.) qs
  else begin
    let xs = Array.sub m.lats 0 n in
    Array.sort Float.compare xs;
    List.map
      (fun q ->
        let rank = int_of_float (ceil (q *. float_of_int n)) in
        xs.(max 0 (min (n - 1) (rank - 1))))
      qs
  end

type snapshot = {
  s_requests : int;
  s_errors : int;
  s_shed : int;
  s_batched : int;
  s_queue_depth : int;
  s_max_queue_depth : int;
  s_uptime_s : float;
  s_p50_s : float;
  s_p95_s : float;
  s_p99_s : float;
}

let snapshot m =
  locked m (fun () ->
      let ps = percentiles_locked m [ 0.50; 0.95; 0.99 ] in
      match ps with
      | [ p50; p95; p99 ] ->
        { s_requests = m.requests;
          s_errors = m.errors;
          s_shed = m.shed;
          s_batched = m.batched;
          s_queue_depth = m.queue_depth;
          s_max_queue_depth = m.max_queue_depth;
          s_uptime_s = Obs.Collect.now () -. m.started;
          s_p50_s = p50;
          s_p95_s = p95;
          s_p99_s = p99 }
      | _ -> assert false)

let to_json (s : snapshot) ~(cache : Cache.stats) : Json.t =
  Json.Obj
    [ ("requests", Json.Int s.s_requests);
      ("errors", Json.Int s.s_errors);
      ("shed", Json.Int s.s_shed);
      ("batched", Json.Int s.s_batched);
      ("queue_depth", Json.Int s.s_queue_depth);
      ("max_queue_depth", Json.Int s.s_max_queue_depth);
      ("uptime_s", Json.Float s.s_uptime_s);
      ("latency_p50_s", Json.Float s.s_p50_s);
      ("latency_p95_s", Json.Float s.s_p95_s);
      ("latency_p99_s", Json.Float s.s_p99_s);
      ("cache", Cache.to_json cache) ]
