(* Timing and tracing.

   Every measured call is timed on one monotonic clock (bechamel's
   CLOCK_MONOTONIC binding).  A traced run also records each call as a
   span — name, start, stop, parent and op id — into arrays allocated
   once at start-up and written out at exit; an untraced run records
   nothing, so the end-to-end metrics carry no tracing cost.  Span names
   are [<layer>.<call>]: the prefix is the layer a span's self time is
   attributed to. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms ns = float_of_int ns /. 1e6

type t = {
  on : bool;
  names : string array;
  starts : int array;
  stops : int array;
  parents : int array;
  ops : int array;
  mutable len : int;
  mutable dropped : int;  (* spans past capacity, not recorded *)
  mutable parent : int;  (* innermost open span; -1 when none *)
  mutable op : int;  (* id of the op being timed; -1 outside ops *)
  samples : (string, float list) Hashtbl.t;
      (* per-layer values derived from timings, such as plan time *)
}

(* Spans a traced run can hold; the arrays are allocated once, at
   start-up, so recording a span never allocates. *)
let capacity = 1 lsl 18

let create on =
  let cap = if on then capacity else 0 in
  { on;
    names = Array.make cap "";
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    parents = Array.make cap (-1);
    ops = Array.make cap (-1);
    len = 0;
    dropped = 0;
    parent = -1;
    op = -1;
    samples = Hashtbl.create 8 }

let span t name f =
  if not t.on then f ()
  else if t.len >= Array.length t.names then begin
    t.dropped <- t.dropped + 1;
    f ()
  end
  else begin
    let i = t.len in
    t.len <- i + 1;
    t.names.(i) <- name;
    t.parents.(i) <- t.parent;
    t.ops.(i) <- t.op;
    t.parent <- i;
    let close () =
      t.stops.(i) <- now_ns ();
      t.parent <- t.parents.(i)
    in
    t.starts.(i) <- now_ns ();
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* One op, timed the same way whether or not spans are recorded; in a
   traced run it is the root span of every call the op makes. *)
let op t id f =
  t.op <- id;
  let r = time (fun () -> span t "bench.op" f) in
  t.op <- -1;
  r

let sample t name v =
  let prev = Option.value ~default:[] (Hashtbl.find_opt t.samples name) in
  Hashtbl.replace t.samples name (v :: prev)

let samples ts name =
  List.concat_map
    (fun t -> Option.value ~default:[] (Hashtbl.find_opt t.samples name))
    ts

(* --- order statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- span summaries ------------------------------------------------------ *)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* A span's self time: its duration minus its children's. *)
let self_times t =
  let self = Array.init t.len (fun i -> t.stops.(i) - t.starts.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stops.(i) - t.starts.(i))
  done;
  self

(* Self times (ms) of every span called [name], set-up and checks
   included: a per-call cost, comparable across workloads. *)
let call_ms ts name =
  List.concat_map
    (fun t ->
      let self = self_times t in
      let acc = ref [] in
      for i = t.len - 1 downto 0 do
        if String.equal t.names.(i) name then acc := ms self.(i) :: !acc
      done;
      !acc)
    ts

(* Each layer's share of the ops' time: self time of the spans inside
   ops, summed per layer, over the summed op durations.  The op root
   ([bench.op]) keeps whatever no layer span covers. *)
let layer_shares ts =
  let per_layer = Hashtbl.create 16 and total = ref 0 in
  List.iter
    (fun t ->
      let self = self_times t in
      for i = 0 to t.len - 1 do
        if t.ops.(i) >= 0 then begin
          let l = layer t.names.(i) in
          let prev = Option.value ~default:0 (Hashtbl.find_opt per_layer l) in
          Hashtbl.replace per_layer l (prev + self.(i));
          if t.parents.(i) < 0 then
            total := !total + (t.stops.(i) - t.starts.(i))
        end
      done)
    ts;
  fun l ->
    match Hashtbl.find_opt per_layer l with
    | Some ns when !total > 0 -> float_of_int ns /. float_of_int !total
    | _ -> 0.

let dropped ts = List.fold_left (fun n t -> n + t.dropped) 0 ts

(* Tab-separated, one span per line, for offline inspection. *)
let save ts path =
  let oc = open_out path in
  output_string oc "tracer\tspan\tname\tstart_ns\tstop_ns\tparent\top\n";
  List.iteri
    (fun k t ->
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" k i t.names.(i)
          t.starts.(i) t.stops.(i) t.parents.(i) t.ops.(i)
      done)
    ts;
  close_out oc
