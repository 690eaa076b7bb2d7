(* What a workload hands back, the host's speed measured around it, and
   the result line. *)

(* --- the drift canary ------------------------------------------------------ *)

(* Fixed code that touches nothing of the system: a register-only integer
   loop, then reads at fixed random offsets of an 8 MB array.  The host's
   slow stretches come from memory contention as much as from core speed,
   and op times were found to follow this mix of the two (block
   correlation 0.9, against 0.75 for the integer loop alone). *)
let canary_table = lazy (Array.init (1 lsl 20) float_of_int)

let canary_offsets =
  lazy
    (let rs = Random.State.make [| 0x63616e |] in
     Array.init (1 lsl 17) (fun _ -> Random.State.int rs (1 lsl 20)))

let canary_ms () =
  let table = Lazy.force canary_table and offsets = Lazy.force canary_offsets in
  let (), dt =
    Tr.time (fun () ->
        let x = ref 1 in
        for i = 1 to 1_000_000 do
          x := ((!x * 1103515245) + i) land 0x3fffffff
        done;
        let s = ref (float_of_int !x) in
        Array.iter (fun j -> s := !s +. Array.unsafe_get table j) offsets;
        ignore (Sys.opaque_identity !s))
  in
  Tr.ms dt

(* The canary run on [cores] cores at once, copies in extra domains, and
   the mean of the copies' times.  An in-process workload runs its ops
   in one domain and reads one core; serve-mixed's ops span the client
   and the daemon, two processes on two cores, and reads both: there the
   two-core reading tracked the ops' drift better (ops_per_s spread 0.05
   against 0.13 over six seeds), while on in-process workloads the
   one-core reading did (0.05–0.09 against 0.15–0.17). *)
let canary ~cores =
  let others = List.init (cores - 1) (fun _ -> Domain.spawn canary_ms) in
  let mine = canary_ms () in
  List.fold_left (fun acc d -> acc +. Domain.join d) mine others
  /. float_of_int cores

(* The canary's time on the reference host in a quiet stretch.  A time
   measured next to a canary reading [c] ms is reported as [t * ref / c]:
   what it would have taken on that host at that speed.  A change to the
   system moves the time and not the canary, so it shows in full. *)
let canary_ref_ms = 6.0

let normalize ~canary t = t *. canary_ref_ms /. canary

(* Canary readings interleaved with a workload's ops: one before op 0,
   one every [every] ops, one after the last.  Taken between ops, never
   inside a timed span. *)
type drift = { every : int; cores : int; mutable marks : (int * float) list }

let drift ~cores every = { every = max 1 every; cores; marks = [] }

let tick d i =
  if i mod d.every = 0 then d.marks <- (i, canary ~cores:d.cores) :: d.marks

let finish d n = d.marks <- (n, canary ~cores:d.cores) :: d.marks

(* The canary for op [i]: the mean of the readings just before and just
   after its group. *)
let canary_at d =
  let marks = Array.of_list (List.rev d.marks) in
  fun i ->
    let k = ref 0 in
    while !k + 1 < Array.length marks - 1 && fst marks.(!k + 1) <= i do incr k done;
    (snd marks.(!k) +. snd marks.(!k + 1)) /. 2.

(* One set-up repetition, from a collected heap and between two canary
   readings; returns its value, its raw seconds and the canary. *)
let setup_rep ~cores f =
  Gc.full_major ();
  let c0 = canary ~cores in
  let v, ns = Tr.time f in
  let c1 = canary ~cores in
  (v, (float_of_int ns /. 1e9, (c0 +. c1) /. 2.))

(* --- the outcome ----------------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;  (* failed or mismatched ops *)
  latencies_ns : int array;  (* one per op *)
  concurrency : int;  (* callers, each always waiting on one op *)
  window : int;  (* ops per window of the windowed medians *)
  drift : drift;  (* canary readings between the ops *)
  setup : (float * float) list;  (* raw seconds and canary, per repetition *)
  rss_mb : float;  (* peak RSS of the process that executes the ops *)
  digest : string;  (* of the op sequence: same seed, same digest *)
  values : (string * float) list;  (* counts every workload produces *)
  notes : (string * float) list;  (* printed before the result only *)
  tracers : Tr.t list;
}

(* VmHWM of a process ("self" or a pid) in MB, from /proc. *)
let peak_rss_mb pid =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else find ()
      in
      find ())

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  let metric (name, v, unit) =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v)
      unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
