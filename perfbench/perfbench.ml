(* The repository benchmark: one workload per invocation, every op's
   output checked, every metric printed by name and unit.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
       --sdfg-exe PATH --out DIR

   The last line of standard output is the result object.  With
   --trace 0 it carries the end-to-end metrics; with --trace 1 the
   per-layer metrics, and the spans are written to DIR.  run.py builds
   this executable and the daemon, then runs it; README.md describes the
   workloads and the metrics. *)

(* Per-call costs, measured on every workload: the median self time of
   the spans of that name.  Every workload loads programs through
   [Pipeline] in set-up or in its checks, so each has samples. *)
let calls =
  [ "builder.ndlang_parse"; "core.sdfg_parse"; "core.validate";
    "core.propagate"; "core.hash"; "analysis.races"; "interp.create";
    "interp.run" ]

let layers =
  [ "builder"; "core"; "analysis"; "interp"; "opt"; "transform"; "machine";
    "serve"; "protocol"; "bench" ]

(* Op latencies in ms, each scaled by the canary read around it
   (Report.normalize). *)
let normalized (o : Report.outcome) =
  let canary = Report.canary_at o.Report.drift in
  Array.mapi
    (fun i ns -> Report.normalize ~canary:(canary i) (Tr.ms ns))
    o.Report.latencies_ns

let raw (o : Report.outcome) = Array.map Tr.ms o.Report.latencies_ns

(* The ops in consecutive windows of [o.window] ops; each end-to-end
   figure is the median over windows of its per-window value, so a slow
   stretch the canary misses moves it only if it covers half the run,
   while a change to the system moves every window. *)
let per_window (o : Report.outcome) lat f =
  let w = o.Report.window in
  List.init (Array.length lat / w) (fun k -> f (Array.to_list (Array.sub lat (k * w) w)))
  |> Tr.median

(* Ops completed per second of op time; with [concurrency] callers each
   always waiting on one op, Little's law gives the rate. *)
let ops_per_s (o : Report.outcome) lat =
  per_window o lat (fun l ->
      float_of_int (o.Report.concurrency * List.length l)
      *. 1e3 /. List.fold_left ( +. ) 0. l)

let setup_s (o : Report.outcome) =
  Tr.median
    (List.map (fun (t, canary) -> Report.normalize ~canary t) o.Report.setup)

let end_to_end (o : Report.outcome) =
  let lat = normalized o in
  [ ("ops_per_s", ops_per_s o lat, "op/s");
    ("latency_p50_ms", per_window o lat Tr.median, "ms");
    ("setup_s", setup_s o, "s");
    ("peak_rss_mb", o.Report.rss_mb, "MB") ]

(* The same figures without the canary scaling, printed before the
   result. *)
let unscaled (o : Report.outcome) =
  let lat = raw o in
  [ ("raw.ops_per_s", ops_per_s o lat);
    ("raw.latency_p50_ms", per_window o lat Tr.median);
    ("raw.setup_s", Tr.median (List.map fst o.Report.setup)) ]

let canaries (o : Report.outcome) = List.map snd o.Report.drift.Report.marks

let per_layer (o : Report.outcome) =
  let ts = o.Report.tracers in
  (("host.ref_loop_ms", Tr.median (canaries o), "ms")
   :: List.map (fun c -> (c ^ "_ms", Tr.median (Tr.call_ms ts c), "ms")) calls)
  @ [ ("interp.plan_ms", Tr.median (Tr.samples ts "interp.plan_ms"), "ms") ]
  @ List.map (fun (n, v) -> (n, v, "count")) o.Report.values
  @ [ ("bench.self_share", Tr.layer_shares ts "bench", "ratio");
      ("trace.ops_per_s", ops_per_s o (normalized o), "op/s") ]

(* The drift canary, three times, printed at the start and the end. *)
let canary label =
  Printf.printf "host.ref_loop_ms %s %s\n%!" label
    (String.concat " "
       (List.init 3 (fun _ -> Printf.sprintf "%.3f" (Report.canary_ms ()))))

let main () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.
  and trace = ref 0 and exe = ref "" and out = ref ".perfbench-out" in
  let inject = function
    | "validate-delay" -> Pipeline.validate_delay := true
    | "corrupt-output" -> Pipeline.corrupt_output := true
    | f -> raise (Arg.Bad ("unknown fault " ^ f))
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME exec-suite, compile-cold, optimize or serve-mixed");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds,
       "S nominal measured seconds: the op count is S times the workload's \
        nominal rate");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--sdfg-exe", Arg.Set_string exe, "PATH the daemon serve-mixed runs");
      ("--out", Arg.Set_string out, "DIR spans, daemon logs and sockets");
      ("--inject", Arg.String inject,
       "FAULT validate-delay or corrupt-output (self-test only)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists !out) then Unix.mkdir !out 0o755;
  let tr = Tr.create (!trace = 1) in
  canary "start";
  let seed = !seed and seconds = !seconds in
  let o =
    match !workload with
    | "exec-suite" -> Exec_suite.run ~tr ~seed ~seconds
    | "compile-cold" -> Compile_cold.run ~tr ~seed ~seconds
    | "optimize" -> Optimize.run ~tr ~seed ~seconds
    | "serve-mixed" -> Serve_mixed.run ~tr ~seed ~seconds ~exe:!exe ~out:!out
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  canary "end";
  Printf.printf "op_sequence_digest %s\n" o.Report.digest;
  Printf.printf "setup_s reps %s\n"
    (String.concat " "
       (List.map (fun (t, c) -> Printf.sprintf "%.4f@%.2f" t c) o.Report.setup));
  List.iter (fun (n, v) -> Printf.printf "%s %.4f\n" n v) (unscaled o @ o.Report.notes);
  let metrics =
    if !trace = 1 then begin
      let path =
        Filename.concat !out (Printf.sprintf "%s-seed%d.spans.tsv" !workload seed)
      in
      Tr.save o.Report.tracers path;
      Printf.printf "spans %s (%d past capacity)\n" path
        (Tr.dropped o.Report.tracers);
      let share = Tr.layer_shares o.Report.tracers in
      List.iter
        (fun l ->
          if share l > 0. then Printf.printf "%s.self_share %.4f\n" l (share l))
        layers;
      per_layer o
    end
    else end_to_end o
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then Printf.eprintf "perfbench: %s not measured\n" n)
    metrics;
  Report.print_result
    ~correct:(o.Report.failed = 0 && finite)
    ~attempted:o.Report.attempted ~failed:o.Report.failed
    (List.map
       (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.), u))
       metrics)

let () =
  try main () with
  | Arg.Bad msg ->
    prerr_endline msg;
    exit 2
  | e ->
    Printf.eprintf "perfbench: %s\n%s" (Printexc.to_string e)
      (Printexc.get_backtrace ());
    exit 1
