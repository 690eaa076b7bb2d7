(* The measurement protocol (Interp.Profile) and its clock: set-up is
   timed apart from the run-only walls of one planned instance, timed
   runs compute what a fresh Exec.run computes, an instrumented
   breakdown never replaces the timed runs, and the sampler leaves
   preparation out of its walls. *)

module P = Interp.Profile
module R = Obs.Report

let gemm = Workloads.Polybench.find "gemm"
let symbols = gemm.Workloads.Polybench.k_mini

let config ?(instrument = Obs.Collect.Off) engine =
  Interp.Exec.Config.(
    default |> with_engine engine |> with_instrument instrument)

(* Profile gemm, keeping the arguments of the last run [Profile.run]
   made, whose outputs it has written. *)
let profile ?instrument ~repeat engine =
  let g = gemm.Workloads.Polybench.k_build () in
  let last = ref [] in
  let args_for () =
    last := P.make_args ~symbols g;
    !last
  in
  let res =
    P.run ~config:(config ?instrument engine) ~repeat ~symbols ~args_for g
  in
  (res, !last)

let check_protocol engine () =
  let repeat = 5 in
  let res, outputs = profile ~repeat engine in
  Alcotest.(check bool) "set-up timed" true (res.P.p_setup_s > 0.);
  Alcotest.(check int) "one wall per timed run" repeat
    (List.length res.P.p_walls);
  let s = res.P.p_run in
  Alcotest.(check int) "summary count" repeat s.P.s_n;
  Alcotest.(check bool) "min <= q1 <= median <= q3" true
    (s.P.s_min <= s.P.s_q1 && s.P.s_q1 <= s.P.s_median
    && s.P.s_median <= s.P.s_q3);
  let g = gemm.Workloads.Polybench.k_build () in
  let args = P.make_args ~symbols g in
  let fresh = Interp.Exec.run ~config:(config engine) ~symbols ~args g in
  List.iter2
    (fun (n, expected) (n', got) ->
      Alcotest.(check string) "same container" n n';
      Alcotest.(check bool)
        (Fmt.str "%s matches a fresh Exec.run" n)
        true
        (Interp.Tensor.equal ~eps:0. expected got))
    args outputs;
  Alcotest.(check string) "counters match a fresh Exec.run"
    (Fmt.str "%a" R.pp_counters fresh.R.r_counters)
    (Fmt.str "%a" R.pp_counters res.P.p_report.R.r_counters)

(* Set-up is instance creation plus a full first run (which compiles the
   plans), so it exceeds the fastest timed run without relying on a
   margin that an oversubscribed host could eat. *)
let t_setup_exceeds_run () =
  let res, _ = profile ~repeat:5 Interp.Plan.compiled in
  Alcotest.(check bool) "set-up > fastest run" true
    (res.P.p_setup_s > res.P.p_run.P.s_min)

let t_instrumented_breakdown () =
  let repeat = 3 in
  let res, _ =
    profile ~instrument:Obs.Collect.All ~repeat Interp.Plan.compiled
  in
  Alcotest.(check bool) "breakdown has a timer tree" true
    (res.P.p_report.R.r_timers <> []);
  Alcotest.(check int) "timed runs still counted" repeat
    (List.length res.P.p_walls)

let t_invalid_counts () =
  let g = gemm.Workloads.Polybench.k_build () in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  raises "run repeat 0" (fun () -> P.run ~repeat:0 ~symbols g);
  raises "run warmup -1" (fun () -> P.run ~warmup:(-1) ~symbols g);
  raises "sample repeat 0" (fun () ->
      P.sample ~repeat:0 ~prepare:ignore ignore)

(* The median, not every wall: one preemption may stretch a single
   trivial call past 5 ms. *)
let t_sample_excludes_prepare () =
  let walls =
    P.sample ~repeat:5
      ~prepare:(fun () -> Unix.sleepf 0.005)
      (fun () -> ignore (Sys.opaque_identity 1))
  in
  Alcotest.(check int) "one wall per timed call" 5 (List.length walls);
  let median = (P.summarize walls).P.s_median in
  Alcotest.(check bool)
    (Fmt.str "median wall %.6f s excludes the 5 ms preparation" median)
    true (median < 0.005)

let t_summarize () =
  let s = P.summarize [ 4.; 1.; 3.; 2. ] in
  Alcotest.(check int) "n" 4 s.P.s_n;
  Alcotest.(check (float 1e-12)) "median of an even count" 2.5 s.P.s_median;
  Alcotest.(check (float 1e-12)) "q1" 1.75 s.P.s_q1;
  Alcotest.(check (float 1e-12)) "q3" 3.25 s.P.s_q3;
  Alcotest.(check (float 1e-12)) "min" 1. s.P.s_min

let t_clock_monotonic () =
  let prev = ref (Obs.Collect.now ()) in
  for _ = 1 to 100_000 do
    let t = Obs.Collect.now () in
    if t < !prev then
      Alcotest.failf "clock went back: %.9f after %.9f" t !prev;
    prev := t
  done

let suite =
  [ ("gemm protocol, reference engine", `Quick,
     check_protocol Interp.Plan.reference);
    ("gemm protocol, compiled engine", `Quick,
     check_protocol Interp.Plan.compiled);
    ("compiled set-up exceeds fastest run", `Quick, t_setup_exceeds_run);
    ("instrumented breakdown keeps timed runs", `Quick,
     t_instrumented_breakdown);
    ("invalid counts raise", `Quick, t_invalid_counts);
    ("sampler leaves preparation untimed", `Quick, t_sample_excludes_prepare);
    ("summary quartiles", `Quick, t_summarize);
    ("Collect.now never decreases", `Quick, t_clock_monotonic) ]
