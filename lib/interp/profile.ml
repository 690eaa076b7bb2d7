(* Profiler: the one measurement protocol of the toolchain (see the
   interface).  Measured runs go through one planned {!Exec.Instance},
   which is counters-only, so an instrumented breakdown is one extra
   {!Exec.run}. *)

module Expr = Symbolic.Expr
open Sdfg_ir
open Tasklang.Types

(* Deterministic inputs for every non-transient array container:
   hash-seeded per container name, varying per element, dtype-aware.
   Identical across calls, so repetitions measure the same computation
   and engines can be compared on equal inputs. *)
let make_args ?(symbols = []) (g : Sdfg.t) : (string * Tensor.t) list =
  let lookup name = List.assoc_opt name symbols in
  Sdfg.descs g
  |> List.filter_map (fun (dname, d) ->
         match d with
         | Defs.Stream _ -> None
         | Defs.Array a when a.Defs.a_transient -> None
         | Defs.Array a ->
           let shape =
             List.map (fun e -> Expr.eval lookup e) a.Defs.a_shape
             |> Array.of_list
           in
           let seed = Hashtbl.hash dname mod 7 in
           let value idx =
             1.0
             +. (float_of_int (List.fold_left ( + ) seed idx) /. 13.)
           in
           let t =
             Tensor.init a.Defs.a_dtype shape (fun idx ->
                 match a.Defs.a_dtype with
                 | F64 | F32 -> F (value idx)
                 | I64 | I32 -> I (List.fold_left ( + ) seed idx mod 11)
                 | Bool -> B (List.fold_left ( + ) seed idx mod 2 = 0))
           in
           Some (dname, t))

type summary = {
  s_n : int;
  s_median : float;
  s_q1 : float;
  s_q3 : float;
  s_min : float;
}

(* Quantiles interpolate linearly between order statistics, so an even
   count's median is the mean of the two middle samples. *)
let summarize samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Profile.summarize: no samples";
  Array.sort Float.compare a;
  let quantile q =
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  in
  { s_n = n; s_median = quantile 0.5; s_q1 = quantile 0.25;
    s_q3 = quantile 0.75; s_min = a.(0) }

let summary_to_json s =
  Obs.Json.Obj
    [ ("n", Obs.Json.Int s.s_n);
      ("median_s", Obs.Json.Float s.s_median);
      ("q1_s", Obs.Json.Float s.s_q1);
      ("q3_s", Obs.Json.Float s.s_q3);
      ("min_s", Obs.Json.Float s.s_min) ]

let check_repeat repeat =
  if repeat < 1 then invalid_arg "Profile: repeat must be >= 1"

let sample ~repeat ~prepare f =
  check_repeat repeat;
  f (prepare ());
  let walls = Array.make repeat 0. in
  for i = 0 to repeat - 1 do
    let x = prepare () in
    let t0 = Obs.Collect.now () in
    f x;
    walls.(i) <- Obs.Collect.now () -. t0
  done;
  Array.to_list walls

type result = {
  p_report : Obs.Report.t;
  p_setup_s : float;
  p_walls : float list;
  p_run : summary;
  p_warmup : int;
  p_host_cores : int;
}

let run ?(config = Exec.Config.default) ?(warmup = 1) ?(repeat = 5)
    ?(symbols = []) ?args_for (g : Sdfg.t) : result =
  check_repeat repeat;
  if warmup < 0 then invalid_arg "Profile: warmup must be >= 0";
  let fresh () =
    match args_for with Some f -> f () | None -> make_args ~symbols g
  in
  let module I = Exec.Instance in
  let args = fresh () in
  let t0 = Obs.Collect.now () in
  let inst = I.create ~config ~symbols g in
  ignore (I.run ~args inst);
  let setup_s = Obs.Collect.now () -. t0 in
  for _ = 1 to warmup do
    ignore (I.run ~args:(fresh ()) inst)
  done;
  let reports = List.init repeat (fun _ -> I.run ~args:(fresh ()) inst) in
  let walls = List.map (fun r -> r.Obs.Report.r_wall_s) reports in
  let report =
    match config.Exec.Config.instrument with
    | Obs.Collect.Off ->
      let by_wall =
        List.sort
          (fun a b ->
            Float.compare a.Obs.Report.r_wall_s b.Obs.Report.r_wall_s)
          reports
      in
      List.nth by_wall (repeat / 2)
    | Obs.Collect.Marked | Obs.Collect.All ->
      Exec.run ~config ~symbols ~args:(fresh ()) g
  in
  { p_report = report; p_setup_s = setup_s; p_walls = walls;
    p_run = summarize walls; p_warmup = warmup;
    p_host_cores = Pool.available () }

let breakdown_source (res : result) =
  match res.p_report.Obs.Report.r_level with
  | Obs.Collect.Off -> "the median timed run (uninstrumented)"
  | level ->
    Fmt.str "one extra run at instrument level %s (its wall includes span \
             overhead)"
      (Obs.Collect.level_name level)

let timing_fields (res : result) =
  [ ("setup_s", Obs.Json.Float res.p_setup_s);
    ("run", summary_to_json res.p_run) ]

let timing_to_json res = Obs.Json.Obj (timing_fields res)

let to_json (res : result) : Obs.Json.t =
  Obs.Json.Obj
    ([ ("clock", Obs.Json.Str "monotonic");
       ("host_cores", Obs.Json.Int res.p_host_cores);
       ("warmup", Obs.Json.Int res.p_warmup) ]
    @ timing_fields res
    @ [ ( "walls_s",
          Obs.Json.Arr (List.map (fun w -> Obs.Json.Float w) res.p_walls) );
        ("breakdown", Obs.Json.Str (breakdown_source res));
        ("report", Obs.Report.to_json res.p_report) ])

let pp ppf (res : result) =
  let r = res.p_run in
  Fmt.pf ppf
    "set-up: %.6f s (instance creation + first run)@.\
     run:    median %.6f s, q1 %.6f s, q3 %.6f s, min %.6f s, n = %d@.\
    \        (after %d warmup; state machine only, uninstrumented; %d \
     host cores)@.\
     breakdown below: %s@."
    res.p_setup_s r.s_median r.s_q1 r.s_q3 r.s_min r.s_n res.p_warmup
    res.p_host_cores (breakdown_source res);
  Obs.Report.pp ppf res.p_report
