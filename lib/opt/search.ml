(* Cost-guided transformation search (paper §4.1/§4.2 workflow, automated):
   enumerate candidates from the Xform registry, build each successor as a
   clone of the committed graph with one candidate applied, score
   successors with the analytic performance model, prune dominated states,
   and — optionally — confirm the surviving beam with measured interpreter
   medians before committing a step.  The program is built once per
   search; only [crossval] replays chains on fresh builds.

   A successor differs from the committed graph in the few states its
   step rewrote.  Each search makes one signer and one pricer, which
   keep per-state work by content stamp, and propagation skips states
   whose stamp has not moved; so a successor re-derives only the states
   its step changed, and the memos die with the search.

   The search is a greedy hill-climb with a configurable beam width and
   bounded patience for lateral moves.  Every decision is made over sorted
   enumerations ([Xform.names], candidate indices, (score, chain) ordered
   successors), so a model-only search is fully deterministic. *)

module Xform = Transform.Xform
module Cost = Machine.Cost
module Collect = Obs.Collect
module Json = Obs.Json

type objective = Model_only | Measured

let objective_name = function
  | Model_only -> "model-only"
  | Measured -> "measured"

let target_name = function
  | Cost.Tcpu -> "cpu"
  | Cost.Tgpu -> "gpu"
  | Cost.Tfpga -> "fpga"

type config = {
  c_target : Cost.target;
  c_spec : Machine.Spec.t;
  c_opts : Cost.options;
  c_symbols : (string * int) list;
  c_measure_symbols : (string * int) list;
  c_objective : objective;
  c_exec : Interp.Exec.Config.t;
  c_warmup : int;
  c_repeat : int;
  c_beam : int;
  c_max_steps : int;
  c_max_candidates : int;
  c_min_gain : float;
  c_patience : int;
  c_budget_s : float option;
  c_xforms : string list;
}

let default_exec =
  Interp.Exec.Config.with_engine Interp.Plan.compiled
    Interp.Exec.Config.default

let config ?(spec = Machine.Spec.paper_testbed) ?(opts = Cost.default_options)
    ?measure_symbols ?(objective = Model_only) ?(exec = default_exec)
    ?(warmup = 1) ?(repeat = 5) ?(beam = 4)
    ?(max_steps = 8) ?(max_candidates = 8) ?(min_gain = 1e-3) ?(patience = 1)
    ?budget_s ?(xforms = []) ~target ~symbols () =
  { c_target = target;
    c_spec = spec;
    c_opts = opts;
    c_symbols = symbols;
    c_measure_symbols = Option.value measure_symbols ~default:symbols;
    c_objective = objective;
    c_exec = exec;
    c_warmup = warmup;
    c_repeat = repeat;
    c_beam = max 1 beam;
    c_max_steps = max 0 max_steps;
    c_max_candidates = max 1 max_candidates;
    c_min_gain = min_gain;
    c_patience = max 0 patience;
    c_budget_s = budget_s;
    c_xforms = xforms }

type step_log = {
  l_step : int;
  l_tried : int;      (* chain extensions attempted *)
  l_applied : int;    (* of which new to the search, valid and scored *)
  l_pruned : int;     (* dominated: already seen, or beyond the beam *)
  l_measured : int;   (* profiler confirmations run this step *)
  l_committed : Xform.chain_step option;
  l_note : string;
  l_model_s : float;           (* modeled time after this step *)
  l_wall_s : float option;     (* measured median after this step *)
  l_model_error : float option;
      (* |modeled speedup - measured speedup| / measured speedup *)
}

type result = {
  r_program : string;
  r_objective : objective;
  r_target : Cost.target;
  r_chain : Xform.chain_step list;
  r_base_model_s : float;
  r_best_model_s : float;
  r_base_wall_s : float option;
  r_best_wall_s : float option;
  r_steps : step_log list;
  r_stop : string;
  r_profile_runs : int;
  r_search_wall_s : float;
  r_report : Obs.Report.t;
}

(* A successor is a clone of the committed graph with one candidate
   applied.  The clone keeps node, edge and state ids, and node payloads
   are immutable, so a match found on the committed graph applies to the
   clone as is, and the committed graph stays untouched.  Any failure —
   failed precondition, validation error — rejects the successor rather
   than aborting the search. *)
let successor g x c =
  let g' = Sdfg_ir.Sdfg.clone g in
  match Xform.apply g' x c with () -> Some g' | exception _ -> None

let score price g =
  match price g with
  | r -> Ok r.Cost.r_time_s
  | exception Cost.Cost_error msg -> Error msg
  | exception e -> Error (Printexc.to_string e)

let step_key (st : Xform.chain_step) = (st.cs_xform, st.cs_index)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let optimize ?(name = "sdfg") (cfg : config) (build : unit -> Sdfg_ir.Sdfg.t)
    =
  let col = Collect.create Collect.All in
  let root = Collect.enter col Collect.Sdfg ("optimize " ^ name) in
  let t0 = Collect.now () in
  let over_budget () =
    match cfg.c_budget_s with
    | None -> false
    | Some b -> Collect.now () -. t0 >= b
  in
  let profile_runs = ref 0 in
  let measure g =
    incr profile_runs;
    let res =
      Interp.Profile.run ~config:cfg.c_exec ~warmup:cfg.c_warmup
        ~repeat:cfg.c_repeat ~symbols:cfg.c_measure_symbols g
    in
    res.Interp.Profile.p_run.s_median
  in
  (* Signature for dominance pruning: two chains that produce the same
     graph are the same search state, and the model is a function of the
     graph, so the later arrival is dominated.  The signature is the
     Graphviz rendering, which shows labels, shapes, memlets and
     transitions but omits map schedules, storage, tasklet code,
     descriptors and nested bodies.  Two graphs that differ only there
     collide, and the later one is pruned unscored: MPITransform's
     schedule-only rewrite renders as its parent does, so it is never
     scored, even where the model would price it differently. *)
  let signature = Sdfg_ir.Dot.signer () in
  let price =
    Cost.pricer ~opts:cfg.c_opts ~spec:cfg.c_spec ~target:cfg.c_target
      ~symbols:cfg.c_symbols ()
  in
  let base = build () in
  let base_model = (price base).Cost.r_time_s in
  let base_wall =
    match cfg.c_objective with
    | Model_only -> None
    | Measured -> if over_budget () then None else Some (measure base)
  in
  let xnames =
    match cfg.c_xforms with [] -> Xform.names () | names -> names
  in
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace visited (signature base) ();
  (* current = the hill-climb's position; best = the best state ever seen
     (lateral moves may make current temporarily worse than best). *)
  let cur_chain = ref [] and cur_graph = ref base in
  let cur_model = ref base_model and cur_wall = ref base_wall in
  let best_chain = ref [] and best_model = ref base_model in
  let best_wall = ref base_wall in
  let steps = ref [] and stall = ref 0 and step_no = ref 0 in
  let stop = ref "" in
  while !stop = "" do
    if !step_no >= cfg.c_max_steps then stop := "max-steps"
    else if over_budget () then stop := "budget"
    else begin
      incr step_no;
      let sp = Collect.enter col Collect.State (Fmt.str "step %d" !step_no) in
      let esp = Collect.enter col Collect.Map "enumerate" in
      (* candidate chain extensions, in (name, index) order, each with
         the match it names on the committed graph *)
      let extensions =
        List.concat_map
          (fun xn ->
            match Xform.lookup xn with
            | exception _ -> []
            | x ->
              let cs =
                match x.Xform.x_find !cur_graph with
                | cs -> take cfg.c_max_candidates cs
                | exception _ -> []
              in
              List.mapi
                (fun i c -> ({ Xform.cs_xform = xn; cs_index = i }, x, c))
                cs)
          xnames
      in
      let pruned = ref 0 in
      let scored =
        List.filter_map
          (fun (st, x, c) ->
            match successor !cur_graph x c with
            | None -> None
            | Some g -> (
              let sg = signature g in
              if Hashtbl.mem visited sg then (incr pruned; None)
              else begin
                Hashtbl.replace visited sg ();
                match score price g with
                | Error _ -> None
                | Ok m -> Some (st, g, m)
              end))
          extensions
      in
      Collect.exit col esp;
      let ranked =
        List.sort
          (fun (s1, _, m1) (s2, _, m2) ->
            match Float.compare m1 m2 with
            | 0 -> compare (step_key s1) (step_key s2)
            | c -> c)
          scored
      in
      let beam = take cfg.c_beam ranked in
      pruned := !pruned + (List.length ranked - List.length beam);
      let measured = ref 0 in
      (* measured mode: confirm the surviving beam with profiled medians
         before committing, budget permitting *)
      let confirmed =
        match cfg.c_objective with
        | Model_only -> List.map (fun (st, g, m) -> (st, g, m, None)) beam
        | Measured ->
          List.filter_map
            (fun (st, g, m) ->
              if over_budget () then None
              else begin
                let msp =
                  Collect.enter col Collect.Tasklet
                    (Fmt.str "measure %s@%d" st.Xform.cs_xform
                       st.Xform.cs_index)
                in
                let w = measure g in
                Collect.exit col msp;
                incr measured;
                Some (st, g, m, Some w)
              end)
            beam
      in
      let log ?committed ?wall_s ?model_error ~note model_s =
        steps :=
          { l_step = !step_no;
            l_tried = List.length extensions;
            l_applied = List.length scored;
            l_pruned = !pruned;
            l_measured = !measured;
            l_committed = committed;
            l_note = note;
            l_model_s = model_s;
            l_wall_s = wall_s;
            l_model_error = model_error }
          :: !steps
      in
      (match confirmed with
      | [] ->
        if beam <> [] && cfg.c_objective = Measured then stop := "budget"
        else stop := "exhausted";
        log ~note:(Fmt.str "no successor (%s)" !stop) !cur_model
      | _ ->
        let head =
          match cfg.c_objective with
          | Model_only -> List.hd confirmed
          | Measured ->
            List.sort
              (fun (s1, _, m1, w1) (s2, _, m2, w2) ->
                match
                  Float.compare
                    (Option.value w1 ~default:infinity)
                    (Option.value w2 ~default:infinity)
                with
                | 0 -> (
                  match Float.compare m1 m2 with
                  | 0 -> compare (step_key s1) (step_key s2)
                  | c -> c)
                | c -> c)
              confirmed
            |> List.hd
        in
        let st, g, m, w = head in
        let improves =
          match (cfg.c_objective, w, !cur_wall) with
          | Measured, Some w, Some cw -> w < cw *. (1. -. cfg.c_min_gain)
          | Measured, _, _ -> false
          | Model_only, _, _ -> m < !cur_model *. (1. -. cfg.c_min_gain)
        in
        if improves || !stall < cfg.c_patience then begin
          (* modeled-vs-measured speedup error of this committed step *)
          let model_error =
            match (w, !cur_wall) with
            | Some w, Some cw when w > 0. && m > 0. ->
              let measured_sp = cw /. w and modeled_sp = !cur_model /. m in
              Some (Float.abs (modeled_sp -. measured_sp) /. measured_sp)
            | _ -> None
          in
          let note =
            if improves then Fmt.str "committed %s" st.Xform.cs_xform
            else Fmt.str "lateral %s (stall %d)" st.Xform.cs_xform (!stall + 1)
          in
          if improves then stall := 0 else incr stall;
          cur_chain := !cur_chain @ [ st ];
          cur_graph := g;
          cur_model := m;
          (match w with Some _ -> cur_wall := w | None -> ());
          let better =
            match (cfg.c_objective, w, !best_wall) with
            | Measured, Some w, Some bw -> w < bw
            | Measured, _, _ -> false
            | Model_only, _, _ -> m < !best_model
          in
          if better then begin
            best_chain := !cur_chain;
            best_model := m;
            match cfg.c_objective with
            | Measured -> best_wall := w
            | Model_only -> ()
          end;
          log ~committed:st ?wall_s:w ?model_error ~note m
        end
        else begin
          stop := "converged";
          log ~note:"no improving successor" !cur_model
        end);
      Collect.exit col sp
    end
  done;
  Collect.exit col root;
  let wall_s = Collect.now () -. t0 in
  let zero =
    { Obs.Report.elements_moved = 0; tasklet_execs = 0; map_iterations = 0;
      stream_pushes = 0; stream_pops = 0; states_executed = 0;
      wcr_writes = 0 }
  in
  let report =
    Obs.Report.of_collector ~program:name ~engine:"optimizer" ~wall_s
      ~counters:zero col
  in
  { r_program = name;
    r_objective = cfg.c_objective;
    r_target = cfg.c_target;
    r_chain = !best_chain;
    r_base_model_s = base_model;
    r_best_model_s = !best_model;
    r_base_wall_s = base_wall;
    r_best_wall_s = !best_wall;
    r_steps = List.rev !steps;
    r_stop = !stop;
    r_profile_runs = !profile_runs;
    r_search_wall_s = wall_s;
    r_report = report }

(* --- cross-validation ---------------------------------------------------- *)

let tensor_bits (t : Interp.Tensor.t) =
  match t.Interp.Tensor.buf with
  | Interp.Tensor.Fbuf a -> Array.to_list (Array.map Int64.bits_of_float a)
  | Interp.Tensor.Ibuf a -> List.map Int64.of_int (Array.to_list a)

let crossval ?(symbols = []) (build : unit -> Sdfg_ir.Sdfg.t)
    (chain : Xform.chain_step list) =
  (* bit-identity is a sequential contract: pin domains so an ambient
     SDFG_DOMAINS cannot reorder float accumulation *)
  let run g engine =
    let args = Interp.Profile.make_args ~symbols (build ()) in
    let config =
      Interp.Exec.Config.(default |> with_engine engine |> with_domains 1)
    in
    ignore (Interp.Exec.run g ~config ~symbols ~args : Obs.Report.t);
    args
  in
  (* replayed on a fresh build, independently of how the search built
     its graphs *)
  let replayed =
    match
      let g = build () in
      Result.map (fun () -> g) (Xform.apply_chain g chain)
    with
    | r -> r
    | exception e -> Error (Printexc.to_string e)
  in
  match replayed with
  | Error msg -> Error (Fmt.str "chain replay failed: %s" msg)
  | Ok transformed -> (
    match
      let oracle = run (build ()) Interp.Plan.reference in
      List.map
        (fun engine ->
          let out = run transformed engine in
          List.iter2
            (fun (n1, t1) (n2, t2) ->
              if not (String.equal n1 n2) then
                failwith (Fmt.str "argument order diverged: %s vs %s" n1 n2);
              if tensor_bits t1 <> tensor_bits t2 then
                failwith (Fmt.str "%S not bit-identical" n1))
            oracle out)
        [ Interp.Plan.reference; Interp.Plan.compiled ]
    with
    | (_ : unit list) -> Ok ()
    | exception Failure msg -> Error msg
    | exception e -> Error (Printexc.to_string e))

(* --- rendering ----------------------------------------------------------- *)

let float_json f = Json.Float f

let opt_json f = function None -> Json.Null | Some v -> f v

let step_json (l : step_log) =
  Json.Obj
    [ ("step", Json.Int l.l_step);
      ("tried", Json.Int l.l_tried);
      ("applied", Json.Int l.l_applied);
      ("pruned", Json.Int l.l_pruned);
      ("measured", Json.Int l.l_measured);
      ( "committed",
        opt_json
          (fun (st : Xform.chain_step) ->
            Json.Str (Fmt.str "%s %d" st.cs_xform st.cs_index))
          l.l_committed );
      ("note", Json.Str l.l_note);
      ("model_s", float_json l.l_model_s);
      ("wall_s", opt_json float_json l.l_wall_s);
      ("model_error", opt_json float_json l.l_model_error) ]

let to_json (r : result) =
  Json.Obj
    [ ("generated_by", Json.Str "sdfg optimize");
      ("program", Json.Str r.r_program);
      ("objective", Json.Str (objective_name r.r_objective));
      ("target", Json.Str (target_name r.r_target));
      ("chain", Json.Str (Xform.chain_to_string r.r_chain));
      ("base_model_s", float_json r.r_base_model_s);
      ("best_model_s", float_json r.r_best_model_s);
      ("base_wall_s", opt_json float_json r.r_base_wall_s);
      ("best_wall_s", opt_json float_json r.r_best_wall_s);
      ("stop", Json.Str r.r_stop);
      ("profile_runs", Json.Int r.r_profile_runs);
      ("search_wall_s", float_json r.r_search_wall_s);
      ("steps", Json.Arr (List.map step_json r.r_steps));
      ("search_log", Obs.Report.to_json r.r_report) ]

let pp ppf (r : result) =
  Fmt.pf ppf "optimize %s (%s, target %s): %s after %d step%s, %.2fs@."
    r.r_program
    (objective_name r.r_objective)
    (target_name r.r_target) r.r_stop (List.length r.r_steps)
    (if List.length r.r_steps = 1 then "" else "s")
    r.r_search_wall_s;
  List.iter
    (fun (l : step_log) ->
      Fmt.pf ppf "  step %d: tried %d, applied %d, pruned %d%s — %s%a@."
        l.l_step l.l_tried l.l_applied l.l_pruned
        (if l.l_measured > 0 then Fmt.str ", measured %d" l.l_measured
         else "")
        l.l_note
        (fun ppf () ->
          match l.l_model_error with
          | Some e -> Fmt.pf ppf " (model error %.0f%%)" (100. *. e)
          | None -> ())
        ())
    r.r_steps;
  Fmt.pf ppf "  model: %.3e s -> %.3e s (%.2fx)@." r.r_base_model_s
    r.r_best_model_s
    (r.r_base_model_s /. r.r_best_model_s);
  (match (r.r_base_wall_s, r.r_best_wall_s) with
  | Some b, Some w ->
    Fmt.pf ppf "  measured: %.3e s -> %.3e s (%.2fx), %d profile runs@." b w
      (b /. w) r.r_profile_runs
  | _ -> ());
  if r.r_chain = [] then Fmt.pf ppf "  chain: (empty)@."
  else Fmt.pf ppf "  chain:@.%s@." (Xform.chain_to_string r.r_chain)
