(* The auto-optimizer (lib/opt) and the result-based Xform surface:
   chain round-trips over the whole registry, determinism of model-only
   searches, the no-profiling guarantee, budget handling, and
   cross-validation of auto-optimized graphs against the reference
   engine. *)

module X = Transform.Xform
module Search = Opt.Search
module Cost = Machine.Cost

let () = Transform.Std.register_all ()

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let kernel name =
  List.find
    (fun (k : Workloads.Polybench.kernel) -> String.equal k.k_name name)
    Workloads.Polybench.all

let search_config ?(objective = Search.Model_only) ?budget_s ?(beam = 2)
    ?(max_steps = 3) (k : Workloads.Polybench.kernel) =
  Search.config ~target:Cost.Tcpu ~symbols:k.k_large ~measure_symbols:k.k_mini
    ~opts:{ Cost.default_options with hints = k.k_hints k.k_large }
    ~objective ?budget_s ~beam ~max_steps ~repeat:2 ~warmup:0 ()

(* --- result-based application surface ------------------------------------ *)

let t_result_api () =
  let g = Workloads.Kernels.matmul_mapreduce () in
  (match X.apply_first g Transform.Fusion_xforms.map_reduce_fusion with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "map_reduce_fusion should apply: %s" msg);
  (* fused once, the map-reduce pattern is gone: a second application
     reports Error rather than raising *)
  (match X.apply_first g Transform.Fusion_xforms.map_reduce_fusion with
  | Ok () -> Alcotest.fail "expected Error for a non-matching transformation"
  | Error msg ->
    Alcotest.(check bool)
      "message names the missing match" true
      (contains ~sub:"no matching subgraph" msg));
  (* fixpoint application with no match is Ok: the fixpoint is reached *)
  match X.apply_until_fixpoint g Transform.Fusion_xforms.map_reduce_fusion with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fixpoint with no match should be Ok: %s" msg

let t_registry_sorted () =
  let names = X.names () in
  Alcotest.(check (list string))
    "names () is sorted" (List.sort String.compare names) names;
  Alcotest.(check bool) "registry is non-empty" true (List.length names > 10);
  Alcotest.(check (list string))
    "all () matches names ()"
    (List.map (fun (x : X.t) -> x.x_name) (X.all ()))
    names

(* --- chain round-trips over the whole registry --------------------------- *)

let t_chain_roundtrip () =
  (* every registered name, as single-step and as one long chain, with
     non-trivial candidate indices *)
  List.iteri
    (fun i name ->
      let steps = [ { X.cs_xform = name; cs_index = i mod 3 } ] in
      Alcotest.(check bool)
        (name ^ " round-trips") true
        (X.chain_of_string (X.chain_to_string steps) = steps))
    (X.names ());
  let long =
    List.mapi (fun i name -> { X.cs_xform = name; cs_index = i }) (X.names ())
  in
  Alcotest.(check bool)
    "full-registry chain round-trips" true
    (X.chain_of_string (X.chain_to_string long) = long)

let t_chain_malformed () =
  (match X.chain_of_string "MapTiling one" with
  | _ -> Alcotest.fail "expected Not_applicable on a malformed line"
  | exception X.Not_applicable msg ->
    Alcotest.(check bool)
      "message says malformed" true
      (contains ~sub:"malformed" msg));
  match X.chain_of_string "MapTiling 1 2 3" with
  | _ -> Alcotest.fail "expected Not_applicable on extra fields"
  | exception X.Not_applicable _ -> ()

let t_chain_unknown_name () =
  let g = (kernel "gemm").k_build () in
  match X.apply_chain g [ { X.cs_xform = "NoSuchXform"; cs_index = 0 } ] with
  | Ok () -> Alcotest.fail "expected Error for an unknown transformation"
  | Error msg ->
    Alcotest.(check bool)
      "message carries the unknown name" true
      (contains ~sub:"NoSuchXform" msg)

(* --- optimizer ------------------------------------------------------------ *)

let t_determinism () =
  let k = kernel "gemm" in
  let run () = Search.optimize ~name:"gemm" (search_config k) k.k_build in
  let a = run () and b = run () in
  Alcotest.(check string)
    "two model-only searches find the same chain"
    (X.chain_to_string a.Search.r_chain)
    (X.chain_to_string b.Search.r_chain);
  Alcotest.(check string) "same stop reason" a.Search.r_stop b.Search.r_stop;
  Alcotest.(check int)
    "same number of steps"
    (List.length a.Search.r_steps)
    (List.length b.Search.r_steps)

let t_model_only_never_profiles () =
  let k = kernel "atax" in
  let res = Search.optimize ~name:"atax" (search_config k) k.k_build in
  Alcotest.(check int)
    "model-only search never invokes the profiler" 0 res.Search.r_profile_runs;
  Alcotest.(check (option (float 0.)))
    "no base wall measured" None res.Search.r_base_wall_s

let t_improves_model () =
  let k = kernel "gemm" in
  let res = Search.optimize ~name:"gemm" (search_config k) k.k_build in
  Alcotest.(check bool)
    "found a chain" true
    (List.length res.Search.r_chain > 0);
  Alcotest.(check bool)
    "best modeled time is no worse than base" true
    (res.Search.r_best_model_s <= res.Search.r_base_model_s)

let t_budget () =
  let k = kernel "gemm" in
  let res =
    Search.optimize ~name:"gemm"
      (search_config ~objective:Search.Measured ~budget_s:0. k)
      k.k_build
  in
  Alcotest.(check string) "stops on budget" "budget" res.Search.r_stop;
  Alcotest.(check int) "no profiler runs" 0 res.Search.r_profile_runs;
  Alcotest.(check (list string))
    "empty chain" []
    (List.map (fun (s : X.chain_step) -> s.cs_xform) res.Search.r_chain)

let t_search_log () =
  let k = kernel "gemm" in
  let res = Search.optimize ~name:"gemm" (search_config k) k.k_build in
  List.iter
    (fun (l : Search.step_log) ->
      Alcotest.(check bool)
        "tried >= applied" true
        (l.l_tried >= l.l_applied);
      Alcotest.(check int) "model-only step measured nothing" 0 l.l_measured)
    res.Search.r_steps;
  (* the search log renders as a report timing tree and as JSON *)
  let json = Obs.Json.to_string (Search.to_json res) in
  match Obs.Json.parse json with
  | parsed ->
    Alcotest.(check (option string))
      "objective serialized" (Some "model-only")
      (Option.bind (Obs.Json.member "objective" parsed) Obs.Json.to_string_opt)
  | exception Obs.Json.Parse_error msg ->
    Alcotest.failf "search log JSON does not parse back: %s" msg

let t_crossval name () =
  let k = kernel name in
  let res = Search.optimize ~name (search_config ~max_steps:2 k) k.k_build in
  match Search.crossval ~symbols:k.k_mini k.k_build res.Search.r_chain with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "crossval failed on %s: %s" name msg

(* --- pinned trajectories -------------------------------------------------- *)

(* The eight programs of the perfbench optimize workload at their model
   sizes, under its bounds: beam 2, 3 steps, 4 candidates, model-only. *)
let bounded_programs () =
  List.map
    (fun name ->
      let k = kernel name in
      (name, k.k_build, k.k_large, k.k_hints k.k_large))
    [ "gemm"; "atax"; "bicg"; "mvt"; "2mm"; "jacobi-2d" ]
  @ Workloads.
      [ ("cfd-batched", Cfd.batched, Cfd.paper, Cfd.hints);
        ("attention", Attention.base, Attention.attention_paper,
          Attention.hints) ]

let bounded_config symbols hints =
  Search.config ~target:Cost.Tcpu ~symbols
    ~opts:{ Cost.default_options with hints }
    ~beam:2 ~max_steps:3 ~max_candidates:4 ()

(* One search per program, with [build] counted and its first graph kept. *)
let bounded_runs =
  lazy
    (List.map
       (fun (name, build, symbols, hints) ->
         let builds = ref 0 and first = ref None in
         let counted () =
           incr builds;
           let g = build () in
           if !first = None then first := Some g;
           g
         in
         let cfg = bounded_config symbols hints in
         let res = Search.optimize ~name cfg counted in
         (name, build, cfg, res, !builds, Option.get !first))
       (bounded_programs ()))

let step_string (st : X.chain_step) =
  Printf.sprintf "%s %d" st.cs_xform st.cs_index

let trajectory name (r : Search.result) =
  Printf.sprintf "%s: chain %s; best %h; stop %s\n%s" name
    (String.concat " / " (List.map step_string r.r_chain))
    r.r_best_model_s r.r_stop
    (String.concat ""
       (List.map
          (fun (l : Search.step_log) ->
            Printf.sprintf
              "  step %d: tried %d, applied %d, pruned %d, committed %s\n"
              l.l_step l.l_tried l.l_applied l.l_pruned
              (Option.fold ~none:"-" ~some:step_string l.l_committed))
          r.r_steps))

let t_trajectories () =
  Test_report.check_golden "search.trajectories.golden"
    (String.concat ""
       (List.map
          (fun (name, _, _, res, _, _) -> trajectory name res)
          (Lazy.force bounded_runs)))

let t_successors_from_clones () =
  List.iter
    (fun (name, build, (cfg : Search.config), (res : Search.result), builds,
          base) ->
      Alcotest.(check int) (name ^ ": build runs once") 1 builds;
      (* every step-1 successor was built from the base; none touched it *)
      Alcotest.(check string)
        (name ^ ": base graph intact")
        (Sdfg_ir.Serialize.to_string (build ()))
        (Sdfg_ir.Serialize.to_string base);
      let replayed = build () in
      X.apply_chain_exn replayed res.r_chain;
      let priced =
        (Cost.estimate ~opts:cfg.c_opts ~spec:cfg.c_spec ~target:cfg.c_target
           ~symbols:cfg.c_symbols replayed)
          .Cost.r_time_s
      in
      Alcotest.(check int64)
        (name ^ ": replayed chain prices as the search's best")
        (Int64.bits_of_float res.r_best_model_s)
        (Int64.bits_of_float priced))
    (Lazy.force bounded_runs)

let suite =
  [ ("result-based Xform API", `Quick, t_result_api);
    ("registry enumeration is sorted", `Quick, t_registry_sorted);
    ("chain round-trip over the registry", `Quick, t_chain_roundtrip);
    ("chain_of_string rejects malformed lines", `Quick, t_chain_malformed);
    ("apply_chain reports unknown names", `Quick, t_chain_unknown_name);
    ("model-only search is deterministic", `Quick, t_determinism);
    ("model-only search never profiles", `Quick, t_model_only_never_profiles);
    ("search improves the modeled time", `Quick, t_improves_model);
    ("zero budget stops the search", `Quick, t_budget);
    ("search log is consistent and serializes", `Quick, t_search_log);
    ("auto-optimized gemm crossvalidates", `Quick, t_crossval "gemm");
    ("auto-optimized atax crossvalidates", `Quick, t_crossval "atax");
    ("auto-optimized mvt crossvalidates", `Quick, t_crossval "mvt");
    ("bounded searches follow their pinned trajectories", `Quick,
      t_trajectories);
    ("search builds once and prices its chain on replay", `Quick,
      t_successors_from_clones) ]
