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

(* --- per-state memos over one-step successors ------------------------------ *)

(* Every one-step successor of the 30 Polybench programs, cfd-batched and
   attention: each candidate of each registered transformation applied to
   a clone of the built program, as the search builds its successors.
   Each program comes with its model settings.  The tests below only read
   these graphs. *)
let one_step_successors =
  lazy
    (List.map
       (fun (name, build, symbols, hints) ->
         let base = build () in
         let successors =
           List.concat_map
             (fun xn ->
               let x = X.lookup xn in
               (match x.X.x_find base with cs -> cs | exception _ -> [])
               |> List.filter_map (fun c ->
                      let g = Sdfg_ir.Sdfg.clone base in
                      match X.apply g x c with
                      | () -> Some (xn, g)
                      | exception _ -> None))
             (X.names ())
         in
         (name, bounded_config symbols hints, base, successors))
       (List.map
          (fun (k : Workloads.Polybench.kernel) ->
            (k.k_name, k.k_build, k.k_large, k.k_hints k.k_large))
          Workloads.Polybench.all
       @ Workloads.
           [ ("cfd-batched", Cfd.batched, Cfd.paper, Cfd.hints);
             ("attention", Attention.base, Attention.attention_paper,
               Attention.hints) ]))

(* Propagation skips every state whose stamp has not moved since it was
   last propagated.  A parse has never been propagated, so propagating it
   redoes every state: a stale memlet would move.  The parse, not the
   successor itself, is the baseline because a parse renumbers node and
   state ids that have gaps. *)
let t_incremental_propagation () =
  let n = ref 0 in
  List.iter
    (fun (name, _, _, successors) ->
      List.iter
        (fun (xn, g) ->
          incr n;
          let parsed = Sdfg_ir.Serialize.(of_string (to_string g)) in
          let before = Sdfg_ir.Serialize.to_string parsed in
          Sdfg_ir.Propagate.propagate parsed;
          if Sdfg_ir.Serialize.to_string parsed <> before then
            Alcotest.failf "%s %s: full propagation moves a memlet" name xn)
        successors)
    (Lazy.force one_step_successors);
  Alcotest.(check bool) "hundreds of successors" true (!n > 300)

(* One pricer and one signer per program, shared by the base and all its
   successors as in a search, against a fresh whole-graph [Cost.estimate]
   and [Dot.of_sdfg] of each graph. *)
let t_shared_memos () =
  List.iter
    (fun (name, (cfg : Search.config), base, successors) ->
      let price =
        Cost.pricer ~opts:cfg.c_opts ~spec:cfg.c_spec ~target:cfg.c_target
          ~symbols:cfg.c_symbols ()
      in
      let estimate =
        Cost.estimate ~opts:cfg.c_opts ~spec:cfg.c_spec ~target:cfg.c_target
          ~symbols:cfg.c_symbols
      in
      let show f g =
        match f g with
        | (r : Cost.report) ->
          Printf.sprintf "%h %h %h" r.r_time_s r.r_flops r.r_bytes
        | exception Cost.Cost_error msg -> "Cost_error " ^ msg
      in
      let sign = Sdfg_ir.Dot.signer () in
      List.iter
        (fun (xn, g) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s: shared pricer" name xn)
            (show estimate g) (show price g);
          if sign g <> Sdfg_ir.Dot.of_sdfg g then
            Alcotest.failf "%s %s: the shared signer prints differently" name
              xn)
        (("base", base) :: successors))
    (Lazy.force one_step_successors)

(* A descriptor change moves no state's stamp, so the pricer must notice
   it through the descriptors themselves. *)
let t_pricer_sees_descriptors () =
  let k = kernel "gemm" in
  let cfg = search_config k in
  let price =
    Cost.pricer ~opts:cfg.c_opts ~spec:cfg.c_spec ~target:cfg.c_target
      ~symbols:cfg.c_symbols ()
  in
  let g = k.k_build () in
  let before = (price g).Cost.r_bytes in
  let g' = Sdfg_ir.Sdfg.clone g in
  List.iter
    (fun (name, d) ->
      match d with
      | Sdfg_ir.Defs.Array a ->
        Sdfg_ir.Sdfg.replace_desc g' name
          (Sdfg_ir.Defs.Array { a with a_dtype = Tasklang.Types.F32 })
      | Sdfg_ir.Defs.Stream _ -> ())
    (Sdfg_ir.Sdfg.descs g');
  let fresh =
    (Cost.estimate ~opts:cfg.c_opts ~spec:cfg.c_spec ~target:cfg.c_target
       ~symbols:cfg.c_symbols g')
      .Cost.r_bytes
  in
  Alcotest.(check bool) "single precision moves fewer bytes" true
    (fresh < before);
  Alcotest.(check (float 0.)) "the pricer re-prices" fresh
    (price g').Cost.r_bytes

(* Serialization prints scope tables in their iteration order, so a clone
   that refilled them could print, and hash, differently. *)
let t_clone_keeps_hash () =
  let check name g =
    if Sdfg_ir.Sdfg.(hash (clone g)) <> Sdfg_ir.Sdfg.hash g then
      Alcotest.failf "%s: a clone hashes differently" name
  in
  List.iter (fun (name, build) -> check name (build ()))
    (Test_polybench.programs ());
  List.iter
    (fun (name, _, _, successors) ->
      List.iter (fun (xn, g) -> check (name ^ " " ^ xn) g) successors)
    (Lazy.force one_step_successors)

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
      t_successors_from_clones);
    ("incremental propagation is a fixpoint of full propagation", `Quick,
      t_incremental_propagation);
    ("a shared pricer and signer equal the whole-graph passes", `Quick,
      t_shared_memos);
    ("the pricer re-prices a state whose descriptor changed", `Quick,
      t_pricer_sees_descriptors);
    ("Sdfg.clone keeps Sdfg.hash", `Quick, t_clone_keeps_hash) ]
