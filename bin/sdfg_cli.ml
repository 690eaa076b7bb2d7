(* sdfg — command-line interface to the SDFG toolchain.

   Operates on the built-in workload programs (Polybench kernels, the
   fundamental kernels, BFS, SSE):

     sdfg list                       available programs and transformations
     sdfg show gemm                  describe the SDFG
     sdfg dot gemm > gemm.dot        Graphviz export
     sdfg codegen gemm -t cuda       generated source for a target
     sdfg transform gemm GPUTransform MapTiling   apply transformations
     sdfg estimate gemm -t gpu       modeled runtime on the paper testbed
     sdfg run gemm                   interpret at mini size and print stats *)

open Cmdliner
module Cost = Machine.Cost

(* Every program the CLI knows, one row each: its builder, the sizes
   [run], [profile] and [analyze-races --predict] execute it at ([None]
   for a program that is only modeled) and the sizes [estimate] prices
   it at.  Polybench kernels run at mini and are priced at large sizes;
   the engine workloads run at small bench sizes. *)
type program = {
  p_name : string;
  p_build : unit -> Sdfg_ir.Sdfg.t;
  p_run : (string * int) list option;
  p_model : (string * int) list;
}

let programs =
  let row ?run p_name p_build p_model =
    { p_name; p_build; p_run = run; p_model }
  in
  let mm = [ ("M", 1024); ("N", 1024); ("K", 1024) ] in
  let n4m = [ ("N", 1 lsl 22) ] in
  let cfd_run = [ ("NEL", 64); ("NP", 8); ("NDOF", 448) ] in
  let attention_run = [ ("M", 64); ("N", 64); ("D", 32) ] in
  (* index-carrying extents stay >= 11 so Profile.make_args' synthetic
     mod-11 index values are in bounds *)
  let conv_run = [ ("P", 128); ("Q", 8); ("F", 16); ("PAD", 135) ] in
  List.map
    (fun (k : Workloads.Polybench.kernel) ->
      row k.k_name k.k_build ~run:k.k_mini k.k_large)
    Workloads.Polybench.all
  @ [ row "mm" Workloads.Kernels.matmul mm;
      row "mm-mapreduce" Workloads.Kernels.matmul_mapreduce mm;
      row "matmul" Workloads.Kernels.matmul
        ~run:[ ("M", 64); ("N", 64); ("K", 64) ] mm;
      row "jacobi" Workloads.Kernels.jacobi ~run:[ ("N", 64); ("T", 10) ]
        (Workloads.Polybench.find "jacobi-2d").k_large;
      row "histogram" Workloads.Kernels.histogram
        ~run:[ ("H", 256); ("W", 256) ] [ ("H", 8192); ("W", 8192) ];
      row "copy" Workloads.Kernels.copy ~run:[ ("N", 65536) ] n4m;
      row "eadd" Workloads.Kernels.eadd ~run:[ ("N", 65536) ] n4m;
      row "axpy" Workloads.Kernels.axpy ~run:[ ("N", 65536) ] n4m;
      row "query" Workloads.Kernels.query [ ("N", 1 lsl 26) ];
      row "spmv" Workloads.Kernels.spmv
        [ ("H", 8192); ("W", 8192); ("nnz", 1 lsl 25) ];
      row "bfs" Workloads.Graphs.bfs
        [ ("V", 1 lsl 20); ("Efull", 1 lsl 22); ("fsz", 4096) ];
      row "sse-batched" Workloads.Sse.batched Workloads.Sse.paper;
      row "sse-naive" Workloads.Sse.naive Workloads.Sse.paper;
      row "cfd-batched" Workloads.Cfd.batched ~run:cfd_run Workloads.Cfd.paper;
      row "cfd-naive" Workloads.Cfd.naive ~run:cfd_run Workloads.Cfd.paper;
      row "attention" Workloads.Attention.base ~run:attention_run
        Workloads.Attention.attention_paper;
      row "attention-tiled" Workloads.Attention.tiled ~run:attention_run
        Workloads.Attention.attention_paper;
      row "conv-im2col" Workloads.Attention.conv_im2col ~run:conv_run
        Workloads.Attention.conv_paper;
      row "conv-direct" Workloads.Attention.conv_direct ~run:conv_run
        Workloads.Attention.conv_paper ]

let find name =
  match List.find_opt (fun p -> String.equal p.p_name name) programs with
  | Some p -> p
  | None ->
    Fmt.epr "unknown program %S; try 'sdfg list'@." name;
    exit 1

let build name = (find name).p_build ()

(* [name]'s graph and run sizes, or exit naming the programs that have
   run sizes. *)
let runnable cmd name =
  let p = find name in
  match p.p_run with
  | Some symbols -> (p.p_build (), symbols)
  | None ->
    Fmt.epr "%s: %S is only modeled; programs with run sizes: %s@." cmd name
      (String.concat ", "
         (List.filter_map
            (fun p -> Option.map (fun _ -> p.p_name) p.p_run)
            programs));
    exit 1

let or_die = function
  | Ok () -> ()
  | Error msg ->
    Fmt.epr "error: %s@." msg;
    exit 1

let prog_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM")

let target_arg =
  let target_conv =
    Arg.enum [ ("cpu", `Cpu); ("cuda", `Gpu); ("gpu", `Gpu); ("fpga", `Fpga) ]
  in
  Arg.(value & opt target_conv `Cpu
       & info [ "t"; "target" ] ~docv:"TARGET"
           ~doc:"Target platform: cpu, cuda/gpu or fpga.")

(* --- commands ------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Fmt.pr "programs:@.";
    List.iter
      (fun p ->
        Fmt.pr "  %s%s@." p.p_name
          (if p.p_run = None then "  (model only)" else ""))
      programs;
    Fmt.pr "@.transformations (Appendix B):@.";
    Transform.Std.register_all ();
    List.iter
      (fun (x : Transform.Xform.t) ->
        Fmt.pr "  %-20s %s@." x.x_name x.x_description)
      (Transform.Xform.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List programs and transformations")
    Term.(const run $ const ())

let show_cmd =
  let run name =
    let g = build name in
    Fmt.pr "%a@." Sdfg_ir.Sdfg.pp g;
    Fmt.pr "free symbols: %s@."
      (String.concat ", " (Sdfg_ir.Sdfg.free_symbols g))
  in
  Cmd.v (Cmd.info "show" ~doc:"Describe a program's SDFG")
    Term.(const run $ prog_arg)

let save_cmd =
  let path_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE")
  in
  let run name path =
    Sdfg_ir.Serialize.save (build name) path;
    Fmt.pr "saved %s to %s@." name path
  in
  Cmd.v (Cmd.info "save" ~doc:"Serialize a program's SDFG to a .sdfg file")
    Term.(const run $ prog_arg $ path_arg)

let load_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let run path =
    let g = Sdfg_ir.Serialize.load path in
    Sdfg_ir.Validate.check g;
    Fmt.pr "%a@.(valid)@." Sdfg_ir.Sdfg.pp g
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Load and validate an SDFG from a .sdfg file")
    Term.(const run $ path_arg)

let dot_cmd =
  let run name = print_string (Sdfg_ir.Dot.of_sdfg (build name)) in
  Cmd.v (Cmd.info "dot" ~doc:"Export the SDFG as Graphviz")
    Term.(const run $ prog_arg)

let codegen_cmd =
  let run name target =
    let g = build name in
    let t =
      match target with
      | `Cpu -> Codegen.Target_cpu
      | `Gpu -> Codegen.Target_gpu
      | `Fpga -> Codegen.Target_fpga
    in
    (match target with
    | `Gpu ->
      or_die
        (Transform.Xform.apply_first g Transform.Device_xforms.gpu_transform)
    | `Fpga ->
      or_die
        (Transform.Xform.apply_first g Transform.Device_xforms.fpga_transform)
    | `Cpu -> ());
    print_string (Codegen.generate_string t g)
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Generate target source code (applies the device transform \
             for cuda/fpga first)")
    Term.(const run $ prog_arg $ target_arg)

let transform_cmd =
  let xforms_arg =
    Arg.(value & pos_right 0 string [] & info [] ~docv:"TRANSFORMATION")
  in
  let run name xforms =
    Transform.Std.register_all ();
    let g = build name in
    List.iter
      (fun xn ->
        match Transform.Xform.apply_by_name g xn with
        | Ok () -> Fmt.pr "applied %s@." xn
        | Error msg -> Fmt.pr "not applicable: %s@." msg)
      xforms;
    Fmt.pr "@.%a@." Sdfg_ir.Sdfg.pp g
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Apply transformations by name and show the resulting SDFG")
    Term.(const run $ prog_arg $ xforms_arg)

let estimate_cmd =
  let run name target =
    let g = build name in
    let t, tname =
      match target with
      | `Cpu -> (Cost.Tcpu, "CPU (Xeon E5-2650 v4)")
      | `Gpu ->
        or_die
          (Transform.Xform.apply_first g Transform.Device_xforms.gpu_transform);
        (Cost.Tgpu, "GPU (Tesla P100)")
      | `Fpga ->
        or_die
          (Transform.Xform.apply_first g
             Transform.Device_xforms.fpga_transform);
        (Cost.Tfpga, "FPGA (XCVU9P)")
    in
    let symbols = (find name).p_model in
    Fmt.pr "sizes: %s@."
      (String.concat ", "
         (List.map (fun (s, v) -> Fmt.str "%s=%d" s v) symbols));
    let r =
      Cost.estimate ~spec:Machine.Spec.paper_testbed ~target:t ~symbols g
    in
    Fmt.pr "%s: %a@." tname Cost.pp_report r
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Modeled runtime on the paper's testbed")
    Term.(const run $ prog_arg $ target_arg)

let engine_arg =
  let engine_conv =
    Arg.enum
      [ ("reference", Interp.Plan.reference);
        ("compiled", Interp.Plan.compiled) ]
  in
  Arg.(value & opt engine_conv Interp.Plan.reference
       & info [ "e"; "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine: 'reference' (the semantic oracle) or \
                 'compiled' (plan-once/run-many).")

let domains_arg =
  Arg.(value & opt (some int) None
       & info [ "d"; "domains" ] ~docv:"N"
           ~doc:"OCaml domains for the compiled engine's parallel maps. \
                 An explicit $(docv) takes precedence over the \
                 SDFG_DOMAINS environment variable; when neither is set \
                 the predictive per-map policy picks each map's domain \
                 count, up to the host's cores.  Only Cpu_multicore maps \
                 the race analysis proves safe are parallelized; see \
                 'sdfg analyze-races'.")

let no_kernels_arg =
  Arg.(value & flag
       & info [ "no-kernels" ]
           ~doc:"Disable bulk-kernel lowering of affine map bodies: the \
                 compiled engine runs every map through the closure path. \
                 The baseline side of kernel crossvalidation.")

(* Fold the tuning flags into the one Exec.Config surface, reporting
   invalid values (e.g. --domains 0) as the typed Config error rather
   than a raise downstream. *)
let exec_config ?instrument ~engine ~domains ~no_kernels () =
  let open Interp.Exec.Config in
  let c = default |> with_engine engine |> with_kernels (not no_kernels) in
  let c = match domains with Some d -> with_domains d c | None -> c in
  let c =
    match instrument with Some l -> with_instrument l c | None -> c
  in
  match validate c with
  | Ok c -> c
  | Error e ->
    Fmt.epr "error: %s@." (error_message e);
    exit 1

let analyze_races_cmd =
  let predict_arg =
    Arg.(value & flag
         & info [ "predict" ]
             ~doc:"After the static table, run the program once under the \
                   predictive domain policy (compiled engine, mini sizes) \
                   and print each Cpu_multicore map's predicted_domains \
                   and policy_reason — the per-map decisions the runtime \
                   actually made.")
  in
  let cap_arg =
    Arg.(value & opt (some int) None
         & info [ "d"; "domains" ] ~docv:"N"
             ~doc:"Worker-count ceiling for --predict (default: the \
                   hardware's available domains).")
  in
  let run name predict cap =
    let g = build name in
    let reports = Analysis.Races.analyze g in
    Fmt.pr "%a@." Analysis.Races.pp_table reports;
    if predict then begin
      let g, symbols = runnable "--predict" name in
      let args = Interp.Profile.make_args ~symbols g in
      let config =
        Interp.Exec.Config.(
          default
          |> with_engine Interp.Plan.compiled
          |> with_auto_domains ?cap)
      in
      let report = Interp.Exec.run g ~config ~symbols ~args in
      let cap_shown = Interp.Exec.Config.resolved_domains config in
      Fmt.pr "predictive policy (cap=%d, sizes: %s)@." cap_shown
        (String.concat ", "
           (List.map (fun (s, v) -> Fmt.str "%s=%d" s v) symbols));
      (match report.Obs.Report.r_parallel with
      | None | Some { Obs.Report.par_decisions = []; _ } ->
        Fmt.pr "no Cpu_multicore maps to decide about@."
      | Some p ->
        List.iter
          (fun (d : Obs.Report.map_decision) ->
            Fmt.pr
              "%-12s %-10s kind=%-8s verdict=%-20s \
               predicted_domains=%d reason=%s trips=%d@."
              d.Obs.Report.pm_map d.Obs.Report.pm_state
              d.Obs.Report.pm_kind d.Obs.Report.pm_verdict
              d.Obs.Report.pm_domains d.Obs.Report.pm_reason
              d.Obs.Report.pm_trips)
          p.Obs.Report.par_decisions)
    end
  in
  Cmd.v
    (Cmd.info "analyze-races"
       ~doc:"Static race analysis of every map scope: per-container access \
             classes and the parallelize/serialize verdict (with a \
             machine-readable reason) that gates multicore execution; \
             --predict additionally shows the predictive domain policy's \
             per-map decisions")
    Term.(const run $ prog_arg $ predict_arg $ cap_arg)

let run_cmd =
  let run name engine domains no_kernels =
    let g, symbols = runnable "run" name in
    let args = Interp.Profile.make_args ~symbols g in
    let config = exec_config ~engine ~domains ~no_kernels () in
    let report = Interp.Exec.run g ~config ~symbols ~args in
    Fmt.pr "ran %s: %a@." name Obs.Report.pp_counters
      report.Obs.Report.r_counters
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Interpret a Polybench program (mini size) or an engine \
             workload")
    Term.(const run $ prog_arg $ engine_arg $ domains_arg $ no_kernels_arg)

let profile_cmd =
  let repeat_arg =
    Arg.(value & opt int 5
         & info [ "r"; "repeat" ] ~docv:"N" ~doc:"Timed runs.")
  in
  let warmup_arg =
    Arg.(value & opt int 1
         & info [ "w"; "warmup" ] ~docv:"N"
             ~doc:"Unmeasured warmup runs after set-up.")
  in
  let instrument_arg =
    let level_conv =
      Arg.enum
        [ ("off", Obs.Collect.Off);
          ("marked", Obs.Collect.Marked);
          ("all", Obs.Collect.All) ]
    in
    Arg.(value & opt level_conv Obs.Collect.All
         & info [ "i"; "instrument" ] ~docv:"LEVEL"
             ~doc:"Instrumentation level of the one breakdown run that \
                   supplies the timer tree and the trace: 'off' (no \
                   extra run; the breakdown is the median timed run), \
                   'marked' (only IR nodes flagged with instrument) or \
                   'all'.  Timed runs are never instrumented.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the full profile (set-up, run walls and their \
                   summary, counters, timer tree, plan coverage) as JSON \
                   to $(docv).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write the breakdown run as a Chrome trace-event file \
                   to $(docv) (open in about://tracing or Perfetto).")
  in
  let run name engine domains no_kernels repeat warmup instrument json trace =
    let g, symbols = runnable "profile" name in
    let config =
      exec_config ~instrument ~engine ~domains ~no_kernels ()
    in
    let res = Interp.Profile.run ~config ~warmup ~repeat ~symbols g in
    Fmt.pr "%a" Interp.Profile.pp res;
    Option.iter
      (fun path ->
        Obs.Json.save (Interp.Profile.to_json res) path;
        Fmt.pr "wrote profile JSON to %s@." path)
      json;
    Option.iter
      (fun path ->
        Obs.Report.save_trace res.Interp.Profile.p_report path;
        Fmt.pr "wrote Chrome trace to %s@." path)
      trace
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile a Polybench program (mini size) or an engine \
             workload on one planned instance: set-up (instance \
             creation + first run) reported on its own, then warmup and \
             timed uninstrumented runs summarized as median, quartiles, \
             min and count; optional JSON / Chrome-trace output")
    Term.(const run $ prog_arg $ engine_arg $ domains_arg $ no_kernels_arg
          $ repeat_arg $ warmup_arg $ instrument_arg $ json_arg $ trace_arg)

let optimize_cmd =
  let beam_arg =
    Arg.(value & opt int 4
         & info [ "beam" ] ~docv:"N" ~doc:"Beam width of the search.")
  in
  let steps_arg =
    Arg.(value & opt int 8
         & info [ "steps" ] ~docv:"N" ~doc:"Maximum committed steps.")
  in
  let budget_arg =
    Arg.(value & opt (some float) None
         & info [ "budget" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget for the whole search.")
  in
  let measure_arg =
    Arg.(value
         & vflag Opt.Search.Model_only
             [ ( Opt.Search.Model_only,
                 info [ "model-only" ]
                   ~doc:"Score successors with the performance model only \
                         (default; never runs the profiler, fully \
                         deterministic)." );
               ( Opt.Search.Measured,
                 info [ "measure" ]
                   ~doc:"Confirm the beam with profiled interpreter medians \
                         at mini size before committing each step." ) ])
  in
  let repeat_arg =
    Arg.(value & opt int 5
         & info [ "r"; "repeat" ] ~docv:"N"
             ~doc:"Measured repetitions per beam confirmation.")
  in
  let warmup_arg =
    Arg.(value & opt int 1
         & info [ "w"; "warmup" ] ~docv:"N"
             ~doc:"Unmeasured warmup runs per beam confirmation.")
  in
  let chain_arg =
    Arg.(value & opt (some string) None
         & info [ "emit-chain" ] ~docv:"FILE"
             ~doc:"Write the resulting transformation chain to $(docv) \
                   (replayable with 'sdfg transform' / Session.load).")
  in
  let log_arg =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE"
             ~doc:"Write the full search log (steps tried, pruned, \
                   measured, modeled-vs-measured error, timing tree) as \
                   JSON to $(docv).")
  in
  let run name target beam steps budget objective repeat warmup chain_out
      log_out =
    match
      List.find_opt
        (fun (k : Workloads.Polybench.kernel) -> String.equal k.k_name name)
        Workloads.Polybench.all
    with
    | None ->
      Fmt.epr "'optimize' supports the Polybench programs; try 'sdfg list'@.";
      exit 1
    | Some k ->
      Transform.Std.register_all ();
      let t =
        match target with
        | `Cpu -> Cost.Tcpu
        | `Gpu -> Cost.Tgpu
        | `Fpga -> Cost.Tfpga
      in
      let opts = { Cost.default_options with hints = k.k_hints k.k_large } in
      let cfg =
        Opt.Search.config ~target:t ~symbols:k.k_large
          ~measure_symbols:k.k_mini ~objective ~opts ~beam ~max_steps:steps
          ?budget_s:budget ~repeat ~warmup ()
      in
      let res = Opt.Search.optimize ~name cfg k.k_build in
      Fmt.pr "%a" Opt.Search.pp res;
      (match Opt.Search.crossval ~symbols:k.k_mini k.k_build res.r_chain with
      | Ok () -> Fmt.pr "crossval: OK (bit-identical to reference engine)@."
      | Error msg ->
        Fmt.epr "crossval FAILED: %s@." msg;
        exit 1);
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc (Transform.Xform.chain_to_string res.r_chain);
          output_char oc '\n';
          close_out oc;
          Fmt.pr "wrote chain to %s@." path)
        chain_out;
      Option.iter
        (fun path ->
          Obs.Json.save (Opt.Search.to_json res) path;
          Fmt.pr "wrote search log to %s@." path)
        log_out
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Automatically optimize a Polybench program: cost-guided beam \
             search over the transformation registry, optionally \
             confirming each step with measured interpreter medians")
    Term.(const run $ prog_arg $ target_arg $ beam_arg $ steps_arg
          $ budget_arg $ measure_arg $ repeat_arg $ warmup_arg $ chain_arg
          $ log_arg)

let fuzz_cmd =
  let seeds_arg =
    Arg.(value & opt int 50
         & info [ "seeds" ] ~docv:"N"
             ~doc:"Number of consecutive seeds to fuzz.")
  in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"K"
             ~doc:"Base seed; seed k of the campaign is $(docv)+k.")
  in
  let oracle_arg =
    Arg.(value & opt string "all"
         & info [ "oracle" ] ~docv:"ORACLE"
             ~doc:"Oracle to check: $(b,engine), $(b,roundtrip), \
                   $(b,xform), $(b,opt), $(b,parallel_crossval), \
                   $(b,kernel_crossval), $(b,stream_crossval) or \
                   $(b,all).")
  in
  let shrink_arg =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:"Greedily minimize failing graphs before writing repros.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Write failing graphs as standalone .sdfg repros (plus \
                   replay notes) into $(docv).")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Instead of generating graphs, load a .sdfg repro and \
                   check it against the selected oracles.")
  in
  let run seeds seed oracle shrink out replay =
    Transform.Std.register_all ();
    let oracles =
      match oracle with
      | "all" -> Fuzz.Oracle.kinds
      | s -> (
        match Fuzz.Oracle.kind_of_string s with
        | Some k -> [ k ]
        | None ->
          Fmt.epr
            "unknown oracle '%s' \
             (engine|roundtrip|xform|opt|parallel_crossval|kernel_crossval|stream_crossval|all)@."
            s;
          exit 2)
    in
    let log = print_endline in
    match replay with
    | Some path -> (
      match Fuzz.Driver.replay ~oracles ~log path with
      | Error m ->
        Fmt.epr "%s@." m;
        exit 1
      | Ok s -> if s.s_failures <> [] then exit 1)
    | None ->
      let s =
        Fuzz.Driver.run ~oracles ~shrink ?out_dir:out ~log ~base_seed:seed
          ~seeds ()
      in
      if s.s_failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: generate random well-formed SDFGs and \
             check engine equivalence, serialization round-trips and \
             transformation soundness; failing graphs are shrunk to \
             standalone .sdfg repros")
    Term.(const run $ seeds_arg $ seed_arg $ oracle_arg $ shrink_arg
          $ out_arg $ replay_arg)

let socket_arg =
  Arg.(value & opt string "/tmp/sdfg-serve.sock"
       & info [ "s"; "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket of the serve daemon.")

let serve_cmd =
  let capacity_arg =
    Arg.(value & opt int 32
         & info [ "cache-capacity" ] ~docv:"N"
             ~doc:"Plan-cache capacity (LRU-evicted beyond $(docv)).")
  in
  let cache_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persist the plan-cache index under $(docv); a \
                   restarted daemon comes back warm.")
  in
  let max_queue_arg =
    Arg.(value & opt int 64
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Admission bound: run requests beyond $(docv) queued \
                   jobs are shed immediately.")
  in
  let run socket capacity cache_dir max_queue =
    if capacity < 1 then begin
      Fmt.epr "error: --cache-capacity must be >= 1@.";
      exit 1
    end;
    if max_queue < 1 then begin
      Fmt.epr "error: --max-queue must be >= 1@.";
      exit 1
    end;
    let srv =
      Serve.Server.start ~capacity ?cache_dir ~max_queue ~programs:(List.map (fun p -> (p.p_name, p.p_build)) programs)
        ~log:(fun line -> Fmt.pr "[serve] %s@." line)
        ~socket ()
    in
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Serve.Server.stop srv));
    Serve.Server.wait srv
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the compile-and-run daemon: validate once, plan once, \
             run many.  Clients submit .sdfg programs (or registered \
             program names) with symbol and argument sets over a \
             length-prefixed JSON socket protocol; plans are cached \
             content-addressed and shared.  Stop with SIGINT or a \
             client 'shutdown' request.")
    Term.(const run $ socket_arg $ capacity_arg $ cache_dir_arg
          $ max_queue_arg)

let serve_load_cmd =
  let requests_arg =
    Arg.(value & opt int 100
         & info [ "n"; "requests" ] ~docv:"N" ~doc:"Run requests to send.")
  in
  let clients_arg =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let distinct_arg =
    Arg.(value & opt int 8
         & info [ "distinct" ] ~docv:"N"
             ~doc:"Distinct generator seeds; repeats of a seed are \
                   plan-cache hits.")
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Check every response bit-identical to a direct \
                   in-process Exec.run of the same request.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the outcome (counts, wall, req/s) as JSON.")
  in
  let run socket requests clients distinct verify engine domains no_kernels
      json =
    let config = exec_config ~engine ~domains ~no_kernels () in
    let o =
      Fuzz.Load.run ~clients ~distinct ~verify ~config ~socket ~requests ()
    in
    Fmt.pr
      "%d requests over %d clients: %d ok, %d errors, %d cache hits, %d \
       mismatches, %.3fs wall (%.1f req/s)@."
      o.Fuzz.Load.o_requests clients o.o_ok o.o_errors o.o_hits
      o.o_mismatches o.o_wall_s o.o_rps;
    (match
       let c = Serve.Client.connect socket in
       Fun.protect
         ~finally:(fun () -> Serve.Client.close c)
         (fun () -> Serve.Client.stats c)
     with
    | Ok stats -> Fmt.pr "server stats: %s@." (Obs.Json.to_string stats)
    | Error e -> Fmt.epr "stats request failed: %s@." e
    | exception _ -> ());
    Option.iter
      (fun path ->
        Obs.Json.save (Fuzz.Load.outcome_to_json o) path;
        Fmt.pr "wrote outcome JSON to %s@." path)
      json;
    if o.o_errors > 0 || o.o_mismatches > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve-load"
       ~doc:"Drive a running serve daemon with fuzzer-generated \
             programs: concurrent clients, deterministic request \
             schedule, optional bit-identity verification against \
             direct execution.")
    Term.(const run $ socket_arg $ requests_arg $ clients_arg
          $ distinct_arg $ verify_arg $ engine_arg $ domains_arg
          $ no_kernels_arg $ json_arg)

let () =
  Sdfg_ir.Errors.register ();
  let doc = "the SDFG data-centric toolchain" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "sdfg" ~doc)
          [ list_cmd; show_cmd; dot_cmd; codegen_cmd; transform_cmd;
            estimate_cmd; run_cmd; profile_cmd; optimize_cmd; save_cmd;
            load_cmd; fuzz_cmd; analyze_races_cmd; serve_cmd;
            serve_load_cmd ]))
