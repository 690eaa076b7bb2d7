(* Cross-validation: the analytic machine model against the interpreter's
   measured instrumentation.  The model's operation and movement counts
   must agree with what actually executes — this is what makes the
   benchmark harness's modeled times trustworthy. *)

module E = Symbolic.Expr
module T = Tasklang.Types
module Cost = Machine.Cost
module R = Obs.Report
open Sdfg_ir
open Interp

let spec = Machine.Spec.paper_testbed

let close ?(tol = 0.05) a b =
  Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let test_matmul_counts () =
  let m, n, k = (8, 7, 6) in
  let symbols = [ ("M", m); ("N", n); ("K", k) ] in
  let g = Workloads.Kernels.matmul () in
  let a = Tensor.init T.F64 [| m; k |] (fun _ -> T.F 1.) in
  let b = Tensor.init T.F64 [| k; n |] (fun _ -> T.F 1.) in
  let c = Tensor.create T.F64 [| m; n |] in
  let stats = Exec.run g ~symbols ~args:[ ("A", a); ("B", b); ("C", c) ] in
  let r = Cost.estimate ~spec ~target:Cost.Tcpu ~symbols g in
  (* tasklet executions: model iterations = interpreter tasklet count *)
  Alcotest.(check bool)
    (Fmt.str "iterations %.0f ~ tasklets %d" r.Cost.r_acct.Cost.iterations
       stats.R.r_counters.R.tasklet_execs)
    true
    (close r.Cost.r_acct.Cost.iterations
       (float_of_int stats.R.r_counters.R.tasklet_execs));
  (* flops: 2 per multiply-accumulate = 2*M*N*K *)
  Alcotest.(check bool)
    (Fmt.str "flops %.0f ~ 2MNK %d" r.Cost.r_flops (2 * m * n * k))
    true
    (close r.Cost.r_flops (float_of_int (2 * m * n * k)));
  (* WCR commits observed by the interpreter equal M*N*K *)
  Alcotest.(check int) "interpreter WCR count" (m * n * k)
    stats.R.r_counters.R.wcr_writes

let test_stencil_counts () =
  let nsize = 16 and t = 3 in
  let symbols = [ ("N", nsize); ("T", t) ] in
  let g = Workloads.Kernels.jacobi () in
  let a = Tensor.init T.F64 [| nsize; nsize |] (fun _ -> T.F 1.) in
  let b = Tensor.create T.F64 [| nsize; nsize |] in
  let stats = Exec.run g ~symbols ~args:[ ("A", a); ("B", b) ] in
  let r = Cost.estimate ~spec ~target:Cost.Tcpu ~symbols g in
  (* 2 sweeps per step over the (N-2)^2 interior *)
  let expected = 2 * t * (nsize - 2) * (nsize - 2) in
  Alcotest.(check int) "interpreter iterations" expected
    stats.R.r_counters.R.tasklet_execs;
  Alcotest.(check bool)
    (Fmt.str "model iterations %.0f ~ %d" r.Cost.r_acct.Cost.iterations
       expected)
    true
    (close r.Cost.r_acct.Cost.iterations (float_of_int expected))

let test_bfs_counts () =
  (* the model's visit hints reproduce the interpreter's level count *)
  let gr = Workloads.Graphs.road_grid ~width:16 ~height:16 ~seed:9 in
  let levels = Workloads.Graphs.bfs_levels gr ~source:0 in
  Alcotest.(check bool) "road graph has many levels" true (levels > 8);
  let depth = Workloads.Graphs.run_bfs gr ~source:0 in
  let max_depth = ref 0 in
  for v = 0 to gr.gr_nodes - 1 do
    max_depth := max !max_depth (T.to_int (Tensor.get depth [ v ]))
  done;
  Alcotest.(check int) "levels = max depth + 1" levels (!max_depth + 1)

let test_transform_reduces_modeled_and_real_movement () =
  (* LocalStorage reduces both the modeled DRAM traffic and the
     interpreter's measured element movement for tiled GEMM *)
  let symbols = [ ("M", 8); ("N", 8); ("K", 8) ] in
  let build () =
    let g = Workloads.Kernels.matmul () in
    let tiling = Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ 4 ] in
    let cand =
      tiling.Transform.Xform.x_find g
      |> List.find (fun c ->
             State.label (Sdfg.state g c.Transform.Xform.c_state) = "main")
    in
    Transform.Xform.apply g tiling cand;
    g
  in
  let run g =
    let a = Tensor.init T.F64 [| 8; 8 |] (fun _ -> T.F 1.) in
    let b = Tensor.init T.F64 [| 8; 8 |] (fun _ -> T.F 1.) in
    let c = Tensor.create T.F64 [| 8; 8 |] in
    Exec.run g ~symbols ~args:[ ("A", a); ("B", b); ("C", c) ]
  in
  let base = run (build ()) in
  let g = build () in
  (* pack the B tile *)
  let x = Transform.Data_xforms.local_storage in
  (match
     List.find_opt
       (fun c ->
         String.length c.Transform.Xform.c_note > 0
         && c.Transform.Xform.c_note.[0] = 'B')
       (x.Transform.Xform.x_find g)
   with
  | Some c -> Transform.Xform.apply g x c
  | None -> Alcotest.fail "no B candidate");
  let packed = run g in
  (* the interpreter still runs the same number of tasklets *)
  Alcotest.(check int) "same tasklet count"
    base.R.r_counters.R.tasklet_execs packed.R.r_counters.R.tasklet_execs;
  (* and the model sees less DRAM traffic *)
  let traffic g = (Cost.estimate ~spec ~target:Cost.Tcpu ~symbols g).Cost.r_bytes in
  Alcotest.(check bool) "modeled traffic not increased" true
    (traffic g <= traffic (build ()) +. 1.)

(* --- compiled engine vs reference engine --------------------------------

   The compiled engine (Plan) must be observationally identical to the
   reference interpreter: bit-identical tensors AND identical
   instrumentation counters, across every Polybench kernel and every
   fixture graph.  Counter equality is the strong check — it proves the
   plans execute the same tasklets, move the same elements and resolve
   the same write conflicts, not merely that they converge to the same
   numbers. *)

let tensor_bits (t : Tensor.t) =
  match t.Tensor.buf with
  | Tensor.Fbuf a -> Array.to_list (Array.map Int64.bits_of_float a)
  | Tensor.Ibuf a -> List.map Int64.of_int (Array.to_list a)

let counter_list (x : R.counters) =
  [ x.R.elements_moved; x.R.tasklet_execs; x.R.map_iterations;
    x.R.stream_pushes; x.R.stream_pops; x.R.states_executed; x.R.wcr_writes ]

let check_stats_equal name (r : R.t) (c : R.t) =
  Alcotest.(check (list int))
    (name ^ ": counters identical across engines")
    (counter_list r.R.r_counters)
    (counter_list c.R.r_counters)

(* Run [build ()] under both engines on identically-initialized fresh
   args and compare every output tensor bit for bit, plus all counters —
   first with instrumentation off, then again at level [All], where the
   timing trees must also have identical shapes (same constructs, same
   nesting, same invocation counts) and the counters must not drift from
   the uninstrumented runs. *)
let compare_engines ~name ~build ~args ~symbols () =
  (* domains pinned to 1: reference-vs-compiled bit-identity is the
     sequential contract; test_parallel owns the 1/2/4-domain one *)
  let run ?(instrument = Obs.Collect.Off) engine =
    let g = build () in
    let a = args () in
    let config =
      Exec.Config.(
        default |> with_engine engine |> with_instrument instrument
        |> with_domains 1)
    in
    let report = Exec.run g ~config ~symbols ~args:a in
    (a, report)
  in
  let check_tensors tag ra ca =
    List.iter2
      (fun (n1, t1) (n2, t2) ->
        Alcotest.(check string) (tag ^ ": argument order") n1 n2;
        Alcotest.(check (list int64))
          (Fmt.str "%s: %S bit-identical across engines" tag n1)
          (tensor_bits t1) (tensor_bits t2))
      ra ca
  in
  let ra, rs = run Plan.reference in
  let ca, cs = run Plan.compiled in
  check_tensors name ra ca;
  check_stats_equal name rs cs;
  let ia, ir = run ~instrument:Obs.Collect.All Plan.reference in
  let ja, jr = run ~instrument:Obs.Collect.All Plan.compiled in
  check_tensors (name ^ " [instrumented]") ia ja;
  check_stats_equal (name ^ " [instrumented]") ir jr;
  Alcotest.(check string)
    (name ^ ": timer tree shapes identical across engines")
    (R.shape ir) (R.shape jr);
  (* instrumentation must observe, not perturb *)
  check_stats_equal (name ^ " [instrumented vs plain]") rs ir

let test_engines_polybench name () =
  let k = Workloads.Polybench.find name in
  compare_engines ~name
    ~build:(fun () ->
      let g = k.Workloads.Polybench.k_build () in
      Validate.check g;
      g)
    ~args:(fun () -> Test_polybench.alloc_args (k.k_build ()) k.k_mini)
    ~symbols:k.k_mini ()

let farr shape f = Tensor.init T.F64 shape (fun idx -> T.F (f idx))
let iarr shape f = Tensor.init T.I64 shape (fun idx -> T.I (f idx))

(* The fixture graphs with the setups of the interpreter conformance
   suite: maps, WCR, reductions, time loops, streams and consume scopes,
   data-dependent branching, indirection and nested SDFGs. *)
let fixture_cases =
  [ ( "vector_add", Fixtures.vector_add, [ ("N", 5) ],
      fun () ->
        [ ("A", farr [| 5 |] (fun i -> float_of_int (List.hd i)));
          ("B", farr [| 5 |] (fun _ -> 100.));
          ("C", Tensor.create T.F64 [| 5 |]) ] );
    ( "matmul_mapreduce", Fixtures.matmul_mapreduce,
      [ ("M", 3); ("N", 4); ("K", 5) ],
      fun () ->
        [ ("A",
           farr [| 3; 5 |] (function [ i; j ] -> float_of_int ((i * 5) + j) | _ -> 0.));
          ("B", farr [| 5; 4 |] (function [ i; j ] -> float_of_int (i - j) | _ -> 0.));
          ("C", Tensor.create T.F64 [| 3; 4 |]) ] );
    ( "matmul_wcr", Fixtures.matmul_wcr, [ ("M", 4); ("N", 3); ("K", 6) ],
      fun () ->
        [ ("A",
           farr [| 4; 6 |] (function [ i; j ] -> sin (float_of_int ((i * 7) + j)) | _ -> 0.));
          ("B",
           farr [| 6; 3 |] (function [ i; j ] -> cos (float_of_int (i + (3 * j))) | _ -> 0.));
          ("C", Tensor.create T.F64 [| 4; 3 |]) ] );
    ( "laplace", Fixtures.laplace, [ ("N", 16); ("T", 10) ],
      fun () ->
        [ ("A",
           farr [| 2; 16 |] (function [ 0; i ] -> float_of_int (i * i) | _ -> 0.)) ] );
    ( "spmv", Fixtures.spmv, [ ("H", 3); ("W", 4); ("nnz", 5) ],
      fun () ->
        [ ("A_row", iarr [| 4 |] (fun i -> [| 0; 2; 3; 5 |].(List.hd i)));
          ("A_col", iarr [| 5 |] (fun i -> [| 0; 2; 1; 0; 3 |].(List.hd i)));
          ("A_val", farr [| 5 |] (fun i -> [| 1.; 2.; 3.; 4.; 5. |].(List.hd i)));
          ("x", farr [| 4 |] (fun i -> float_of_int (1 + List.hd i)));
          ("b", Tensor.create T.F64 [| 3 |]) ] );
    ( "fibonacci", Fixtures.fibonacci, [ ("P", 4) ],
      fun () ->
        [ ("N", iarr [||] (fun _ -> 10)); ("out", Tensor.create T.I64 [||]) ] );
    ( "branching", Fixtures.branching, [],
      fun () ->
        [ ("A", farr [||] (fun _ -> 2.)); ("B", farr [||] (fun _ -> 1.));
          ("C", Tensor.create T.F64 [||]); ("Ci", Tensor.create T.I64 [||]) ] );
    ( "histogram", Fixtures.histogram, [ ("H", 8); ("W", 8); ("B", 8) ],
      fun () ->
        [ ("image",
           farr [| 8; 8 |]
             (function [ i; j ] -> float_of_int (((i * 8) + j) mod 8) /. 8. | _ -> 0.));
          ("hist", Tensor.create T.I64 [| 8 |]) ] );
    ( "nested_loop", Fixtures.nested_loop, [ ("N", 4) ],
      fun () ->
        [ ("data", farr [| 4 |] (fun i -> [| 0.5; 1.0; 7.9; 16.0 |].(List.hd i)));
          ("counts", Tensor.create T.I64 [| 4 |]) ] ) ]

let test_engines_fixture (name, build, symbols, args) () =
  compare_engines ~name ~build ~args ~symbols ()

let test_nonpositive_stride_raises () =
  (* a map whose stride evaluates to zero or below must raise a
     Runtime_error naming the parameter — in both engines — instead of
     silently looping with a clamped step *)
  List.iter
    (fun engine ->
      List.iter
        (fun s ->
          let g, st = Builder.Build.single_state ~symbols:[ "N"; "S" ] "m" in
          Sdfg.add_array g "X" ~shape:[ E.sym "N" ] ~dtype:T.F64;
          ignore
            (Builder.Build.mapped_tasklet g st ~name:"t" ~params:[ "i" ]
               ~ranges:
                 [ Symbolic.Subset.range ~stride:(E.sym "S") E.zero
                     (E.sub (E.sym "N") E.one) ]
               ~ins:[]
               ~outs:
                 [ Builder.Build.out_elem "x" "X" [ E.sym "i" ] ]
               ~code:(`Src "x = 1.0") ());
          ignore (Builder.Build.finalize g);
          let contains msg sub =
            let n = String.length msg and m = String.length sub in
            let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
            go 0
          in
          match
            Exec.run g
              ~config:(Exec.Config.with_engine engine Exec.Config.default)
              ~symbols:[ ("N", 4); ("S", s) ]
          with
          | exception Exec.Runtime_error msg ->
            Alcotest.(check bool)
              (Fmt.str "error names the parameter (stride %d): %s" s msg)
              true
              (contains msg "non-positive stride" && contains msg "\"i\"")
          | _ -> Alcotest.failf "stride %d: expected Runtime_error" s)
        [ 0; -2 ])
    [ Plan.reference; Plan.compiled ]

(* --- plan coverage -------------------------------------------------------

   Access nodes that only wire the graph compile to nothing, so "on the
   reference fallback" counts only work the reference really does. *)

(* Run [build ()] once per engine on one domain, check tensors bit for
   bit and counters, and return the compiled run's plan coverage. *)
let compiled_coverage ~name ~build ~args ~symbols =
  let run engine =
    let a = args () in
    let config =
      Exec.Config.(default |> with_engine engine |> with_domains 1)
    in
    (a, Exec.run (build ()) ~config ~symbols ~args:a)
  in
  let ra, rs = run Plan.reference and ca, cs = run Plan.compiled in
  List.iter2
    (fun (n, t1) (_, t2) ->
      Alcotest.(check (list int64))
        (Fmt.str "%s: %S bit-identical across engines" name n)
        (tensor_bits t1) (tensor_bits t2))
    ra ca;
  check_stats_equal name rs cs;
  match cs.R.r_coverage with
  | Some c -> c
  | None -> Alcotest.failf "%s: compiled run without plan coverage" name

let test_coverage_gemm () =
  let k = Workloads.Polybench.find "gemm" in
  let c =
    compiled_coverage ~name:"gemm" ~build:k.k_build
      ~args:(fun () -> Test_polybench.alloc_args (k.k_build ()) k.k_mini)
      ~symbols:k.k_mini
  in
  Alcotest.(check int) "no node on the reference fallback" 0 c.R.cov_fallback;
  Alcotest.(check int) "compiled nodes" 4 c.R.cov_compiled

let test_coverage_stream_copy () =
  let build () = Serialize.load "corpus/stream_into_array_column.sdfg" in
  let c =
    compiled_coverage ~name:"stream_into_array_column" ~build
      ~args:(fun () -> Profile.make_args (build ()))
      ~symbols:[]
  in
  Alcotest.(check int) "the stream-to-array copy is the one fallback node" 1
    c.R.cov_fallback

(* The executor rides the environment into nested SDFGs ([enter]), so
   the inner state machine is planned by the compiled engine too. *)
let test_coverage_nested_engine () =
  let name, build, symbols, args =
    List.find (fun (n, _, _, _) -> n = "nested_loop") fixture_cases
  in
  let c = compiled_coverage ~name ~build ~args ~symbols in
  Alcotest.(check bool) "the nested SDFG's states are planned" true
    (c.R.cov_states > 1)

let suite =
  [ ("model vs interpreter: GEMM counts", `Quick, test_matmul_counts);
    ("model vs interpreter: stencil counts", `Quick, test_stencil_counts);
    ("model vs interpreter: BFS levels", `Quick, test_bfs_counts);
    ("LocalStorage effect, modeled and measured", `Quick,
      test_transform_reduces_modeled_and_real_movement);
    ("non-positive map stride raises (both engines)", `Quick,
      test_nonpositive_stride_raises) ]
  @ List.map
      (fun c ->
        let name, _, _, _ = c in
        ( Fmt.str "engines agree: fixture %s" name, `Quick,
          test_engines_fixture c ))
      fixture_cases
  @ List.map
      (fun name ->
        ( Fmt.str "engines agree: polybench %s" name, `Quick,
          test_engines_polybench name ))
      Workloads.Polybench.names
  @ [ ("plan coverage: gemm leaves nothing on the reference fallback",
       `Quick, test_coverage_gemm);
      ("plan coverage: a stream-to-array copy is the one fallback node",
       `Quick, test_coverage_stream_copy);
      ("plan coverage: a nested SDFG keeps the compiled engine", `Quick,
       test_coverage_nested_engine) ]
