(* Engine v2: bulk strided kernels for affine map bodies.

   Guarantees under test:
   - recognition: the engines workloads lower to the expected kernel
     kinds, recorded in the plan coverage report, and unsupported bodies
     fall back to the closure path with a stable reason code;
   - equivalence: kernel and closure paths produce bit-identical output
     tensors and identical counter totals at 1, 2 and 4 domains, on
     every Polybench kernel, every fixture graph and the fuzz corpus;
   - error behavior: a launch whose bounds pre-check (or index pre-pass)
     fails defers to the closure nest, so both paths raise the reference
     engine's error with the same partial effects and counters;
   - row evaluation: [expr] blocks of every length around the block size
     agree with the closure path, as do gather and scatter bodies
     (windowed connectors, duplicate WCR targets, aliasing);
   - [Tensor.fill] handles dense and strided views. *)

module T = Tasklang.Types
module R = Obs.Report
module E = Symbolic.Expr
module S = Symbolic.Subset
open Sdfg_ir
open Builder
open Interp

let tensor_bits = Test_crossval.tensor_bits
let counter_list = Test_crossval.counter_list

(* Compiled engine at an explicit domain count, kernels on/off. *)
let compiled_cfg ?(kernels = true) ~domains () =
  Exec.Config.(
    default |> with_engine Plan.compiled |> with_kernels kernels
    |> with_domains domains)

let check_bits tag a b =
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) (tag ^ ": argument order") n1 n2;
      Alcotest.(check (list int64))
        (Fmt.str "%s: %S byte-identical" tag n1)
        (tensor_bits t1) (tensor_bits t2))
    a b

(* --- Tensor primitives --------------------------------------------------- *)

let floats t = Tensor.to_float_list t

let test_tensor_fill () =
  let t = Tensor.create T.F64 [| 2; 4 |] in
  Tensor.fill t (T.F 3.5);
  Alcotest.(check (list (float 0.)))
    "dense fill" (List.init 8 (fun _ -> 3.5)) (floats t);
  (* strided view: every other column of row 1 *)
  let v = Tensor.view t ~starts:[| 1; 0 |] ~counts:[| 1; 2 |] ~steps:[| 1; 2 |] in
  Tensor.fill v (T.F 9.);
  Alcotest.(check (list (float 0.)))
    "strided fill hits only the view"
    [ 3.5; 3.5; 3.5; 3.5; 9.; 3.5; 9.; 3.5 ]
    (floats t);
  (* int buffer coerces the value *)
  let ti = Tensor.create T.I64 [| 3 |] in
  Tensor.fill ti (T.I 7);
  Alcotest.(check (list (float 0.))) "int fill" [ 7.; 7.; 7. ] (floats ti)

(* --- recognition and coverage -------------------------------------------- *)

let coverage ?(kernels = true) build symbols =
  let g = build () in
  let args = Profile.make_args ~symbols g in
  let r = Exec.run g ~config:(compiled_cfg ~kernels ~domains:1 ()) ~symbols ~args in
  match r.R.r_coverage with
  | None -> Alcotest.fail "compiled run must report coverage"
  | Some c ->
    let sorted l = List.sort compare l in
    (sorted c.R.cov_kernels, sorted c.R.cov_kernel_fallbacks)

let test_recognized_kinds () =
  List.iter
    (fun (name, build, symbols, want_maps, want_falls) ->
      let kmaps, kfalls = coverage build symbols in
      Alcotest.(check (list (pair string int)))
        (name ^ ": lowered kinds") want_maps kmaps;
      Alcotest.(check (list (pair string int)))
        (name ^ ": fallback reasons") want_falls kfalls)
    ([ ( "matmul", Workloads.Kernels.matmul,
        [ ("M", 8); ("N", 8); ("K", 8) ],
        [ ("contract", 1); ("fill", 1) ], [] );
      ( "jacobi", Workloads.Kernels.jacobi,
        [ ("N", 16); ("T", 2) ],
        [ ("expr", 2) ], [] );
      ( "histogram", Workloads.Kernels.histogram,
        [ ("H", 8); ("W", 8) ],
        (* the scatter's computed bin is input-derived indirection *)
        [ ("fill", 1) ], [ ("non-affine-indirect", 1) ] );
      ( "spmv", Workloads.Kernels.spmv,
        (* sizes ≥ 11 so Profile.make_args' mod-11 index values fit *)
        [ ("H", 8); ("W", 16); ("nnz", 16) ],
        (* the CSR row loop bounds and x gather come from connectors *)
        [], [ ("non-affine-indirect", 1) ] );
      ( "cfd-naive", Workloads.Cfd.naive, Workloads.Cfd.mini,
        (* For loops and locals keep the fused element body indirect *)
        [ ("fill", 1) ], [ ("non-affine-indirect", 1) ] );
      ( "cfd-batched", Workloads.Cfd.batched, Workloads.Cfd.mini,
        (* the two-output zeroing [t = 0.0; l = 0.0] runs on the rows *)
        [ ("contract", 2); ("expr", 1); ("fill", 1); ("gather", 1); ("scatter", 1) ],
        [] );
      ( "conv-im2col", Workloads.Attention.conv_im2col,
        Workloads.Attention.conv_mini,
        [ ("contract", 1); ("fill", 1); ("gather", 1) ], [] );
      ("copy", Workloads.Kernels.copy, [ ("N", 16) ], [ ("copy", 1) ], []);
      (* elementwise [a + b] and [2.0 * a + b] run on the rows *)
      ("eadd", Workloads.Kernels.eadd, [ ("N", 16) ], [ ("expr", 1) ], []);
      ("axpy", Workloads.Kernels.axpy, [ ("N", 16) ], [ ("expr", 1) ], []) ]
    (* literal-scaled products [1.5 * a * b] lower as contractions; the
       elementwise float bodies ([S * scale], [S - m], [E / Z]) run on
       the rows *)
    @ List.map
        (fun (name, want, falls) ->
          let k = Workloads.Polybench.find name in
          (name, k.Workloads.Polybench.k_build, k.Workloads.Polybench.k_mini, want, falls))
        [ ("gemm", [ ("contract", 1); ("expr", 1) ], []);
          ("2mm", [ ("contract", 2); ("expr", 1); ("fill", 1) ], []);
          ("gemver", [ ("contract", 2); ("expr", 2) ], []);
          (* [sd_sqrt]'s local [t], read twice, inlines into an [expr];
             the guarded triangle store keeps its reason *)
          ( "correlation", [ ("contract", 1); ("expr", 5); ("fill", 3) ],
            [ ("control-flow", 1) ] ) ]
    @ [ ( "attention", Workloads.Attention.base, Workloads.Attention.attention_mini,
          [ ("contract", 2); ("copy", 2); ("expr", 5); ("fill", 3) ],
          [] ) ])

let test_kernels_disabled () =
  (* ~kernels:false must keep every map on the closure path and record
     neither lowered kinds nor fallback reasons *)
  let kmaps, kfalls =
    coverage ~kernels:false Workloads.Kernels.matmul
      [ ("M", 8); ("N", 8); ("K", 8) ]
  in
  Alcotest.(check (list (pair string int))) "no kernels" [] kmaps;
  Alcotest.(check (list (pair string int))) "no fallbacks" [] kfalls

let test_nonaffine_fallback () =
  (* a quadratic subscript cannot be a strided kernel *)
  let build () =
    let g, st = Build.single_state ~symbols:[ "N" ] "sq" in
    Sdfg.add_array g "X" ~shape:[ E.int 64 ] ~dtype:T.F64;
    ignore
      (Build.mapped_tasklet g st ~name:"w" ~schedule:Defs.Cpu_multicore
         ~params:[ "i" ]
         ~ranges:[ S.range E.zero (E.sub (E.sym "N") E.one) ]
         ~ins:[]
         ~outs:
           [ Build.out_elem "x" "X" [ E.mul (E.sym "i") (E.sym "i") ] ]
         ~code:(`Src "x = 1.0") ());
    Build.finalize g
  in
  let kmaps, kfalls = coverage build [ ("N", 8) ] in
  Alcotest.(check (list (pair string int))) "nothing lowered" [] kmaps;
  Alcotest.(check (list (pair string int)))
    "non-affine reason" [ ("non-affine", 1) ] kfalls

(* --- kernel path == closure path ----------------------------------------- *)

(* Run the compiled engine twice on identical deterministic inputs —
   closure path and kernel path — and require byte-identical outputs and
   identical counter totals.  The kernel executes the same reads and
   writes in the same order as the closure nest, so this holds even for
   float WCR at a fixed domain count. *)
let check_paths_agree tag build symbols args_for ~domains =
  let run kernels =
    let g = build () in
    let args = args_for g in
    let r = Exec.run g ~config:(compiled_cfg ~kernels ~domains ()) ~symbols ~args in
    (args, r)
  in
  let closure_out, closure_r = run false in
  let kernel_out, kernel_r = run true in
  check_bits (Fmt.str "%s at %d domains" tag domains) closure_out kernel_out;
  Alcotest.(check (list int))
    (Fmt.str "%s: counters at %d domains" tag domains)
    (counter_list closure_r.R.r_counters)
    (counter_list kernel_r.R.r_counters)

let test_polybench_paths name () =
  let k = Workloads.Polybench.find name in
  List.iter
    (fun domains ->
      check_paths_agree name k.Workloads.Polybench.k_build
        k.Workloads.Polybench.k_mini
        (fun g -> Test_polybench.alloc_args g k.Workloads.Polybench.k_mini)
        ~domains)
    [ 1; 2; 4 ]

let test_fixture_paths (name, build, symbols, args) () =
  List.iter
    (fun domains ->
      check_paths_agree name build symbols (fun _ -> args ()) ~domains)
    [ 1; 2; 4 ]

let test_engines_workload_paths () =
  List.iter
    (fun (name, build, symbols) ->
      List.iter
        (fun domains ->
          check_paths_agree name build symbols
            (fun g -> Profile.make_args ~symbols g)
            ~domains)
        [ 1; 2; 4 ])
    [ ("matmul", Workloads.Kernels.matmul, [ ("M", 8); ("N", 8); ("K", 8) ]);
      ("jacobi", Workloads.Kernels.jacobi, [ ("N", 16); ("T", 2) ]);
      ("histogram", Workloads.Kernels.histogram, [ ("H", 16); ("W", 16) ]);
      ("copy", Workloads.Kernels.copy, [ ("N", 33) ]);
      ("eadd", Workloads.Kernels.eadd, [ ("N", 33) ]);
      ("axpy", Workloads.Kernels.axpy, [ ("N", 33) ]) ]

let test_corpus_kernels () =
  List.iter
    (fun path ->
      let g = Serialize.load path in
      match Fuzz.Oracle.check Fuzz.Oracle.Kernel_crossval g with
      | Fuzz.Oracle.Fail m -> Alcotest.failf "%s: %s" path m
      | Fuzz.Oracle.Pass _ | Fuzz.Oracle.Skip _ -> ())
    (Test_fuzz.corpus_files ())

(* --- error behavior ------------------------------------------------------ *)

(* Map range runs to N-1 over an 8-element array: with N = 9 the bounds
   pre-check fails, the kernel defers to the closure nest, and both paths
   must raise the same located error after the same partial writes. *)
let oob_graph () =
  let g, st = Build.single_state ~symbols:[ "N" ] "oob" in
  Sdfg.add_array g "X" ~shape:[ E.int 8 ] ~dtype:T.F64;
  ignore
    (Build.mapped_tasklet g st ~name:"w" ~schedule:Defs.Cpu_multicore
       ~params:[ "i" ]
       ~ranges:[ S.range E.zero (E.sub (E.sym "N") E.one) ]
       ~ins:[]
       ~outs:[ Build.out_elem "x" "X" [ E.sym "i" ] ]
       ~code:(`Src "x = 1.0") ());
  Build.finalize g

let test_oob_same_error () =
  let run kernels =
    let x = Tensor.init T.F64 [| 8 |] (fun _ -> T.F (-1.)) in
    match
      Exec.run (oob_graph ())
        ~config:(compiled_cfg ~kernels ~domains:1 ())
        ~symbols:[ ("N", 9) ]
        ~args:[ ("X", x) ]
    with
    | exception e -> (Printexc.to_string e, floats x)
    | _ -> Alcotest.fail "out-of-bounds write must raise"
  in
  let closure_msg, closure_x = run false in
  let kernel_msg, kernel_x = run true in
  Alcotest.(check string) "same error message" closure_msg kernel_msg;
  Alcotest.(check (list (float 0.)))
    "same partial effects" closure_x kernel_x

let test_zero_trip_kernel () =
  let x = Tensor.init T.F64 [| 8 |] (fun _ -> T.F 7.) in
  let r =
    Exec.run (oob_graph ())
      ~config:(compiled_cfg ~domains:1 ())
      ~symbols:[ ("N", 0) ]
      ~args:[ ("X", x) ]
  in
  Alcotest.(check (list (float 0.)))
    "X untouched" (List.init 8 (fun _ -> 7.)) (floats x);
  Alcotest.(check int) "no tasklets ran" 0 r.R.r_counters.R.tasklet_execs

(* --- row evaluation: expr blocks ------------------------------------------ *)

(* A 2 x T map over [X] whose body is [code]; the output [Y] has dtype
   [out] and is subscripted [Y[i, j]], or [Y[i]] (stride 0 along the
   innermost [j]) under [wcr]. *)
let expr_graph ~code ~out ?wcr () =
  let g, st = Build.single_state ~symbols:[ "T" ] "rows" in
  let t = E.sym "T" in
  Sdfg.add_array g "X" ~shape:[ E.int 2; E.add t E.one ] ~dtype:T.F64;
  Sdfg.add_array g "Y" ~shape:[ E.int 2; E.add t E.one ] ~dtype:out;
  let i = E.sym "i" and j = E.sym "j" in
  ignore
    (Build.mapped_tasklet g st ~name:"w" ~params:[ "i"; "j" ]
       ~ranges:[ S.range E.zero E.one; S.range E.zero (E.sub t E.one) ]
       ~ins:[ Build.in_elem "x" "X" [ i; j ] ]
       ~outs:
         [ (match wcr with
           | None -> Build.out_elem "o" "Y" [ i; j ]
           | Some w -> Build.out_elem ~wcr:w "o" "Y" [ i; E.zero ]) ]
       ~code:(`Src code) ());
  Build.finalize g

let test_expr_rows () =
  List.iter
    (fun (tag, code, out, wcr) ->
      let build = expr_graph ~code ~out ?wcr in
      List.iter
        (fun trips ->
          let symbols = [ ("T", trips) ] in
          let kmaps, _ = coverage build symbols in
          Alcotest.(check (list (pair string int)))
            (Fmt.str "%s: lowers as expr" tag) [ ("expr", 1) ] kmaps;
          check_paths_agree
            (Fmt.str "%s at %d trips" tag trips)
            build symbols
            (fun g -> Profile.make_args ~symbols g)
            ~domains:1)
        [ 0; 1; Kernels.block - 1; Kernels.block; Kernels.block + 1 ])
    [ ( "parameter leaf, int / and %, conditional",
        "o = (x * 1.5 if j % 2 == 0 else -x) + j / 3", T.F64, None );
      ("floor into an int output", "o = floor(x * 4.0) - i * 2", T.I64, None);
      ("bool result", "o = (x > 1.2) or (j == 3)", T.F64, None);
      ( "float WCR into an int output", "o = x * 2.5", T.I64,
        Some Wcr.sum ) ]

(* --- gather and scatter -------------------------------------------------- *)

(* Over [i] in [0, N): a gather [O[i] = a[ix]], a scatter [W[ix] (wcr)= v]
   or a nested gather [O[i] = a[b[i]]], where [ix] / [b] come from the
   I64 array [idx] and [a] / [W] are [M]-element windows.  [window] is
   the data the read window binds ([A], or [O] itself to alias the
   output). *)
let indirect_graph ?(dynamic = true) ?(wcr = Wcr.sum) ?(window = "A")
    ?(schedule = Defs.Sequential) kind () =
  let g, st = Build.single_state ~symbols:[ "N"; "M" ] kind in
  let n = E.sym "N" and m = E.sym "M" and i = E.sym "i" in
  Sdfg.add_array g "A" ~shape:[ m ] ~dtype:T.F64;
  Sdfg.add_array g "W" ~shape:[ m ] ~dtype:T.F64;
  Sdfg.add_array g "V" ~shape:[ n ] ~dtype:T.F64;
  Sdfg.add_array g "O" ~shape:[ n ] ~dtype:T.F64;
  Sdfg.add_array g "idx" ~shape:[ n ] ~dtype:T.I64;
  let ix = Build.in_elem "ix" "idx" [ i ] in
  let a = Build.in_ ~dynamic "a" window [ S.full (if window = "O" then n else m) ] in
  let ins, outs, code =
    match kind with
    | "gather" -> ([ ix; a ], [ Build.out_elem "o" "O" [ i ] ], "o = a[ix]")
    | "scatter" ->
      ( [ ix; Build.in_elem "v" "V" [ i ] ],
        [ Build.out_ ~wcr ~dynamic:true "o" "W" [ S.full m ] ],
        "o[ix] = v" )
    | _ ->
      ( [ Build.in_ ~dynamic:true "b" "idx" [ S.full n ]; a ],
        [ Build.out_elem "o" "O" [ i ] ],
        "o = a[b[i]]" )
  in
  ignore
    (Build.mapped_tasklet g st ~name:kind ~params:[ "i" ] ~schedule
       ~ranges:[ S.range E.zero (E.sub n E.one) ]
       ~ins ~outs ~code:(`Src code) ());
  Build.finalize g

(* Integer-valued data, so float sums are exact in any order; [idx]
   cycles through [targets] values, repeating each target. *)
let indirect_args ~n ~m ~targets =
  [ ("A", Tensor.init T.F64 [| m |] (function
        | [ k ] -> T.F (float_of_int (k + 1)) | _ -> T.F 0.));
    ("W", Tensor.init T.F64 [| m |] (fun _ -> T.F 100.));
    ("V", Tensor.init T.F64 [| n |] (function
        | [ k ] -> T.F (float_of_int ((k * 7 mod 5) - 2)) | _ -> T.F 0.));
    ("O", Tensor.init T.F64 [| n |] (fun _ -> T.F (-1.)));
    ("idx", Tensor.init T.I64 [| n |] (function
        | [ k ] -> T.I (k * 5 mod targets) | _ -> T.I 0)) ]

(* Run one state on a hand-built environment so that counters stay
   observable when the run raises: the reference executors, or the
   compiled plan with kernels on or off. *)
let run_env ~engine ~kernels g symbols args =
  let containers = Hashtbl.create 8 and syms = Hashtbl.create 8 in
  List.iter
    (fun (k, t) -> Hashtbl.replace containers k (Reference.Tens t))
    args;
  List.iter (fun (k, v) -> Hashtbl.replace syms k v) symbols;
  let env =
    { Reference.g; containers; symbols = syms;
      stats = Obs.Report.zero_counters ();
      collector = Obs.Collect.create Obs.Collect.Off; max_states = 1000;
      engine;
      exec_state =
        (if engine = Plan.compiled then Plan.exec_state
         else Reference.exec_state);
      plans = Hashtbl.create 4; domains = 1; policy = Reference.Fixed 1;
      par = Reference.fresh_par (); kernels }
  in
  let outcome =
    match env.exec_state env (List.hd (Sdfg.states g)) with
    | () -> "no error"
    | exception e -> Printexc.to_string e
  in
  (outcome, counter_list env.stats)

let test_indirect_oob_same_error () =
  let n = 9 and m = 6 in
  List.iter
    (fun kind ->
      (* Profile.make_args' index values stay below 11 *)
      let kmaps, _ = coverage (indirect_graph kind) [ ("N", n); ("M", 11) ] in
      let symbols = [ ("N", n); ("M", m) ] in
      Alcotest.(check (list (pair string int)))
        (kind ^ ": lowers") [ ((if kind = "scatter" then "scatter" else "gather"), 1) ]
        kmaps;
      let run engine kernels =
        (* iteration 6 targets M + 1: out of the window *)
        let args = indirect_args ~n ~m ~targets:m in
        let idx = List.assoc "idx" args in
        Tensor.set idx [ 6 ] (T.I (m + 1));
        let outcome, counters =
          run_env ~engine ~kernels (indirect_graph kind ()) symbols args
        in
        (outcome, counters, List.map (fun (_, t) -> tensor_bits t) args)
      in
      let ref_msg, ref_ctr, ref_bits = run Plan.reference false in
      Alcotest.(check string)
        (kind ^ ": the reference's bounds error")
        {|Interp.Tensor.Bounds("index 7 out of bounds for dimension 0 (size 6)")|}
        ref_msg;
      List.iter
        (fun (path, kernels) ->
          let msg, ctr, bits = run Plan.compiled kernels in
          Alcotest.(check string) (Fmt.str "%s %s: same error" kind path) ref_msg msg;
          Alcotest.(check (list int))
            (Fmt.str "%s %s: same partial counters" kind path) ref_ctr ctr;
          Alcotest.(check (list (list int64)))
            (Fmt.str "%s %s: same partial outputs" kind path) ref_bits bits)
        [ ("closure", false); ("kernel", true) ])
    [ "gather"; "scatter"; "nested" ]

let test_indirect_alias_closure () =
  (* the gather reads the very array it writes: closure path, with the
     reason an indirect body reports *)
  let build = indirect_graph ~window:"O" "gather" in
  let symbols = [ ("N", 12); ("M", 12) ] in
  let kmaps, kfalls = coverage build symbols in
  Alcotest.(check (list (pair string int))) "nothing lowered" [] kmaps;
  Alcotest.(check (list (pair string int)))
    "indirection reason" [ ("non-affine-indirect", 1) ] kfalls;
  check_paths_agree "aliased gather" build symbols
    (fun _ -> indirect_args ~n:12 ~m:12 ~targets:12)
    ~domains:1

let test_scatter_duplicates_domains () =
  let n = 40 and m = 7 in
  let symbols = [ ("N", n); ("M", m) ] in
  List.iter
    (fun (tag, wcr) ->
      let build = indirect_graph ~wcr ~schedule:Defs.Cpu_multicore "scatter" in
      let args () = indirect_args ~n ~m ~targets:3 in
      Alcotest.(check (list (pair string int)))
        ("scatter " ^ tag ^ ": lowers") [ ("scatter", 1) ]
        (fst (coverage build [ ("N", n); ("M", 11) ]));
      let run domains =
        let args = args () in
        let r =
          Exec.run (build ()) ~config:(compiled_cfg ~domains ()) ~symbols ~args
        in
        (List.map (fun (_, t) -> tensor_bits t) args,
         counter_list r.R.r_counters)
      in
      let base = run 1 in
      List.iter
        (fun domains ->
          check_paths_agree ("scatter " ^ tag) build symbols
            (fun _ -> args ()) ~domains;
          Alcotest.(check (pair (list (list int64)) (list int)))
            (Fmt.str "scatter %s: bits and counters at %d domains" tag domains)
            base (run domains))
        [ 1; 2; 4 ])
    [ ("sum", Wcr.sum); ("min", Wcr.min_); ("max", Wcr.max_) ]

let test_windowed_counters () =
  (* a non-dynamic window moves its whole volume per iteration, as the
     closure path's prologue counts it *)
  let n = 10 and m = 6 in
  let symbols = [ ("N", n); ("M", m) ] in
  let build = indirect_graph ~dynamic:false "gather" in
  let args () = indirect_args ~n ~m ~targets:m in
  check_paths_agree "non-dynamic window" build symbols (fun _ -> args ())
    ~domains:1;
  let r = Exec.run (build ()) ~config:(compiled_cfg ~domains:1 ()) ~symbols
      ~args:(args ()) in
  Alcotest.(check int) "elements moved"
    (n * (1 + m + 1)) r.R.r_counters.R.elements_moved

(* --- row evaluator: aliasing and strides ---------------------------------- *)

(* Reference, closure path and kernel path on identical inputs: output
   bits and counters identical across all three, the compiled paths at
   each of [domains]. *)
let check_three_way ?(domains = [ 1 ]) tag build symbols =
  let run config =
    let args = Profile.make_args ~symbols (build ()) in
    let r = Exec.run (build ()) ~config ~symbols ~args in
    ( List.map (fun (n, t) -> (n, tensor_bits t)) args,
      counter_list r.R.r_counters )
  in
  let reference =
    run Exec.Config.(default |> with_engine Plan.reference |> with_domains 1)
  in
  List.iter
    (fun domains ->
      List.iter
        (fun (path, kernels) ->
          Alcotest.(check (pair (list (pair string (list int64))) (list int)))
            (Fmt.str "%s: %s path at %d domains == reference" tag path domains)
            reference
            (run (compiled_cfg ~kernels ~domains ())))
        [ ("closure", false); ("kernel", true) ])
    domains

(* One map over [params] x [ranges] (the innermost running [T] trips)
   whose single tasklet runs [code]; the arrays are [ext] long in every
   dimension, by default [2T+2] — twice the sum of [symbols], plus 2 — so
   each shifted or strided subscript stays in range.  Arrays named in
   [ints] hold I64. *)
let alias_graph ?(symbols = [ "T" ]) ?ext ?schedule ?(ints = []) ~arrays ~params
    ~ranges ~ins ~outs ~code () =
  let g, st = Build.single_state ~symbols "alias" in
  let sum = List.fold_left (fun a x -> E.add a (E.sym x)) E.zero symbols in
  let ext = Option.value ext ~default:(E.add (E.mul (E.int 2) sum) (E.int 2)) in
  List.iter
    (fun (name, rank) ->
      Sdfg.add_array g name ~shape:(List.init rank (fun _ -> ext))
        ~dtype:(if List.mem name ints then T.I64 else T.F64))
    arrays;
  ignore
    (Build.mapped_tasklet g st ~name:"w" ?schedule ~params ~ranges ~ins ~outs
       ~code:(`Src code) ());
  Build.finalize g

let test_alias_rows () =
  let i = E.sym "i" and j = E.sym "j" and t = E.sym "T" in
  let last = E.sub t E.one in
  let ij = [ S.range E.zero E.one; S.range E.zero last ] in
  (* the innermost parameter steps by 2 *)
  let ij2 =
    [ S.range E.zero E.one;
      S.range ~stride:(E.int 2) E.zero (E.mul (E.int 2) last) ]
  in
  let cases =
    [ (* exact alias: each iteration reads only the element it writes *)
      ( "in-place x[i,j] = 2.5 * x[i,j]", "expr", [ ("X", 2) ], ij,
        [ Build.in_elem "x" "X" [ i; j ] ], Build.out_elem "o" "X" [ i; j ],
        "o = 2.5 * x" );
      (* each iteration reads what the previous one wrote *)
      ( "shifted alias a[i+1] = 2.0 * a[i]", "expr", [ ("A", 1) ],
        [ S.range E.zero last ], [ Build.in_elem "x" "A" [ i ] ],
        Build.out_elem "o" "A" [ E.add i E.one ], "o = 2.0 * x" );
      (* the output does not move along the row: every iteration reads
         the element all of them accumulate into *)
      ( "stride-0 self-read under WCR-sum", "expr", [ ("S", 1); ("X", 2) ], ij,
        [ Build.in_elem "c" "S" [ i ]; Build.in_elem "x" "X" [ i; j ] ],
        Build.out_elem ~wcr:Wcr.sum "o" "S" [ i ], "o = c * x + 1.0" );
      (* the bare product is a contraction, kept in closure order by
         its own aliasing gate *)
      ( "stride-0 self-read under WCR-sum, bare product", "contract",
        [ ("S", 1); ("X", 2) ], ij,
        [ Build.in_elem "c" "S" [ i ]; Build.in_elem "x" "X" [ i; j ] ],
        Build.out_elem ~wcr:Wcr.sum "o" "S" [ i ], "o = c * x" ) ]
    (* an in-place operand beside a copied one, fused into the store
       alone and below a scale *)
    @ List.concat_map
        (fun (step, ranges) ->
          List.map
            (fun (kind, code) ->
              ( Fmt.str "mixed strides o[i,j] = a[i,j] + b[j,i], step %d: %s" step code,
                kind, [ ("A", 2); ("B", 2); ("O", 2) ], ranges,
                [ Build.in_elem "a" "A" [ i; j ]; Build.in_elem "b" "B" [ j; i ] ],
                Build.out_elem "o" "O" [ i; j ], code ))
            [ ("expr", "o = a + b"); ("expr", "o = (a + b) * 0.5") ])
        [ (1, ij); (2, ij2) ]
  in
  List.iter
    (fun (tag, kind, arrays, ranges, ins, out, code) ->
      let params = if List.length ranges = 1 then [ "i" ] else [ "i"; "j" ] in
      let build = alias_graph ~arrays ~params ~ranges ~ins ~outs:[ out ] ~code in
      List.iter
        (fun trips ->
          let symbols = [ ("T", trips) ] in
          Alcotest.(check (list (pair string int)))
            (Fmt.str "%s: lowers as %s" tag kind) [ (kind, 1) ]
            (fst (coverage build symbols));
          check_three_way (Fmt.str "%s at %d trips" tag trips) build symbols)
        [ 0; 1; Kernels.block - 1; Kernels.block; Kernels.block + 1 ])
    cases

(* --- contraction: four-row groups and scaled factors ------------------------ *)

let test_contract_groups () =
  let i = E.sym "i" and j = E.sym "j" and k = E.sym "k" in
  let mm = [ ("A", 2); ("B", 2); ("C", 2) ] in
  let cases =
    [ (* [a] stays put along [j]: read once per step, [b] at four lanes *)
      ( "c[i,j] += a[i,k] * b[k,j]", "contract", mm, [ "i"; "j"; "k" ],
        [ Build.in_elem "a" "A" [ i; k ]; Build.in_elem "b" "B" [ k; j ] ],
        Build.out_elem ~wcr:Wcr.sum "c" "C" [ i; j ], "c = a * b" );
      (* [b] stays put along [j] *)
      ( "shared b: c[i,j] += a[j,k] * b[i,k]", "contract", mm, [ "i"; "j"; "k" ],
        [ Build.in_elem "a" "A" [ j; k ]; Build.in_elem "b" "B" [ i; k ] ],
        Build.out_elem ~wcr:Wcr.sum "c" "C" [ i; j ], "c = a * b" );
      ( "negative output step: c[i,J-1-j] += a[i,k] * b[k,j]", "contract", mm,
        [ "i"; "j"; "k" ],
        [ Build.in_elem "a" "A" [ i; k ]; Build.in_elem "b" "B" [ k; j ] ],
        Build.out_elem ~wcr:Wcr.sum "c" "C" [ i; E.sub (E.sub (E.sym "J") E.one) j ],
        "c = a * b" );
      (* the grouped dimension is the one parallel chunks split *)
      ( "two dimensions: c[j] += a[j,k] * b[k]", "contract",
        [ ("A", 2); ("B", 1); ("C", 1) ], [ "j"; "k" ],
        [ Build.in_elem "a" "A" [ j; k ]; Build.in_elem "b" "B" [ k ] ],
        Build.out_elem ~wcr:Wcr.sum "c" "C" [ j ], "c = a * b" );
      (* the output does not move along [j]: one cell, never grouped *)
      ( "c[i] += a[i,j,k] * b[k]", "contract", [ ("A", 3); ("B", 1); ("C", 1) ],
        [ "i"; "j"; "k" ],
        [ Build.in_elem "a" "A" [ i; j; k ]; Build.in_elem "b" "B" [ k ] ],
        Build.out_elem ~wcr:Wcr.sum "c" "C" [ i ], "c = a * b" );
      (* the input reads cells the group accumulates into: never grouped *)
      ( "aliased: c[i,j] += c[i,k] * b[k,j]", "contract", [ ("B", 2); ("C", 2) ],
        [ "i"; "j"; "k" ],
        [ Build.in_elem "a" "C" [ i; k ]; Build.in_elem "b" "B" [ k; j ] ],
        Build.out_elem ~wcr:Wcr.sum "c" "C" [ i; j ], "c = a * b" );
      (* literal-scaled left factors, shared and at the lanes *)
      ( "c[i,j] += 1.5 * a[i,k] * b[k,j]", "contract", mm, [ "i"; "j"; "k" ],
        [ Build.in_elem "a" "A" [ i; k ]; Build.in_elem "b" "B" [ k; j ] ],
        Build.out_elem ~wcr:Wcr.sum "c" "C" [ i; j ], "c = 1.5 * a * b" );
      ( "c[i,j] += b[i,k] * 1.5 * a[j,k]", "contract", mm, [ "i"; "j"; "k" ],
        [ Build.in_elem "a" "A" [ j; k ]; Build.in_elem "b" "B" [ i; k ] ],
        Build.out_elem ~wcr:Wcr.sum "c" "C" [ i; j ], "c = b * 1.5 * a" );
      ( "c[i,j] += 1.5 * a[j,k] * b[i,k]", "contract", mm, [ "i"; "j"; "k" ],
        [ Build.in_elem "a" "A" [ j; k ]; Build.in_elem "b" "B" [ i; k ] ],
        Build.out_elem ~wcr:Wcr.sum "c" "C" [ i; j ], "c = 1.5 * a * b" );
      (* another grouping of the same product is not a contraction *)
      ( "c[i,j] += 1.5 * (a[i,k] * b[k,j])", "expr", mm, [ "i"; "j"; "k" ],
        [ Build.in_elem "a" "A" [ i; k ]; Build.in_elem "b" "B" [ k; j ] ],
        Build.out_elem ~wcr:Wcr.sum "c" "C" [ i; j ], "c = 1.5 * (a * b)" ) ]
  in
  (* [i] runs 2 trips, [j] J (the dimension just outside the reduction)
     and [k] R (the reduction) *)
  let range p =
    let upto n = S.range E.zero (E.sub n E.one) in
    match p with "i" -> upto (E.int 2) | "j" -> upto (E.sym "J") | _ -> upto (E.sym "R")
  in
  List.iter
    (fun (tag, kind, arrays, params, ins, out, code) ->
      let build =
        alias_graph ~symbols:[ "J"; "R" ] ~schedule:Defs.Cpu_multicore ~arrays
          ~params ~ranges:(List.map range params) ~ins ~outs:[ out ] ~code
      in
      List.iter
        (fun (jt, rt) ->
          let symbols = [ ("J", jt); ("R", rt) ] in
          Alcotest.(check (list (pair string int)))
            (Fmt.str "%s: lowers as %s" tag kind) [ (kind, 1) ]
            (fst (coverage build symbols));
          check_three_way ~domains:[ 1; 2 ]
            (Fmt.str "%s at J = %d, R = %d" tag jt rt)
            build symbols)
        (List.concat_map (fun jt -> [ (jt, 1); (jt, 16) ]) [ 1; 3; 4; 5; 8; 9 ]))
    cases

let test_float_binops_on_rows () =
  (* elementwise bodies are row-evaluator bodies: float [-], [/], [min],
     [max], [+] and [*], [2.5 * a + b] in its four spellings, and integer
     [+ - * min max], over an in-place [a] beside a copied [b]; then fused
     stores whose leaves are all read in place, so that the pass owns no
     row and runs whole rows.  Cases marked [long] also run at 3B+1
     trips, past one block: a copied [b] row must keep its blocks *)
  let i = E.sym "i" and j = E.sym "j" and t = E.sym "T" in
  let ij = [ S.range E.zero E.one; S.range E.zero (E.sub t E.one) ] in
  let a = Build.in_elem "a" "A" [ i; j ] and b = Build.in_elem "b" "B" [ i; j ] in
  let o = [ Build.out_elem "o" "O" [ i; j ] ] in
  let mixed ?(ints = []) ?(long = false) tag code =
    (tag ^ code, ints, [ a; Build.in_elem "b" "B" [ j; i ] ], o, code, long)
  in
  let cases =
    mixed ~long:true "" "o = a + b"
    :: List.map (mixed "")
         [ "o = a - b"; "o = a / b"; "o = min(a, b)"; "o = max(a, b)"; "o = a * b";
           "o = 2.5 * a + b"; "o = a * 2.5 + b"; "o = b + 2.5 * a"; "o = b + a * 2.5" ]
    @ List.map (mixed ~ints:[ "A"; "B"; "O" ] "I64 ")
        [ "o = a + b"; "o = a - b"; "o = a * b"; "o = min(a, b)"; "o = max(a, b)" ]
    @ [ ("rowless o = a + b", [], [ a; b ], o, "o = a + b", true);
        (* the fused store bumps its pointer backwards *)
        ( "rowless, backwards o[i, T-1-j] = a * b", [], [ a; b ],
          [ Build.out_elem "o" "O" [ i; E.sub (E.sub t E.one) j ] ], "o = a * b", true );
        ( "rowless, two outputs t = a - b; l = b", [], [ a; b ],
          [ Build.out_elem "t" "O" [ i; j ]; Build.out_elem "l" "L" [ i; j ] ],
          "t = a - b\nl = b", true );
        ( "rowless in place x[i,j] = x[i,j] / b", [],
          [ Build.in_elem "x" "O" [ i; j ]; b ], o, "o = x / b", true );
        (* a literal row is [block]-sized: this pass keeps its blocks *)
        ("literal operand o = a * 2.5", [], [ a ], o, "o = a * 2.5", true) ]
  in
  List.iter
    (fun (tag, ints, ins, outs, code, long) ->
      let arrays = [ ("A", 2); ("B", 2); ("O", 2) ] in
      let arrays = if List.length outs > 1 then ("L", 2) :: arrays else arrays in
      (* unit steps only: [T + 2] holds every subscript *)
      let build =
        alias_graph ~ext:(E.add t (E.int 2)) ~schedule:Defs.Cpu_multicore ~ints ~arrays
          ~params:[ "i"; "j" ] ~ranges:ij ~ins ~outs ~code
      in
      List.iter
        (fun trips ->
          let symbols = [ ("T", trips) ] in
          Alcotest.(check (list (pair string int)))
            (Fmt.str "%s: lowers as expr" tag) [ ("expr", 1) ]
            (fst (coverage build symbols));
          check_three_way ~domains:[ 1; 2 ]
            (Fmt.str "%s at %d trips" tag trips)
            build symbols)
        ([ 0; 1; Kernels.block - 1; Kernels.block; Kernels.block + 1 ]
        @ if long then [ (3 * Kernels.block) + 1 ] else []))
    cases

(* --- straight-line bodies: locals, several outputs, fused stores ------------ *)

(* A 2 x T map over float arrays A, B, C, O, L and the I64 array N. *)
let straight_graph ~ins ~outs ~code =
  alias_graph ~schedule:Defs.Cpu_multicore ~ints:[ "N" ]
    ~arrays:[ ("A", 2); ("B", 2); ("C", 2); ("O", 2); ("L", 2); ("N", 2) ]
    ~params:[ "i"; "j" ]
    ~ranges:[ S.range E.zero E.one; S.range E.zero (E.sub (E.sym "T") E.one) ]
    ~ins ~outs ~code

let test_straight_line_rows () =
  let i = E.sym "i" and j = E.sym "j" in
  let a = Build.in_elem "a" "A" [ i; j ]
  and b = Build.in_elem "b" "B" [ j; i ]
  and c = Build.in_elem "c" "C" [ i; j ]
  and o = Build.out_elem "o" "O" [ i; j ] in
  let cases =
    [ ( "two outputs t = a + b; l = a * c", [ a; b; c ],
        [ Build.out_elem "t" "O" [ i; j ]; Build.out_elem "l" "L" [ i; j ] ],
        "t = a + b\nl = a * c" );
      ( "two outputs, l under WCR-sum", [ a; b; c ],
        [ Build.out_elem "t" "O" [ i; j ];
          Build.out_elem ~wcr:Wcr.sum "l" "L" [ i; E.zero ] ],
        "t = a + b\nl = a * c" );
      ( "an integer output beside a float one", [ a; b ],
        [ Build.out_elem "t" "O" [ i; j ]; Build.out_elem "n" "N" [ i; j ] ],
        "t = a * b\nn = floor(a * 4.0) - i" );
      ("locals u = a * b; o = u + u", [ a; b ], [ o ], "u = a * b\no = u + u");
      ("a local redefined", [ a ], [ o ], "u = a\nu = u * 2.0\no = u");
      (* correlation's [sd_sqrt]: in place, the local read twice *)
      ( "sd_sqrt in place", [ Build.in_elem "sd" "O" [ i; j ] ], [ o ],
        "t = sqrt(sd / T)\no = 1.0 if t <= 0.1 else t" ) ]
    (* the top operator runs in the store loop *)
    @ List.map
        (fun code -> ("fused store " ^ code, [ a; b ], [ o ], code))
        [ "o = (a - b) + b"; "o = a - b * 1.5"; "o = (a + b) * b";
          "o = a / (b + 1.0)" ]
    @ [ ( "fused store in place x[i,j] = x[i,j] * 0.5",
          [ Build.in_elem "x" "O" [ i; j ] ], [ o ], "o = x * 0.5" ) ]
  in
  List.iter
    (fun (tag, ins, outs, code) ->
      let build = straight_graph ~ins ~outs ~code in
      List.iter
        (fun trips ->
          let symbols = [ ("T", trips) ] in
          Alcotest.(check (pair (list (pair string int)) (list (pair string int))))
            (Fmt.str "%s: lowers as expr" tag) ([ ("expr", 1) ], [])
            (coverage build symbols);
          check_three_way ~domains:[ 1; 2 ]
            (Fmt.str "%s at %d trips" tag trips)
            build symbols)
        [ 0; 1; Kernels.block - 1; Kernels.block; Kernels.block + 1 ])
    cases

(* Reference, closure path and kernel path on one hand-built environment
   each ({!run_env}): the same outcome, counters and output bits, also
   when the run raises. *)
let check_same_outcome tag build symbols =
  let run engine kernels =
    let g = build () in
    let args = Profile.make_args ~symbols g in
    let outcome, counters = run_env ~engine ~kernels g symbols args in
    (outcome, counters, List.map (fun (_, t) -> tensor_bits t) args)
  in
  let want = run Plan.reference false in
  List.iter
    (fun (path, kernels) ->
      Alcotest.(check (triple string (list int) (list (list int64))))
        (Fmt.str "%s: %s path == reference" tag path)
        want (run Plan.compiled kernels))
    [ ("closure", false); ("kernel", true) ];
  let outcome, _, _ = want in
  outcome

let test_straight_line_closure () =
  let i = E.sym "i" and j = E.sym "j" in
  let a = Build.in_elem "a" "A" [ i; j ] and b = Build.in_elem "b" "B" [ j; i ] in
  let two = [ Build.out_elem "t" "O" [ i; j ]; Build.out_elem "l" "L" [ i; j ] ] in
  let doubling =
    "u = a + a\n" ^ String.concat "" (List.init 6 (fun _ -> "u = u + u\n"))
    ^ "t = u\nl = b"
  in
  List.iter
    (fun (tag, reason, ins, outs, code) ->
      let build = straight_graph ~ins ~outs ~code in
      Alcotest.(check (pair (list (pair string int)) (list (pair string int))))
        (tag ^ ": closure path") ([], [ (reason, 1) ])
        (coverage build [ ("T", 0) ]);
      List.iter
        (fun trips ->
          ignore
            (check_same_outcome (Fmt.str "%s at %d trips" tag trips) build
               [ ("T", trips) ]))
        [ 1; Kernels.block + 1 ])
    [ ( "two outputs into one buffer", "aliased", [ a; b ],
        [ Build.out_elem "t" "O" [ i; j ];
          Build.out_elem "l" "O" [ i; E.add j E.one ] ],
        "t = a + b\nl = a * b" );
      ( "an input aliasing an output", "aliased",
        [ Build.in_elem "a" "L" [ i; j ]; b ], two, "t = a + b\nl = a * b" );
      ("an output read back", "reads-output", [ a ], two, "t = a\nl = t * 2.0");
      ("an output assigned twice", "out-mismatch", [ a; b ], two, "t = a\nt = b\nl = a");
      ( "an assignment to an input connector", "out-mismatch", [ a; b ], two,
        "a = 1.0\nt = b\nl = b" );
      ("an assignment to a symbol", "out-mismatch", [ a; b ], two, "T = 1.0\nt = a\nl = b");
      ("an unread local", "out-mismatch", [ a; b ], two, "u = a / b\nt = a\nl = b");
      ( Fmt.str "inlined values over %d nodes" Tasklang.Bodyclass.max_nodes,
        "multi-stmt", [ a; b ], two, doubling ) ]

let test_second_output_oob () =
  (* [l]'s subscript [i + 1] leaves [L] (N elements) at the last
     iteration: the corner check defers to the closure nest before
     anything is written.  At N = 0 all three arrays are empty, and
     empty buffers alias nothing: the body still lowers *)
  let build () =
    let g, st = Build.single_state ~symbols:[ "N" ] "oob2" in
    let n = E.sym "N" and i = E.sym "i" in
    List.iter
      (fun a -> Sdfg.add_array g a ~shape:[ n ] ~dtype:T.F64)
      [ "A"; "O"; "L" ];
    ignore
      (Build.mapped_tasklet g st ~name:"w" ~params:[ "i" ]
         ~ranges:[ S.range E.zero (E.sub n E.one) ]
         ~ins:[ Build.in_elem "a" "A" [ i ] ]
         ~outs:[ Build.out_elem "t" "O" [ i ]; Build.out_elem "l" "L" [ E.add i E.one ] ]
         ~code:(`Src "t = a + 1.0\nl = a * 2.0") ());
    Build.finalize g
  in
  Alcotest.(check (list (pair string int)))
    "lowers at N = 0: empty buffers do not alias" [ ("expr", 1) ]
    (fst (coverage build [ ("N", 0) ]));
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Fmt.str "the reference's bounds error at N = %d" n)
        (Fmt.str
           {|Interp.Tensor.Bounds("view: dimension 0 out of range (start %d count 1)")|}
           n)
        (check_same_outcome (Fmt.str "N = %d" n) build [ ("N", n) ]))
    [ 1; Kernels.block; Kernels.block + 1 ]

let suite =
  [ ("Tensor.fill: dense and strided", `Quick, test_tensor_fill);
    ("engines workloads lower to expected kinds", `Quick,
      test_recognized_kinds);
    ("~kernels:false keeps the closure path", `Quick, test_kernels_disabled);
    ("non-affine subscript falls back with reason", `Quick,
      test_nonaffine_fallback);
    ("engines workloads: kernel == closure at 1/2/4 domains", `Quick,
      test_engines_workload_paths);
    ("failed bounds pre-check defers to the closure nest", `Quick,
      test_oob_same_error);
    ("zero-trip launch no-ops", `Quick, test_zero_trip_kernel);
    ("corpus repros pass the kernel oracle", `Quick, test_corpus_kernels) ]
  @ List.map
      (fun c ->
        let name, _, _, _ = c in
        ( Fmt.str "fixture %s: kernel == closure at 1/2/4 domains" name,
          `Quick, test_fixture_paths c ))
      Test_crossval.fixture_cases
  @ List.map
      (fun name ->
        ( Fmt.str "polybench %s: kernel == closure at 1/2/4 domains" name,
          `Quick, test_polybench_paths name ))
      Workloads.Polybench.names
  @ [ ("expr rows around the block size", `Quick, test_expr_rows);
      ("gather/scatter out of range: the reference's error", `Quick,
        test_indirect_oob_same_error);
      ("aliased indirect body stays on the closure path", `Quick,
        test_indirect_alias_closure);
      ("scatter WCR over duplicate targets at 1/2/4 domains", `Quick,
        test_scatter_duplicates_domains);
      ("windowed input counters match the closure path", `Quick,
        test_windowed_counters);
      ("aliased and mixed-stride rows: kernel == closure == reference",
        `Quick, test_alias_rows);
      ("contraction groups and scaled factors: kernel == closure == \
        reference at 1/2 domains", `Quick, test_contract_groups);
      ("float -, /, min, max bodies on the rows: kernel == closure == \
        reference at 1/2 domains", `Quick, test_float_binops_on_rows);
      ("straight-line bodies, several outputs and fused stores: kernel == \
        closure == reference at 1/2 domains", `Quick, test_straight_line_rows);
      ("straight-line bodies the rows refuse keep their reason codes", `Quick,
        test_straight_line_closure);
      ("out-of-range second output: the reference's error", `Quick,
        test_second_output_oob) ]
