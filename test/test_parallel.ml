(* Determinism of multicore map execution (ISSUE: parallel battery).

   The guarantee under test: running the compiled engine at 1, 2 and 4
   domains yields byte-identical output tensors and identical
   instrumentation counter totals (timer values excluded — they are wall
   clock).  The single exception is a float container on the
   WCR-accumulate path, where per-domain private accumulators legally
   reorder the float reduction: there the result is still deterministic
   for a fixed domain count (two runs agree bit-for-bit) and
   approx-equal to sequential.  Integer accumulators and all
   Disjoint/Private verdicts stay bit-identical at every domain count. *)

module T = Tasklang.Types
module R = Obs.Report
module Races = Analysis.Races
open Sdfg_ir
open Interp

let tensor_bits = Test_crossval.tensor_bits
let counter_list = Test_crossval.counter_list

(* Compiled engine pinned to an explicit domain count. *)
let compiled_at domains =
  Exec.Config.(
    default |> with_engine Plan.compiled |> with_domains domains)

let check_bits tag a b =
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) (tag ^ ": argument order") n1 n2;
      Alcotest.(check (list int64))
        (Fmt.str "%s: %S byte-identical" tag n1)
        (tensor_bits t1) (tensor_bits t2))
    a b

let check_approx tag a b =
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) (tag ^ ": argument order") n1 n2;
      Alcotest.(check bool)
        (Fmt.str "%s: %S approx-equal" tag n1)
        true
        (Tensor.approx_equal t1 t2))
    a b

(* Does any map of [g] get the float-accumulate verdict?  Only that path
   may reorder a reduction; everything else must stay bit-exact. *)
let float_accumulate g =
  List.exists
    (fun r ->
      match r.Races.mr_verdict with
      | Races.Parallel { accumulate = (_ :: _) as acc; _ } ->
        List.exists
          (fun (n, _) -> T.is_float (Defs.ddesc_dtype (Sdfg.desc g n)))
          acc
      | _ -> false)
    (Races.analyze g)

(* --- every Polybench kernel at 1/2/4 domains ---------------------------- *)

let run_polybench (k : Workloads.Polybench.kernel) ~domains =
  let g = k.k_build () in
  let args = Test_polybench.alloc_args g k.k_mini in
  let report =
    Exec.run g ~config:(compiled_at domains) ~symbols:k.k_mini ~args
  in
  (args, report)

let test_kernel_domains name () =
  let k = Workloads.Polybench.find name in
  let approx = float_accumulate (k.Workloads.Polybench.k_build ()) in
  let base_args, base_r = run_polybench k ~domains:1 in
  List.iter
    (fun d ->
      let args, r = run_polybench k ~domains:d in
      (* counter totals are independent of the domain count *)
      Alcotest.(check (list int))
        (Fmt.str "%s: counters stable at %d domains" name d)
        (counter_list base_r.R.r_counters)
        (counter_list r.R.r_counters);
      (* fixed domain count: repeat runs are byte-identical *)
      let args2, _ = run_polybench k ~domains:d in
      check_bits (Fmt.str "%s: repeat run at %d domains" name d) args args2;
      (* against sequential: bit-exact unless a float accumulator *)
      if approx then
        check_approx (Fmt.str "%s: %d domains vs sequential" name d)
          base_args args
      else
        check_bits (Fmt.str "%s: %d domains vs sequential" name d)
          base_args args)
    [ 2; 4 ]

(* --- all fixture graphs: parallel == sequential, bit for bit ------------- *)

let test_fixture_domains (name, build, symbols, args) () =
  (* none of the fixtures has a float-accumulate map (checked below), so
     equality is exact even for matmul_wcr — its WCR writes are disjoint
     along the chunked parameter *)
  Alcotest.(check bool)
    (name ^ ": no float-accumulate maps")
    false
    (float_accumulate (build ()));
  let run ~domains =
    let g = build () in
    let a = args () in
    ignore (Exec.run g ~config:(compiled_at domains) ~symbols ~args:a);
    a
  in
  let base = run ~domains:1 in
  List.iter
    (fun d ->
      check_bits (Fmt.str "%s: %d domains vs sequential" name d) base
        (run ~domains:d))
    [ 2; 4 ]

(* --- regression corpus through the parallel oracle ----------------------- *)

let test_corpus_parallel () =
  let read path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.iter
    (fun path ->
      let g = Serialize.of_string (read path) in
      match Fuzz.Oracle.check Fuzz.Oracle.Parallel_crossval g with
      | Fuzz.Oracle.Fail m -> Alcotest.failf "%s: %s" path m
      | Fuzz.Oracle.Pass _ | Fuzz.Oracle.Skip _ -> ())
    (Test_fuzz.corpus_files ())

(* --- pinned policy regressions ------------------------------------------- *)

(* Two shrunk pathologies the predictive policy must keep sequential
   forever: a four-iteration map whose fork barrier dwarfs its work
   (chunk-granularity pathology), and a WCR map whose privatized
   1M-element accumulator would be rescanned once per domain at the
   merge (accumulator-merge pathology).  Both also replay through every
   oracle via the corpus test above; by hand:

     dune exec bin/sdfg_cli.exe -- fuzz \
       --replay test/corpus/parallel_chunk_tiny_map.sdfg
     dune exec bin/sdfg_cli.exe -- fuzz \
       --replay test/corpus/parallel_merge_large_accumulator.sdfg *)
let test_policy_pinned_regressions () =
  let read path =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  List.iter
    (fun path ->
      let g = Serialize.of_string (read path) in
      let args = Profile.make_args ~symbols:[] g in
      let r =
        Exec.run g
          ~config:
            Exec.Config.(
              default |> with_engine Plan.compiled
              |> with_auto_domains ~cap:4)
          ~symbols:[] ~args
      in
      match r.R.r_parallel with
      | None -> Alcotest.failf "%s: no parallel section" path
      | Some p ->
        Alcotest.(check bool)
          (path ^ ": has a policy decision")
          true
          (p.R.par_decisions <> []);
        List.iter
          (fun d ->
            Alcotest.(check int)
              (Fmt.str "%s: map %s stays sequential" path d.R.pm_map)
              1 d.R.pm_domains;
            Alcotest.(check string)
              (Fmt.str "%s: map %s priced unprofitable" path d.R.pm_map)
              "below-threshold" d.R.pm_reason)
          p.R.par_decisions)
    [ "corpus/parallel_chunk_tiny_map.sdfg";
      "corpus/parallel_merge_large_accumulator.sdfg" ]

(* Reports are snapshots.  Under the predictive policy gemm's maps carry
   decision records; an instance's second run (other inputs) and a third
   that fails after resetting the live counters and decisions must leave
   the first report as it was. *)
let test_report_snapshot () =
  let k = Workloads.Polybench.find "gemm" in
  let g = k.Workloads.Polybench.k_build () in
  let inst =
    Exec.Instance.create g ~symbols:k.k_mini
      ~config:
        Exec.Config.(
          default |> with_engine Plan.compiled |> with_auto_domains ~cap:4)
  in
  let args = Test_polybench.alloc_args g k.k_mini in
  let r1 = Exec.Instance.run inst ~args in
  let decisions (r : R.t) =
    match r.R.r_parallel with Some p -> p.R.par_decisions | None -> []
  in
  Alcotest.(check bool) "gemm has policy decisions" true (decisions r1 <> []);
  let view () =
    Fmt.str "%a | %s" R.pp_counters r1.R.r_counters
      (String.concat "; "
         (List.map
            (fun d ->
              Fmt.str "%s %d %s %d %d" d.R.pm_map d.R.pm_domains
                d.R.pm_reason d.R.pm_trips d.R.pm_invocations)
            (decisions r1)))
  in
  let before = view () in
  let doubled =
    List.map
      (fun (n, t) ->
        ( n,
          Tensor.init (Tensor.dtype t) (Array.copy (Tensor.shape t)) (fun ix ->
              match Tensor.get t ix with
              | T.F x -> T.F (2. *. x)
              | T.I x -> T.I (2 * x)
              | v -> v) ))
      args
  in
  ignore (Exec.Instance.run inst ~args:doubled);
  Alcotest.(check string) "unchanged by a second run" before (view ());
  let name, _ = List.hd args in
  let misfit = Tensor.create T.F64 [| 1 |] in
  (match Exec.Instance.run inst ~args:[ (name, misfit) ] with
  | exception Exec.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected a shape mismatch");
  Alcotest.(check string) "unchanged by a failed run" before (view ())

(* --- runtime corners ----------------------------------------------------- *)

module E = Symbolic.Expr
module S = Symbolic.Subset
open Builder

let corner_graph ~stride =
  let g, st = Build.single_state ~symbols:[ "N" ] "corner" in
  let n = E.sym "N" in
  Sdfg.add_array g "X" ~shape:[ E.int 8 ] ~dtype:T.F64;
  ignore
    (Build.mapped_tasklet g st ~name:"w" ~schedule:Defs.Cpu_multicore
       ~params:[ "i" ]
       ~ranges:[ S.range ~stride (E.zero) (E.sub n E.one) ]
       ~ins:[]
       ~outs:[ Build.out_elem "x" "X" [ E.sym "i" ] ]
       ~code:(`Src "x = 1.0") ());
  Build.finalize g

let test_zero_trip_parallel () =
  (* N = 0: the parallel dispatcher must no-op, leaving X untouched *)
  let g = corner_graph ~stride:E.one in
  let x = Tensor.init T.F64 [| 8 |] (fun _ -> T.F 7.) in
  let r =
    Exec.run g ~config:(compiled_at 4) ~symbols:[ ("N", 0) ]
      ~args:[ ("X", x) ]
  in
  List.iter
    (fun v -> Alcotest.(check (float 0.)) "X untouched" 7. v)
    (Tensor.to_float_list x);
  Alcotest.(check int) "no tasklets ran" 0 r.R.r_counters.R.tasklet_execs

let test_nonpositive_stride_parallel () =
  (* the parallel path evaluates bounds like the sequential one and must
     raise the same located error, not deadlock or scribble *)
  let g = corner_graph ~stride:(E.int (-1)) in
  let x = Tensor.create T.F64 [| 8 |] in
  match
    Exec.run g ~config:(compiled_at 4) ~symbols:[ ("N", 8) ]
      ~args:[ ("X", x) ]
  with
  | exception Exec.Runtime_error msg ->
    let contains sub =
      let n = String.length msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Fmt.str "error names the stride: %s" msg)
      true
      (contains "non-positive stride")
  | _ -> Alcotest.fail "expected Runtime_error for stride -1"

(* Chunks dealt to the pool: a disjoint map on the closure path deals
   min(trips, 4 * workers) chunks from its cursor, a kernel map one
   block per worker. *)
let test_chunk_tally () =
  let dispatch ~kernels ~n ~domains =
    let g = Workloads.Kernels.copy () in
    let symbols = [ ("N", n) ] in
    let r =
      Exec.run g
        ~config:Exec.Config.(compiled_at domains |> with_kernels kernels)
        ~symbols ~args:(Profile.make_args ~symbols g)
    in
    match r.R.r_parallel with
    | Some p -> (p.R.par_maps, p.R.par_chunks)
    | None -> (0, 0)
  in
  List.iter
    (fun w ->
      List.iter
        (fun n ->
          let workers = min n w in
          Alcotest.(check (pair int int))
            (Fmt.str "closure path, N=%d at %d domains" n w)
            (1, min n (4 * workers))
            (dispatch ~kernels:false ~n ~domains:w);
          Alcotest.(check (pair int int))
            (Fmt.str "kernel map, N=%d at %d domains" n w)
            (1, workers)
            (dispatch ~kernels:true ~n ~domains:w))
        [ 6; 100 ])
    [ 2; 4 ]

let suite =
  [ ("zero-trip map at 4 domains no-ops", `Quick, test_zero_trip_parallel);
    ("non-positive stride raises at 4 domains", `Quick,
      test_nonpositive_stride_parallel);
    ("corpus repros: parallel == sequential", `Quick, test_corpus_parallel);
    ("pinned pathologies: policy predicts 1 domain", `Quick,
      test_policy_pinned_regressions);
    ("reports are snapshots across instance runs", `Quick,
     test_report_snapshot) ]
  @ List.map
      (fun c ->
        let name, _, _, _ = c in
        ( Fmt.str "fixture %s: 1/2/4 domains agree" name, `Quick,
          test_fixture_domains c ))
      Test_crossval.fixture_cases
  @ List.map
      (fun name ->
        ( Fmt.str "polybench %s: 1/2/4 domains deterministic" name, `Quick,
          test_kernel_domains name ))
      Workloads.Polybench.names
  @ [ ("chunk tally of closure and kernel maps", `Quick, test_chunk_tally) ]
