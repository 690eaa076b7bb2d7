(* Machine-model tests: the cost engine must respond to program structure
   the way real hardware responds — tiling reduces traffic, parallelism
   reduces time, offloading adds copies, peeling removes atomics. *)

module E = Symbolic.Expr
module S = Symbolic.Subset
module Cost = Machine.Cost
module Spec = Machine.Spec
open Sdfg_ir
open Builder

let spec = Spec.paper_testbed
let mm_sizes = [ ("M", 1024); ("N", 1024); ("K", 1024) ]

let est ?(opts = Cost.default_options) ?(target = Cost.Tcpu)
    ?(symbols = mm_sizes) g =
  Cost.estimate ~opts ~spec ~target ~symbols g

let test_parallel_faster_than_sequential () =
  let g = Workloads.Kernels.matmul () in
  let par = (est g).Cost.r_time_s in
  let seq =
    (est ~opts:{ Cost.default_options with Cost.force_sequential = true } g)
      .Cost.r_time_s
  in
  Alcotest.(check bool)
    (Fmt.str "parallel %.3f < sequential %.3f" par seq)
    true (par < seq)

let test_tiling_reduces_traffic () =
  let untiled = Workloads.Kernels.matmul () in
  let before = (est untiled).Cost.r_acct.Cost.bytes in
  let tiled = Workloads.Kernels.matmul () in
  let x = Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ 64 ] in
  let cand =
    x.Transform.Xform.x_find tiled
    |> List.find (fun c ->
           Sdfg_ir.State.label
             (Sdfg_ir.Sdfg.state tiled c.Transform.Xform.c_state)
           = "main")
  in
  Transform.Xform.apply tiled x cand;
  let after = (est tiled).Cost.r_acct.Cost.bytes in
  Alcotest.(check bool)
    (Fmt.str "tiled traffic %.3g < untiled %.3g" after before)
    true
    (after < before /. 4.)

let test_gpu_offload_pays_copies () =
  let g = Workloads.Kernels.matmul () in
  Transform.Xform.apply_first_exn g Transform.Device_xforms.gpu_transform;
  let r = est ~target:Cost.Tgpu g in
  (* exactly A, B (in), C (in+out) at 8 MB each = 33.5 MB *)
  Alcotest.(check bool) "copy volume from propagated memlets" true
    (Float.abs (r.Cost.r_acct.Cost.copies -. (4. *. 1024. *. 1024. *. 8.))
     < 1e6)

let test_peeling_removes_atomics () =
  let g = Workloads.Kernels.histogram () in
  let symbols = [ ("H", 2048); ("W", 2048) ] in
  let before = (est ~symbols g).Cost.r_acct.Cost.atomics in
  Alcotest.(check bool) "histogram has conflicting commits" true (before > 0.);
  Transform.Xform.apply_first_exn g Transform.Data_xforms.accumulate_transient;
  let after = (est ~symbols g).Cost.r_acct.Cost.atomics in
  Alcotest.(check bool) "privatization removes them" true (after = 0.)

let test_vectorization_speeds_compute () =
  let g = Fixtures.vector_add () in
  let symbols = [ ("N", 1 lsl 16) ] in
  let scalar = (est ~symbols g).Cost.r_compute_s in
  Transform.Xform.apply_first_exn g
    (Transform.Map_xforms.vectorization_width ~width:4);
  let vec = (est ~symbols g).Cost.r_compute_s in
  Alcotest.(check bool)
    (Fmt.str "vector compute %.3g < scalar %.3g" vec scalar)
    true (vec < scalar)

let test_state_visit_counting () =
  (* the laplace time loop runs T times; flops must scale with T *)
  let flops t =
    (est
       ~symbols:[ ("N", 256); ("T", t) ]
       (Fixtures.laplace ()))
      .Cost.r_flops
  in
  let f10 = flops 10 and f40 = flops 40 in
  Alcotest.(check bool)
    (Fmt.str "flops scale with T (%.3g vs %.3g)" f10 f40)
    true
    (Float.abs ((f40 /. f10) -. 4.) < 0.2)

let test_triangular_visits () =
  (* cholesky work is ~N^3/3: per-visit evaluation with the loop symbol
     bound must give super-linear scaling in N *)
  let flops n =
    (est ~symbols:[ ("N", n) ]
       ((Workloads.Polybench.find "cholesky").Workloads.Polybench.k_build ()))
      .Cost.r_flops
  in
  let r = flops 256 /. flops 128 in
  Alcotest.(check bool) (Fmt.str "cholesky flops ratio %.2f ~ 8" r) true
    (r > 5. && r < 12.)

let test_indirection_classified_random () =
  let g = Workloads.Kernels.spmv () in
  let r =
    est
      ~opts:{ Cost.default_options with Cost.hints = [ ("row_dot", 64.) ] }
      ~symbols:[ ("H", 4096); ("W", 4096); ("nnz", 262144) ]
      g
  in
  Alcotest.(check bool) "x gathers are random-access" true
    (r.Cost.r_acct.Cost.rand_bytes > 0.);
  Alcotest.(check bool) "CSR scans stream" true
    (r.Cost.r_acct.Cost.bytes +. r.Cost.r_acct.Cost.dyn_bytes
     > r.Cost.r_acct.Cost.rand_bytes)

let test_fpga_pipelining () =
  let g = Fixtures.vector_add () in
  Transform.Xform.apply_first_exn g Transform.Device_xforms.fpga_transform;
  let symbols = [ ("N", 1 lsl 20) ] in
  let pipelined = (est ~target:Cost.Tfpga ~symbols g).Cost.r_time_s in
  let naive =
    (est ~target:Cost.Tfpga ~symbols
       ~opts:{ Cost.default_options with Cost.naive_fpga = true }
       g)
      .Cost.r_time_s
  in
  Alcotest.(check bool)
    (Fmt.str "pipelined %.4f << naive HLS %.4f" pipelined naive)
    true
    (naive > 4. *. pipelined)

let test_baseline_ordering () =
  (* for an embarrassingly parallel compute-heavy kernel:
     SDFG (parallel) < ICC < GCC <= Clang *)
  let g () = Workloads.Kernels.matmul () in
  let t b = (Baselines.evaluate ~spec b ~symbols:mm_sizes (g ())).Cost.r_time_s in
  let sdfg = t Baselines.sdfg_cpu
  and gcc = t Baselines.gcc
  and clang = t Baselines.clang
  and icc = t Baselines.icc in
  Alcotest.(check bool) "SDFG fastest" true (sdfg < icc);
  Alcotest.(check bool) "icc <= gcc" true (icc <= gcc);
  Alcotest.(check bool) "gcc <= clang" true (gcc <= clang)

let test_report_consistency () =
  let r = est (Workloads.Kernels.matmul ()) in
  Alcotest.(check bool) "time >= max(compute, memory)" true
    (r.Cost.r_time_s >= Float.max r.Cost.r_compute_s r.Cost.r_memory_s);
  Alcotest.(check bool) "positive flops" true (r.Cost.r_flops > 0.)

(* --- symbols a state reads --------------------------------------------- *)

(* An inner SDFG whose one map runs [0 : sym - 1] at one flop per
   iteration, writing its array [x]. *)
let counting_sdfg sym =
  let g = Sdfg.create ~symbols:[ sym ] "count" in
  let m = E.sym sym in
  Sdfg.add_array g "x" ~shape:[ m ] ~dtype:Tasklang.Types.F64;
  let st = Sdfg.add_state g () in
  ignore
    (Build.mapped_tasklet g st ~name:"tick" ~params:[ "i" ]
       ~ranges:[ S.range E.zero (E.sub m E.one) ]
       ~ins:[] ~outs:[ Build.out_elem "o" "x" [ E.sym "i" ] ]
       ~code:(`Src "o = 1.0 + 1.0") ());
  g

(* A state that holds [counting_sdfg sym] with [sym := e] and writes
   [Y]. *)
let invoke_counting st sym e =
  let nest =
    Build.nested st ~sdfg:(counting_sdfg sym) ~inputs:[] ~outputs:[ "x" ]
      ~symbol_map:[ (sym, e) ] ()
  in
  Build.edge st ~src_conn:"x"
    ~memlet:(Memlet.full "Y" [ E.sym "N" ])
    ~src:nest ~dst:(Build.access st "Y") ()

let test_nested_symbol_map_wins () =
  (* the mapped N := N / 2 shadows the outer N, as in the interpreter *)
  let g, st = Build.single_state ~symbols:[ "N" ] "outer" in
  Sdfg.add_array g "Y" ~shape:[ E.sym "N" ] ~dtype:Tasklang.Types.F64;
  invoke_counting st "N" (E.div (E.sym "N") (E.int 2));
  let flops = (est ~symbols:[ ("N", 1000) ] g).Cost.r_flops in
  let alone = (est ~symbols:[ ("N", 500) ] (counting_sdfg "N")).Cost.r_flops in
  Alcotest.(check (float 0.)) "inner priced at N = 500" 500. flops;
  Alcotest.(check (float 0.)) "as the inner SDFG alone" alone flops

(* A loop [t = 0 .. T - 1] around a body state built by [body].  The
   loop symbol [t] appears in the body only where [body] puts it. *)
let loop_over_t body =
  let g = Sdfg.create ~symbols:[ "N"; "T" ] "loop" in
  Sdfg.add_array g "Y" ~shape:[ E.sym "N" ] ~dtype:Tasklang.Types.F64;
  let init = Sdfg.add_state g ~label:"init" () in
  let st = Sdfg.add_state g ~label:"body" () in
  body g st;
  let t = E.sym "t" in
  ignore
    (Sdfg.add_transition g ~src:(State.id init) ~dst:(State.id st)
       ~assign:[ ("t", E.zero) ] ());
  ignore
    (Sdfg.add_transition g ~src:(State.id st) ~dst:(State.id st)
       ~cond:(Bexp.lt (E.add t E.one) (E.sym "T"))
       ~assign:[ ("t", E.add t E.one) ] ());
  g

let loop_report t_trips body =
  est ~symbols:[ ("N", 64); ("T", t_trips) ] (loop_over_t body)

(* What each body below costs depends on [t].  Priced at one sample
   only, every visit would cost what the last visit does: the samples
   start from it. *)

let test_reads_tasklet_for_bound () =
  let r =
    loop_report 20 (fun g st ->
        ignore
          (Build.simple_tasklet g st ~name:"count_to_t" ~ins:[]
             ~outs:[ Build.out_elem "o" "Y" [ E.zero ] ]
             ~code:(`Src "o = 0.0\nfor k in 0:t { o = o + 1.0 }") ()))
  in
  (* 0 + 1 + ... + 19 *)
  Alcotest.(check (float 0.)) "flops summed over t" 190. r.Cost.r_flops

let test_reads_transient_shape () =
  let r =
    loop_report 1024 (fun g st ->
        (* 8 (t + 1) bytes: cache-resident up to t = 511 *)
        Sdfg.add_array g "tmp" ~transient:true
          ~shape:[ E.add (E.sym "t") E.one ] ~dtype:Tasklang.Types.F64;
        ignore
          (Build.simple_tasklet g st ~name:"touch_tmp" ~ins:[]
             ~outs:[ Build.out_elem "o" "tmp" [ E.zero ] ]
             ~code:(`Src "o = 1.0") ()))
  in
  (* 32 samples of the 1,024 visits, 16 of them past t = 511, each 8
     bytes, scaled by 32 *)
  Alcotest.(check (float 0.)) "bytes once the transient spills" 4096.
    r.Cost.r_bytes

let test_reads_nested_symbol_map () =
  let r =
    loop_report 20 (fun _ st -> invoke_counting st "M" (E.sym "t"))
  in
  Alcotest.(check (float 0.)) "inner flops summed over t" 190. r.Cost.r_flops

(* --- the model's numbers, pinned ---------------------------------------- *)

(* One line per program, size and target: [%h] of the time, flops and
   bytes, so any change to what the model computes shows as a diff. *)
let estimate_line name ~opts ~symbols g =
  List.map
    (fun (tname, target) ->
      match Cost.estimate ~opts ~spec ~target ~symbols g with
      | r ->
        Printf.sprintf "%s %s: time %h flops %h bytes %h\n" name tname
          r.Cost.r_time_s r.Cost.r_flops r.Cost.r_bytes
      | exception Cost.Cost_error msg ->
        Printf.sprintf "%s %s: error %s\n" name tname msg)
    [ ("cpu", Cost.Tcpu); ("gpu", Cost.Tgpu); ("fpga", Cost.Tfpga) ]
  |> String.concat ""

let test_estimates_golden () =
  let polybench =
    List.concat_map
      (fun (k : Workloads.Polybench.kernel) ->
        List.map
          (fun (size, symbols) ->
            estimate_line
              (k.k_name ^ " " ^ size)
              ~opts:{ Cost.default_options with hints = k.k_hints symbols }
              ~symbols (k.k_build ()))
          [ ("large", k.k_large); ("mini", k.k_mini) ])
      Workloads.Polybench.all
  in
  let scenarios =
    [ estimate_line "cfd-batched"
        ~opts:{ Cost.default_options with hints = Workloads.Cfd.hints }
        ~symbols:Workloads.Cfd.paper (Workloads.Cfd.batched ());
      estimate_line "attention"
        ~opts:{ Cost.default_options with hints = Workloads.Attention.hints }
        ~symbols:Workloads.Attention.attention_paper
        (Workloads.Attention.base ()) ]
  in
  let fuzz =
    List.init 500 (fun seed ->
        let g = Fuzz.Gen.generate seed in
        estimate_line
          (Printf.sprintf "fuzz %d" seed)
          ~opts:Cost.default_options ~symbols:(Fuzz.Gen.symbols_for g) g)
  in
  Test_report.check_golden "cost.estimates.golden"
    (String.concat "" (polybench @ scenarios @ fuzz))

let suite =
  [ ("parallel < sequential", `Quick, test_parallel_faster_than_sequential);
    ("tiling cuts DRAM traffic", `Quick, test_tiling_reduces_traffic);
    ("GPU offload pays exact PCIe copies", `Quick, test_gpu_offload_pays_copies);
    ("privatization removes atomics", `Quick, test_peeling_removes_atomics);
    ("vectorization speeds compute", `Quick, test_vectorization_speeds_compute);
    ("state-machine visit counting", `Quick, test_state_visit_counting);
    ("triangular loop nests (cholesky)", `Quick, test_triangular_visits);
    ("indirection classified as random access", `Quick,
      test_indirection_classified_random);
    ("FPGA pipelining vs naive HLS", `Quick, test_fpga_pipelining);
    ("baseline compiler ordering", `Quick, test_baseline_ordering);
    ("report consistency", `Quick, test_report_consistency);
    ("nested symbol map shadows the outer symbol", `Quick,
      test_nested_symbol_map_wins);
    ("loop symbol in a tasklet for bound", `Quick,
      test_reads_tasklet_for_bound);
    ("loop symbol in a transient shape", `Quick, test_reads_transient_shape);
    ("loop symbol in a nested symbol map", `Quick,
      test_reads_nested_symbol_map);
    ("estimates are pinned", `Quick, test_estimates_golden) ]
