(* Workload-conformance gauntlet (ISSUE: scenario diversity).

   Every workload in the CFD spectral-element and attention/conv
   families must survive the full pipeline: build → validate (implicit
   in the builders) → execute bit/approx-identically across the
   scaling matrix (domain policy x bulk kernels, as in
   [Test_scaling]) → agree with its sibling variant on shared
   arguments → lower the expected kernel kinds with the expected
   stable fallback reasons → survive a model-only [Opt.Search] pass
   whose committed chain crossvalidates against the reference engine.

   Approx comparison is sanctioned exactly where {!Races} issues a
   float-accumulate verdict (the CFD scatter's dynamic WCR window):
   domain privatization may legally reorder those reductions.  The
   attention/conv contractions WCR-write disjointly along the chunked
   map dimension, so they stay bit-exact across the whole matrix —
   the battery derives the comparison mode from the analysis rather
   than hard-coding it.  Cross-variant comparisons are always approx
   (different algorithms order the float sums differently). *)

module R = Obs.Report
module Search = Opt.Search
open Interp

let check_bits = Test_parallel.check_bits
let check_approx = Test_parallel.check_approx
let float_accumulate = Test_parallel.float_accumulate

(* --- the case table ------------------------------------------------------ *)

type case = {
  w_name : string;
  w_build : unit -> Sdfg_ir.Sdfg.t;
  w_symbols : (string * int) list;
  w_args : unit -> (string * Tensor.t) list;  (* fresh tensors per call *)
}

let cfd_batched =
  { w_name = "cfd-batched";
    w_build = Workloads.Cfd.batched;
    w_symbols = Workloads.Cfd.mini;
    w_args = (fun () -> Workloads.Cfd.args Workloads.Cfd.mini) }

let cfd_naive =
  { w_name = "cfd-naive";
    w_build = Workloads.Cfd.naive;
    w_symbols = Workloads.Cfd.mini;
    w_args = (fun () -> Workloads.Cfd.args Workloads.Cfd.mini) }

let attention_base =
  { w_name = "attention";
    w_build = Workloads.Attention.base;
    w_symbols = Workloads.Attention.attention_mini;
    w_args =
      (fun () ->
        Workloads.Attention.attention_args Workloads.Attention.attention_mini)
  }

let attention_tiled =
  { attention_base with
    w_name = "attention-tiled";
    w_build = Workloads.Attention.tiled }

let conv_im2col =
  { w_name = "conv-im2col";
    w_build = Workloads.Attention.conv_im2col;
    w_symbols = Workloads.Attention.conv_mini;
    w_args =
      (fun () -> Workloads.Attention.conv_args Workloads.Attention.conv_mini)
  }

let conv_direct =
  { conv_im2col with
    w_name = "conv-direct";
    w_build = Workloads.Attention.conv_direct }

let cases =
  [ cfd_batched; cfd_naive; attention_base; attention_tiled; conv_im2col;
    conv_direct ]

(* Variant pairs that must agree on shared arguments: (transformed,
   baseline).  Both members of a pair take the same container set. *)
let variant_pairs =
  [ (cfd_batched, cfd_naive);
    (attention_tiled, attention_base);
    (conv_im2col, conv_direct) ]

(* --- scaling matrix (shared with Test_scaling) --------------------------- *)

let test_matrix (c : case) () =
  let approx = float_accumulate (c.w_build ()) in
  Test_scaling.battery c.w_name ~approx (fun policy kernels ->
      let g = c.w_build () in
      let args = c.w_args () in
      let r =
        Exec.run g
          ~config:(Test_scaling.config ~kernels policy)
          ~symbols:c.w_symbols ~args
      in
      (args, r))

(* --- reference engine vs compiled engine --------------------------------- *)

(* At one forced domain the compiled engine — kernels on or off — must
   reproduce the reference engine bitwise, bulk [contract], [gather] and
   [scatter] kernels included. *)
let test_engines (c : case) () =
  let run config =
    let g = c.w_build () in
    let args = c.w_args () in
    ignore (Exec.run g ~config ~symbols:c.w_symbols ~args);
    args
  in
  let ref_args = run Exec.Config.(default |> with_domains 1) in
  List.iter
    (fun kernels ->
      check_bits
        (Fmt.str "%s: compiled (kernels %s) vs reference" c.w_name
           (if kernels then "on" else "off"))
        ref_args
        (run (Test_scaling.config ~kernels (Test_scaling.Forced 1))))
    [ false; true ]

(* --- cross-variant agreement --------------------------------------------- *)

let test_variants ((opt : case), (base : case)) () =
  let run (c : case) =
    let g = c.w_build () in
    let args = c.w_args () in
    ignore
      (Exec.run g
         ~config:(Test_scaling.config ~kernels:true (Test_scaling.Forced 1))
         ~symbols:c.w_symbols ~args);
    args
  in
  check_approx (Fmt.str "%s vs %s" opt.w_name base.w_name) (run base) (run opt)

(* --- kernel coverage: bulk kinds and stable fallback reasons ------------- *)

let tally tag expect got =
  List.iter
    (fun (key, n) ->
      Alcotest.(check int)
        (Fmt.str "%s: %s tally" tag key)
        n
        (try List.assoc key got with Not_found -> 0))
    expect

let test_coverage () =
  (* cfd-batched: both contractions lower as bulk [contract], the
     gather and scatter maps as [gather] / [scatter] kernels. *)
  let kmaps, kfalls =
    Test_kernels.coverage Workloads.Cfd.batched Workloads.Cfd.mini
  in
  tally "cfd-batched kernels"
    [ ("contract", 2); ("gather", 1); ("scatter", 1) ] kmaps;
  tally "cfd-batched fallbacks" [ ("non-affine-indirect", 0) ] kfalls;
  (* cfd-naive: the fused per-element body subscripts [uin]/[o] through
     the connectivity connector — indirection, not its surface shape. *)
  let _, kfalls =
    Test_kernels.coverage Workloads.Cfd.naive Workloads.Cfd.mini
  in
  tally "cfd-naive fallbacks" [ ("non-affine-indirect", 1) ] kfalls;
  (* attention: both matmuls contract in bulk; softmax stages are
     elementwise/expr kernels or reductions, never indirection. *)
  let kmaps, kfalls =
    Test_kernels.coverage Workloads.Attention.base
      Workloads.Attention.attention_mini
  in
  tally "attention kernels" [ ("contract", 2) ] kmaps;
  tally "attention fallbacks" [ ("non-affine-indirect", 0) ] kfalls;
  (* conv-im2col: the column gather lowers as [gather], the GEMM
     contracts. *)
  let kmaps, kfalls =
    Test_kernels.coverage Workloads.Attention.conv_im2col
      Workloads.Attention.conv_mini
  in
  tally "conv-im2col kernels" [ ("contract", 1); ("gather", 1) ] kmaps;
  tally "conv-im2col fallbacks" [ ("non-affine-indirect", 0) ] kfalls;
  (* conv-direct: fully affine — everything lowers, nothing falls back. *)
  let kmaps, kfalls =
    Test_kernels.coverage Workloads.Attention.conv_direct
      Workloads.Attention.conv_mini
  in
  tally "conv-direct kernels" [ ("contract", 1) ] kmaps;
  Alcotest.(check (list (pair string int)))
    "conv-direct has no fallbacks" [] kfalls

(* --- optimizer leg: model-only search + chain crossval ------------------- *)

let test_optimize (c : case) () =
  let cfg =
    Search.config ~target:Machine.Cost.Tcpu ~symbols:c.w_symbols
      ~objective:Search.Model_only ~beam:2 ~max_steps:3 ()
  in
  let res = Search.optimize ~name:c.w_name cfg c.w_build in
  if res.Search.r_best_model_s > res.Search.r_base_model_s then
    Alcotest.failf "%s: search regressed the model (%.3g -> %.3g)" c.w_name
      res.Search.r_base_model_s res.Search.r_best_model_s;
  match Search.crossval ~symbols:c.w_symbols c.w_build res.Search.r_chain with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: chain crossval failed: %s" c.w_name e

let suite =
  List.map
    (fun c ->
      ( Fmt.str "%s: policy x kernels matrix conforms" c.w_name,
        `Quick, test_matrix c ))
    cases
  @ List.map
      (fun c ->
        ( Fmt.str "%s: compiled engine matches reference bitwise" c.w_name,
          `Quick, test_engines c ))
      cases
  @ List.map
      (fun ((o, b) as pr) ->
        ( Fmt.str "%s agrees with %s on shared arguments" o.w_name b.w_name,
          `Quick, test_variants pr ))
      variant_pairs
  @ [ ( "kernel coverage: contract kinds and indirection fallbacks",
        `Quick, test_coverage ) ]
  @ List.map
      (fun c ->
        ( Fmt.str "%s: model-only search chain crossvalidates" c.w_name,
          `Quick, test_optimize c ))
      cases
