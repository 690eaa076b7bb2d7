(* Cross-cutting property-based tests (qcheck): invariants of the subset
   algebra, serialization, the tasklet language, and end-to-end
   transformation pipelines on randomly generated programs. *)

module E = Symbolic.Expr
module S = Symbolic.Subset
module T = Tasklang.Types
open Sdfg_ir
open Interp
open Builder

(* --- subset algebra ----------------------------------------------------- *)

let gen_crange =
  QCheck2.Gen.(
    map2
      (fun a len -> S.range (E.int a) (E.int (a + len)))
      (int_range 0 20) (int_range 0 10))

let prop_union_covers_both =
  QCheck2.Test.make ~count:300 ~name:"subset union covers both operands"
    QCheck2.Gen.(pair gen_crange gen_crange)
    (fun (a, b) ->
      let u = S.union [ a ] [ b ] in
      S.covers u [ a ] && S.covers u [ b ])

let prop_compose_offset_inverse =
  QCheck2.Test.make ~count:300
    ~name:"offset_by inverts compose for stride-1 ranges"
    QCheck2.Gen.(pair gen_crange gen_crange)
    (fun (outer, inner) ->
      let composed = S.compose [ outer ] [ inner ] in
      let back = S.offset_by composed ~origin:[ outer ] in
      S.equal back [ inner ])

let prop_volume_counts_points =
  QCheck2.Test.make ~count:300
    ~name:"symbolic volume equals enumerated point count"
    QCheck2.Gen.(
      pair gen_crange
        (map2
           (fun a s -> S.range ~stride:(E.int s) (E.int a) (E.int (a + 7)))
           (int_range 0 5) (int_range 1 3)))
    (fun (r1, r2) ->
      let s = [ r1; r2 ] in
      let vol = E.as_int_exn (S.volume s) in
      let pts = S.concrete_points (S.eval_list [] s) in
      vol = List.length pts)

let prop_propagation_sound =
  (* every concrete point of the per-iteration subset lies inside the
     propagated image, for all parameter values *)
  QCheck2.Test.make ~count:200 ~name:"memlet propagation is sound"
    QCheck2.Gen.(
      triple (int_range 0 5) (int_range 1 8) (int_range (-3) 3))
    (fun (lo, extent, shift) ->
      let prange = S.range (E.int lo) (E.int (lo + extent)) in
      let subset =
        [ S.range
            (E.add (E.sym "p") (E.int shift))
            (E.add (E.sym "p") (E.int (shift + 2))) ]
      in
      let image = S.propagate_param ~param:"p" ~prange subset in
      let ok = ref true in
      for p = lo to lo + extent do
        let inst = S.subst_list [ ("p", E.int p) ] subset in
        if not (S.covers image inst) then ok := false
      done;
      !ok)

(* --- serialization ------------------------------------------------------- *)

let gen_expr =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map E.int (int_range (-9) 9); map E.sym (oneofl [ "N"; "i" ]) ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map2 E.add (go (n - 1)) (go (n - 1));
          map2 E.mul (go (n - 1)) (go (n - 1));
          map2 E.min_ (go (n - 1)) (go (n - 1)) ]
  in
  go 3

let prop_expr_sexp_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"expression serialization roundtrips"
    gen_expr
    (fun e ->
      let s = Serialize.sexp_to_string (Serialize.expr_to_sexp e) in
      E.equal (E.simplify (Serialize.expr_of_sexp (Serialize.parse_sexp s)))
        (E.simplify e))

(* --- tasklang: evaluation is deterministic and total on generated code --- *)

let gen_tasklet_expr =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map (fun x -> Tasklang.Ast.Float_lit x) (float_range (-10.) 10.);
        return (Tasklang.Ast.Var "a");
        return (Tasklang.Ast.Var "b") ]
  in
  let rec go n =
    if n = 0 then leaf
    else
      oneof
        [ leaf;
          map2
            (fun x y -> Tasklang.Ast.Binop (Tasklang.Ast.Add, x, y))
            (go (n - 1)) (go (n - 1));
          map2
            (fun x y -> Tasklang.Ast.Binop (Tasklang.Ast.Mul, x, y))
            (go (n - 1)) (go (n - 1));
          map2
            (fun x y -> Tasklang.Ast.Binop (Tasklang.Ast.Min, x, y))
            (go (n - 1)) (go (n - 1)) ]
  in
  go 4

let prop_tasklet_print_parse_eval =
  QCheck2.Test.make ~count:300
    ~name:"tasklet print/parse preserves evaluation"
    QCheck2.Gen.(triple gen_tasklet_expr (float_range (-5.) 5.) (float_range (-5.) 5.))
    (fun (e, av, bv) ->
      let eval e =
        T.to_float
          (Tasklang.Eval.eval_expression
             ~scalars:[ ("a", T.F av); ("b", T.F bv) ]
             e)
      in
      let printed = Tasklang.Ast.to_string [ Tasklang.Ast.Assign (Tasklang.Ast.Lvar "o", e) ] in
      match Tasklang.Parse.program printed with
      | [ Tasklang.Ast.Assign (_, e') ] ->
        let v = eval e and v' = eval e' in
        Float.equal v v' || Float.abs (v -. v') < 1e-9 *. Float.abs v
      | _ -> false)

(* --- end-to-end: random transformation pipelines preserve semantics ------- *)

let run_mm g =
  let m, n, k = (6, 5, 4) in
  let a =
    Tensor.init T.F64 [| m; k |] (fun idx ->
        T.F (sin (float_of_int (List.fold_left ( + ) 3 idx))))
  in
  let b =
    Tensor.init T.F64 [| k; n |] (fun idx ->
        T.F (cos (float_of_int (List.fold_left ( + ) 5 idx))))
  in
  let c = Tensor.create T.F64 [| m; n |] in
  ignore
    (Exec.run g
       ~symbols:[ ("M", m); ("N", n); ("K", k) ]
       ~args:[ ("A", a); ("B", b); ("C", c) ]);
  Tensor.to_float_list c

let pipeline_pool : (string * (Sdfg.t -> unit)) list =
  [ ("expand", fun g -> Transform.Xform.apply_first_exn g Transform.Map_xforms.map_expansion);
    ("tile2", fun g ->
      Transform.Xform.apply_first_exn g
        (Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ 2 ]));
    ("tile3", fun g ->
      Transform.Xform.apply_first_exn g
        (Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ 3 ]));
    ("acc", fun g ->
      Transform.Xform.apply_first_exn g Transform.Data_xforms.accumulate_transient);
    ("peel", fun g ->
      Transform.Xform.apply_first_exn g Transform.Control_xforms.reduce_peeling);
    ("fuse_states", fun g ->
      Transform.Xform.apply_first_exn g Transform.Fusion_xforms.state_fusion);
    ("gpu", fun g ->
      Transform.Xform.apply_first_exn g Transform.Device_xforms.gpu_transform) ]

let prop_random_pipelines =
  QCheck2.Test.make ~count:40
    ~name:"random transformation pipelines preserve GEMM results"
    QCheck2.Gen.(list_size (int_range 1 4) (int_range 0 (List.length pipeline_pool - 1)))
    (fun choices ->
      let reference = run_mm (Fixtures.matmul_wcr ()) in
      let g = Fixtures.matmul_wcr () in
      List.iter
        (fun i ->
          let _, f = List.nth pipeline_pool i in
          try f g with
          | Transform.Xform.Not_applicable _ -> ()
          | Defs.Invalid_sdfg _ -> ())
        choices;
      Validate.check g;
      let got = run_mm g in
      List.for_all2
        (fun a b -> Float.abs (a -. b) < 1e-9 *. (1. +. Float.abs a))
        reference got)

(* --- error paths: malformed inputs give stable, descriptive messages ----- *)

(* Same golden-file protocol as test_report.ml: compare against
   golden/<name>.golden, regenerate with SDFG_GOLDEN_UPDATE=<dir>. *)
let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name actual =
  match Sys.getenv_opt "SDFG_GOLDEN_UPDATE" with
  | Some dir ->
    let oc = open_out (Filename.concat dir name) in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc actual)
  | None ->
    Alcotest.(check string)
      (name ^ " matches golden")
      (read_file (Filename.concat "golden" name))
      actual

let message f =
  match f () with
  | _ -> Alcotest.fail "expected an exception, got a value"
  | exception Transform.Xform.Not_applicable m -> "Not_applicable: " ^ m
  | exception Defs.Invalid_sdfg m -> "Invalid_sdfg: " ^ m
  | exception Tensor.Bounds m -> "Bounds: " ^ m
  | exception Exec.Runtime_error m -> "Runtime_error: " ^ m

let t_err_malformed_chain () =
  (* comments and blanks are skipped; everything else must be
     "<name>" or "<name> <index>" *)
  Alcotest.(check int)
    "comments and blanks skipped" 1
    (List.length
       (Transform.Xform.chain_of_string "# header\n\nMapTiling 0\n"));
  check_golden "errors.chain.golden"
    (String.concat "\n"
       (List.map
          (fun line ->
            Fmt.str "%S -> %s" line
              (message (fun () -> Transform.Xform.chain_of_string line)))
          [ "MapTiling one two three"; "MapTiling notanint" ])
    ^ "\n")

let t_err_unknown_xform () =
  check_golden "errors.unknown_xform.golden"
    (message (fun () -> Transform.Xform.lookup "NoSuchTransformation") ^ "\n")

let t_err_duplicate_container () =
  check_golden "errors.duplicate_container.golden"
    (message (fun () ->
         let g = Sdfg.create "dup" in
         Sdfg.add_array g "A" ~shape:[ E.int 4 ] ~dtype:T.F64;
         Sdfg.add_array g "A" ~shape:[ E.int 8 ] ~dtype:T.F64)
    ^ "\n")

let t_err_oob_memlet () =
  (* a copy that walks past the end of its source container must fail
     with a located bounds message, not scribble or succeed *)
  let run_oob () =
    let g, st = Build.single_state "oob" in
    Sdfg.add_array g "x" ~shape:[ E.int 4 ] ~dtype:T.F64;
    Sdfg.add_array g "y" ~shape:[ E.int 8 ] ~dtype:T.F64;
    let a = Build.access st "x" and b = Build.access st "y" in
    Build.edge st
      ~memlet:(Memlet.simple "x" [ S.range (E.int 2) (E.int 5) ])
      ~src:a ~dst:b ();
    Validate.check g;
    let x = Tensor.create T.F64 [| 4 |] and y = Tensor.create T.F64 [| 8 |] in
    ignore (Exec.run ~symbols:[] ~args:[ ("x", x); ("y", y) ] g)
  in
  check_golden "errors.oob_memlet.golden" (message run_oob ^ "\n")

let error_path_tests =
  [ ("malformed chain lines are rejected", `Quick, t_err_malformed_chain);
    ("unknown transformation name is rejected", `Quick, t_err_unknown_xform);
    ("duplicate container name is rejected", `Quick, t_err_duplicate_container);
    ("out-of-bounds memlet fails loudly", `Quick, t_err_oob_memlet) ]

(* --- race-analysis verdict tables ---------------------------------------- *)

(* Pin the Races taxonomy on hand-built map scopes.  Soundness direction:
   a "parallel*" expectation here is a claim that chunked execution is
   safe — any false "safe" is a bug in the analysis, so the serial cases
   below must never drift to parallel. *)
module Races = Analysis.Races

let f64 = T.F64

(* One-map graph: a single Cpu_multicore mapped tasklet writing [outs]
   from [ins] over ranges [ranges]. *)
let one_map ?(symbols = [ "N" ]) ?(extra = fun _ -> ()) ~ranges ~params ~ins
    ~outs ~code () =
  let g, st = Build.single_state ~symbols "race_case" in
  let n = E.sym "N" in
  Sdfg.add_array g "A" ~shape:[ n ] ~dtype:f64;
  Sdfg.add_array g "B" ~shape:[ n ] ~dtype:f64;
  extra g;
  ignore
    (Build.mapped_tasklet g st ~name:"body" ~schedule:Defs.Cpu_multicore
       ~params ~ranges ~ins ~outs ~code ());
  Build.finalize g

let verdict_codes g =
  List.map (fun r -> Races.verdict_code r.Races.mr_verdict) (Races.analyze g)

let check_verdicts name expected g =
  Alcotest.(check (list string)) name expected (verdict_codes g)

let i = E.sym "i"
let nm1 = E.sub (E.sym "N") E.one

let t_races_disjoint_strided () =
  (* stride-2 map writing A[i] and A[i+1]: per-iteration span 2, chunk
     step 2 -> provably disjoint *)
  check_verdicts "stride-2 pair write is disjoint" [ "parallel" ]
    (one_map
       ~ranges:[ S.range ~stride:(E.int 2) E.zero (E.sub (E.sym "N") (E.int 2)) ]
       ~params:[ "i" ]
       ~ins:[ Build.in_elem "a" "B" [ i ] ]
       ~outs:
         [ Build.out_elem "o1" "A" [ i ];
           Build.out_elem "o2" "A" [ E.add i E.one ] ]
       ~code:(`Src "o1 = a\no2 = a") ());
  (* same double write at stride 1: adjacent iterations collide *)
  check_verdicts "stride-1 pair write overlaps" [ "overlapping-writes" ]
    (one_map
       ~ranges:[ S.range E.zero (E.sub (E.sym "N") (E.int 2)) ]
       ~params:[ "i" ]
       ~ins:[ Build.in_elem "a" "B" [ i ] ]
       ~outs:
         [ Build.out_elem "o1" "A" [ i ];
           Build.out_elem "o2" "A" [ E.add i E.one ] ]
       ~code:(`Src "o1 = a\no2 = a") ())

let t_races_halo () =
  (* read A[i-1..i+1], write A[i]: a flow dependency across iterations *)
  check_verdicts "3-point halo is a cross-iteration dependency"
    [ "read-write-overlap" ]
    (one_map
       ~ranges:[ S.range E.one (E.sub (E.sym "N") (E.int 2)) ]
       ~params:[ "i" ]
       ~ins:[ Build.in_ "a" "A" [ S.range (E.sub i E.one) (E.add i E.one) ] ]
       ~outs:[ Build.out_elem "o" "A" [ i ] ]
       ~code:(`Src "o = a[0] - 2.0 * a[1] + a[2]") ());
  (* the double-buffered Laplace fixture has the same shape *)
  check_verdicts "laplace halo forces sequential" [ "read-write-overlap" ]
    (Fixtures.laplace ())

let t_races_wcr () =
  (* reduction into one cell: conflicting, but commutative-with-identity
     WCR and never read -> per-domain private accumulators are safe *)
  check_verdicts "dot-product WCR accumulates" [ "parallel-accumulate" ]
    (one_map
       ~extra:(fun g -> Sdfg.add_array g "out" ~shape:[ E.one ] ~dtype:f64)
       ~ranges:[ S.range E.zero nm1 ] ~params:[ "i" ]
       ~ins:[ Build.in_elem "a" "A" [ i ]; Build.in_elem "b" "B" [ i ] ]
       ~outs:[ Build.out_elem ~wcr:Wcr.sum "o" "out" [ E.zero ] ]
       ~code:(`Src "o = a * b") ());
  (* WCR matmul: C[i,j] += ... is disjoint across the chunked i even
     though it carries a WCR - every k lands in one chunk *)
  (match verdict_codes (Fixtures.matmul_wcr ()) with
  | [ init_v; main_v ] ->
    Alcotest.(check string) "matmul init map" "parallel" init_v;
    Alcotest.(check string) "matmul WCR map is disjoint along i" "parallel"
      main_v
  | vs -> Alcotest.failf "expected 2 maps, got %d" (List.length vs));
  (* self-conflict: the histogram kernel reads hist and WCR-writes it *)
  (match verdict_codes (Fixtures.histogram ()) with
  | [ init_v; main_v ] ->
    Alcotest.(check string) "histogram init map" "parallel" init_v;
    Alcotest.(check string) "read + WCR write is serial" "wcr-read" main_v
  | vs -> Alcotest.failf "expected 2 maps, got %d" (List.length vs))

let t_races_private_transient () =
  (* scope-local staging buffer, fully written before read: each domain
     can hold a private copy *)
  let g, st = Build.single_state ~symbols:[ "N" ] "priv" in
  let n = E.sym "N" in
  Sdfg.add_array g "A" ~shape:[ n ] ~dtype:f64;
  Sdfg.add_array g "B" ~shape:[ n ] ~dtype:f64;
  Sdfg.add_array g "tmp" ~transient:true ~shape:[ E.int 2 ] ~dtype:f64;
  let entry, exit_ =
    Build.map_scope st ~schedule:Defs.Cpu_multicore ~params:[ "i" ]
      ~ranges:[ S.range E.zero nm1 ] ()
  in
  let stage =
    Build.tasklet st ~name:"stage"
      ~inputs:[ { Defs.k_name = "a"; k_dtype = f64; k_rank = 0 } ]
      ~outputs:[ { Defs.k_name = "t"; k_dtype = f64; k_rank = 1 } ]
      ~code:(`Src "t[0] = a\nt[1] = a * 2.0") ()
  in
  let use =
    Build.tasklet st ~name:"use"
      ~inputs:[ { Defs.k_name = "t"; k_dtype = f64; k_rank = 1 } ]
      ~outputs:[ { Defs.k_name = "o"; k_dtype = f64; k_rank = 0 } ]
      ~code:(`Src "o = t[0] + t[1]") ()
  in
  let a_acc = Build.access st "A" and b_acc = Build.access st "B" in
  let tmp_acc = Build.access st "tmp" in
  let tmp_full = Memlet.full "tmp" [ E.int 2 ] in
  Build.edge st ~dst_conn:"IN_A"
    ~memlet:(Memlet.element "A" [ i ]) ~src:a_acc ~dst:entry ();
  Build.edge st ~src_conn:"OUT_A" ~dst_conn:"a"
    ~memlet:(Memlet.element "A" [ i ]) ~src:entry ~dst:stage ();
  Build.edge st ~src_conn:"t" ~memlet:tmp_full ~src:stage ~dst:tmp_acc ();
  Build.edge st ~dst_conn:"t" ~memlet:tmp_full ~src:tmp_acc ~dst:use ();
  Build.edge st ~src_conn:"o" ~dst_conn:"IN_B"
    ~memlet:(Memlet.element "B" [ i ]) ~src:use ~dst:exit_ ();
  Build.edge st ~src_conn:"OUT_B"
    ~memlet:(Memlet.element "B" [ i ]) ~src:exit_ ~dst:b_acc ();
  ignore (Build.finalize g);
  match Races.analyze g with
  | [ r ] ->
    Alcotest.(check string) "verdict" "parallel-private"
      (Races.verdict_code r.mr_verdict);
    (match r.mr_verdict with
    | Races.Parallel { privatize; _ } ->
      Alcotest.(check (list string)) "privatized containers" [ "tmp" ]
        privatize
    | Races.Serial _ -> Alcotest.fail "expected Parallel")
  | rs -> Alcotest.failf "expected 1 map, got %d" (List.length rs)

let t_races_nested_opaque () =
  (* a nested SDFG hides its write footprint: always serial *)
  match Races.analyze (Fixtures.nested_loop ()) with
  | [ r ] -> (
    match Races.reason_of r.Races.mr_verdict with
    | Some reason ->
      Alcotest.(check string) "reason" "nested-sdfg" reason.Races.r_code
    | None -> Alcotest.fail "expected Serial for a nested SDFG in scope")
  | rs -> Alcotest.failf "expected 1 map, got %d" (List.length rs)

let t_races_corners () =
  (* zero-trip range: the verdict is a static property; an empty range
     still classifies (runtime no-ops either way) *)
  check_verdicts "zero-trip map still classifies" [ "parallel" ]
    (one_map ~symbols:[]
       ~ranges:[ S.range E.zero (E.int (-1)) ]
       ~params:[ "i" ]
       ~ins:[ Build.in_elem "a" "B" [ i ] ]
       ~outs:[ Build.out_elem "o" "A" [ i ] ]
       ~code:(`Src "o = a") ());
  (* non-positive stride: the analysis must clamp the chunk step to the
     sound minimum 1, so a 2-element write is NOT disjoint even though
     |stride| = 2 would cover it *)
  check_verdicts "negative stride clamps to step 1" [ "overlapping-writes" ]
    (one_map
       ~ranges:
         [ S.range ~stride:(E.int (-2)) E.zero (E.sub (E.sym "N") (E.int 2)) ]
       ~params:[ "i" ]
       ~ins:[ Build.in_elem "a" "B" [ i ] ]
       ~outs:
         [ Build.out_elem "o1" "A" [ i ];
           Build.out_elem "o2" "A" [ E.add i E.one ] ]
       ~code:(`Src "o1 = a\no2 = a") ());
  (* single-element write survives any stride *)
  check_verdicts "negative stride, disjoint single write" [ "parallel" ]
    (one_map
       ~ranges:[ S.range ~stride:(E.neg E.one) nm1 E.zero ]
       ~params:[ "i" ]
       ~ins:[ Build.in_elem "a" "B" [ i ] ]
       ~outs:[ Build.out_elem "o" "A" [ i ] ]
       ~code:(`Src "o = a") ())

let race_table_tests =
  [ ("disjoint strided writes", `Quick, t_races_disjoint_strided);
    ("overlapping halos", `Quick, t_races_halo);
    ("WCR conflicts and accumulation", `Quick, t_races_wcr);
    ("iteration-private transients", `Quick, t_races_private_transient);
    ("nested SDFGs are opaque", `Quick, t_races_nested_opaque);
    ("zero-trip and negative-stride corners", `Quick, t_races_corners) ]

(* --- predictive domain policy (ISSUE: make multicore pay) --------------- *)

module CP = Machine.Cost.Parallel

(* A fixed synthetic calibration for the pure-function properties: an
   8-core host so predictions are free to exceed 1 even when the test
   machine itself is single-core. *)
let policy_cal =
  { CP.cal_host_domains = 8;
    cal_fork_s = 10e-6;
    cal_chunk_s = 0.5e-6;
    cal_merge_s_per_elem = 5e-9;
    cal_kernel_iter_ns = [ ("copy", 1.0); ("contract", 2.0) ];
    cal_closure_iter_ns = 40.0;
    cal_efficiency = 0.9 }

let gen_kind =
  QCheck2.Gen.oneofl [ None; Some "copy"; Some "contract"; Some "unknown" ]

let prop_predict_deterministic =
  QCheck2.Test.make ~count:300
    ~name:"domain prediction is deterministic for a fixed calibration"
    QCheck2.Gen.(
      quad gen_kind (int_range 0 2_000_000) (int_range 1 4096)
        (int_range 0 100_000))
    (fun (kind, trips, inner, merge_elems) ->
      let p () =
        CP.predict ~cal:policy_cal ~max_domains:8 ~kind ~trips ~inner
          ~merge_elems ()
      in
      let a = p () and b = p () in
      a.CP.d_domains = b.CP.d_domains && a.CP.d_reason = b.CP.d_reason)

let prop_predict_monotone_trips =
  QCheck2.Test.make ~count:300
    ~name:"a larger map never predicts fewer domains"
    QCheck2.Gen.(
      quad gen_kind
        (pair (int_range 0 1_000_000) (int_range 0 1_000_000))
        (int_range 1 512) (int_range 0 50_000))
    (fun (kind, (t1, t2), inner, merge_elems) ->
      let lo = min t1 t2 and hi = max t1 t2 in
      let d trips =
        (CP.predict ~cal:policy_cal ~max_domains:8 ~kind ~trips ~inner
           ~merge_elems ())
          .CP.d_domains
      in
      d lo <= d hi)

(* A Serial race verdict must force the map sequential under the
   predictive policy — the decision never reaches the pricing model. *)
let racy_graph () =
  let g, st = Build.single_state ~symbols:[ "N" ] "racy" in
  Sdfg.add_array g "X" ~shape:[ E.int 4 ] ~dtype:T.F64;
  ignore
    (Build.mapped_tasklet g st ~name:"w" ~schedule:Defs.Cpu_multicore
       ~params:[ "i" ]
       ~ranges:[ S.range E.zero (E.sub (E.sym "N") E.one) ]
       ~ins:[]
       ~outs:[ Build.out_elem "x" "X" [ E.zero ] ]
       ~code:(`Src "x = 1.0") ());
  Build.finalize g

let t_predict_serial_forced () =
  let g = racy_graph () in
  let x = Tensor.create T.F64 [| 4 |] in
  let r =
    Exec.run g
      ~config:
        Exec.Config.(
          default |> with_engine Plan.compiled |> with_auto_domains ~cap:4)
      ~symbols:[ ("N", 64) ]
      ~args:[ ("X", x) ]
  in
  match r.Obs.Report.r_parallel with
  | None -> Alcotest.fail "expected a parallel section"
  | Some p -> (
    match p.Obs.Report.par_decisions with
    | [ d ] ->
      Alcotest.(check bool) "decision is forced" true d.Obs.Report.pm_forced;
      Alcotest.(check int) "forced maps run on 1 domain" 1
        d.Obs.Report.pm_domains;
      Alcotest.(check string) "policy reason" "forced-serial"
        d.Obs.Report.pm_reason;
      Alcotest.(check int) "every invocation counted forced"
        d.Obs.Report.pm_invocations p.Obs.Report.par_forced_seq
    | ds -> Alcotest.failf "expected one decision, got %d" (List.length ds))

(* The built-in calibration prices the gather and scatter kinds at their
   own rates, not at the closure path's. *)
let t_indirect_kinds_priced () =
  let cal = CP.default_calibration in
  let time kind =
    CP.predicted_time_s ~cal ~kind ~trips:1000 ~inner:1 ~merge_elems:0 1
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (kind ^ " has a built-in rate") true
        (List.mem_assoc kind cal.CP.cal_kernel_iter_ns);
      Alcotest.(check bool)
        (kind ^ " priced below the closure path") true
        (time (Some kind) < time None))
    [ "gather"; "scatter" ]

let policy_tests =
  [ ("Serial verdict forces 1 domain under prediction", `Quick,
      t_predict_serial_forced);
    ("gather and scatter are not priced at the closure rate", `Quick,
      t_indirect_kinds_priced) ]

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_union_covers_both;
      prop_compose_offset_inverse;
      prop_volume_counts_points;
      prop_propagation_sound;
      prop_expr_sexp_roundtrip;
      prop_tasklet_print_parse_eval;
      prop_random_pipelines;
      prop_predict_deterministic;
      prop_predict_monotone_trips ]
  @ error_path_tests @ race_table_tests @ policy_tests
