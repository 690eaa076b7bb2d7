(* Interpreter tests: execute the paper's example SDFGs and check results
   against straightforward OCaml reference implementations (the
   operational-semantics conformance suite for Appendix A). *)

module E = Symbolic.Expr
module T = Tasklang.Types
module R = Obs.Report
open Interp

let f64 = T.F64
let i64 = T.I64

let farr shape f = Tensor.init f64 shape (fun idx -> T.F (f idx))
let iarr shape f = Tensor.init i64 shape (fun idx -> T.I (f idx))

let check_floats msg expected t =
  Alcotest.(check (list (float 1e-9))) msg expected (Tensor.to_float_list t)

let test_vector_add () =
  let g = Fixtures.vector_add () in
  let a = farr [| 5 |] (fun i -> float_of_int (List.hd i)) in
  let b = farr [| 5 |] (fun _ -> 100.) in
  let c = Tensor.create f64 [| 5 |] in
  let stats =
    Exec.run g ~symbols:[ ("N", 5) ] ~args:[ ("A", a); ("B", b); ("C", c) ]
  in
  check_floats "C" [ 100.; 101.; 102.; 103.; 104. ] c;
  Alcotest.(check int) "tasklet executions" 5
    stats.R.r_counters.R.tasklet_execs;
  Alcotest.(check int) "map iterations" 5 stats.R.r_counters.R.map_iterations

let test_matmul_mapreduce () =
  let g = Fixtures.matmul_mapreduce () in
  let m, n, k = (3, 4, 5) in
  let a = farr [| m; k |] (fun idx -> match idx with [ i; j ] -> float_of_int ((i * k) + j) | _ -> 0.) in
  let b = farr [| k; n |] (fun idx -> match idx with [ i; j ] -> float_of_int (i - j) | _ -> 0.) in
  let c = Tensor.create f64 [| m; n |] in
  ignore
    (Exec.run g
       ~symbols:[ ("M", m); ("N", n); ("K", k) ]
       ~args:[ ("A", a); ("B", b); ("C", c) ]);
  (* reference *)
  let expect = ref [] in
  for i = m - 1 downto 0 do
    for j = n - 1 downto 0 do
      let acc = ref 0. in
      for kk = 0 to k - 1 do
        acc :=
          !acc
          +. (float_of_int ((i * k) + kk) *. float_of_int (kk - j))
      done;
      expect := !acc :: !expect
    done
  done;
  check_floats "C = A@B" !expect c

let test_matmul_wcr () =
  let g = Fixtures.matmul_wcr () in
  let m, n, k = (4, 3, 6) in
  let a = farr [| m; k |] (fun idx -> match idx with [ i; j ] -> sin (float_of_int ((i * 7) + j)) | _ -> 0.) in
  let b = farr [| k; n |] (fun idx -> match idx with [ i; j ] -> cos (float_of_int (i + (3 * j))) | _ -> 0.) in
  let c = Tensor.create f64 [| m; n |] in
  ignore
    (Exec.run g
       ~symbols:[ ("M", m); ("N", n); ("K", k) ]
       ~args:[ ("A", a); ("B", b); ("C", c) ]);
  let ok = ref true in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0. in
      for kk = 0 to k - 1 do
        acc :=
          !acc
          +. (T.to_float (Tensor.get a [ i; kk ])
              *. T.to_float (Tensor.get b [ kk; j ]))
      done;
      if Float.abs (!acc -. T.to_float (Tensor.get c [ i; j ])) > 1e-9 then
        ok := false
    done
  done;
  Alcotest.(check bool) "WCR matmul correct" true !ok

let test_laplace () =
  let g = Fixtures.laplace () in
  let n = 16 and t = 10 in
  let a =
    farr [| 2; n |] (fun idx ->
        match idx with
        | [ 0; i ] -> float_of_int (i * i)
        | _ -> 0.)
  in
  ignore (Exec.run g ~symbols:[ ("N", n); ("T", t) ] ~args:[ ("A", a) ]);
  (* reference: t steps of the second-difference stencil *)
  let cur = Array.init n (fun i -> float_of_int (i * i)) in
  let buf = [| cur; Array.make n 0. |] in
  for step = 0 to t - 1 do
    let src = buf.(step mod 2) and dst = buf.((step + 1) mod 2) in
    for i = 1 to n - 2 do
      dst.(i) <- src.(i - 1) -. (2. *. src.(i)) +. src.(i + 1)
    done
  done;
  let final = buf.(t mod 2) in
  let got = Tensor.view a ~starts:[| t mod 2; 0 |] ~counts:[| 1; n |] ~steps:[| 1; 1 |] in
  (* interior only: boundaries of the inactive row are never written *)
  let got_l = Tensor.to_float_list got in
  List.iteri
    (fun i v ->
      if i >= 1 && i <= n - 2 then
        Alcotest.(check (float 1e-9)) (Fmt.str "A[%d]" i) final.(i) v)
    got_l

let test_spmv () =
  let g = Fixtures.spmv () in
  (* 3x4 CSR matrix:
       row 0: (0, 1.0) (2, 2.0)
       row 1: (1, 3.0)
       row 2: (0, 4.0) (3, 5.0) *)
  let row = iarr [| 4 |] (fun i -> [| 0; 2; 3; 5 |].(List.hd i)) in
  let col = iarr [| 5 |] (fun i -> [| 0; 2; 1; 0; 3 |].(List.hd i)) in
  let v = farr [| 5 |] (fun i -> [| 1.; 2.; 3.; 4.; 5. |].(List.hd i)) in
  let x = farr [| 4 |] (fun i -> float_of_int (1 + List.hd i)) in
  let b = Tensor.create f64 [| 3 |] in
  ignore
    (Exec.run g
       ~symbols:[ ("H", 3); ("W", 4); ("nnz", 5) ]
       ~args:
         [ ("A_row", row); ("A_col", col); ("A_val", v); ("x", x); ("b", b) ]);
  check_floats "b = Ax" [ 7.; 6.; 24. ] b

let test_fibonacci () =
  let g = Fixtures.fibonacci () in
  let rec fib n = if n <= 2 then 1 else fib (n - 1) + fib (n - 2) in
  List.iter
    (fun n ->
      let nt = iarr [||] (fun _ -> n) in
      let out = Tensor.create i64 [||] in
      let stats =
        Exec.run g ~symbols:[ ("P", 4) ] ~args:[ ("N", nt); ("out", out) ]
      in
      Alcotest.(check int)
        (Fmt.str "fib(%d)" n)
        (fib n)
        (T.to_int (Tensor.get_scalar out));
      Alcotest.(check bool) "streams drained" true
        (stats.R.r_counters.R.stream_pops > 0))
    [ 1; 2; 5; 10 ]

let test_branching () =
  let g = Fixtures.branching () in
  let run a b =
    let at = farr [||] (fun _ -> a) and bt = farr [||] (fun _ -> b) in
    let c = Tensor.create f64 [||] in
    let ci = Tensor.create i64 [||] in
    ignore
      (Exec.run g ~args:[ ("A", at); ("B", bt); ("C", c); ("Ci", ci) ]);
    T.to_float (Tensor.get_scalar c)
  in
  (* 2+1=3 <= 5 -> doubled *)
  Alcotest.(check (float 1e-9)) "doubled" 6. (run 2. 1.);
  (* 4+3=7 > 5 -> halved *)
  Alcotest.(check (float 1e-9)) "halved" 3.5 (run 4. 3.)

let test_histogram () =
  let g = Fixtures.histogram () in
  let h, w, bins = (8, 8, 8) in
  let img =
    farr [| h; w |] (fun idx ->
        match idx with
        | [ i; j ] -> float_of_int (((i * w) + j) mod 8) /. 8.
        | _ -> 0.)
  in
  let hist = Tensor.create i64 [| bins |] in
  ignore
    (Exec.run g
       ~symbols:[ ("H", h); ("W", w); ("B", bins) ]
       ~args:[ ("image", img); ("hist", hist) ]);
  check_floats "uniform bins" (List.init 8 (fun _ -> 8.)) hist

let test_nested_sdfg () =
  let g = Fixtures.nested_loop () in
  let data = farr [| 4 |] (fun i -> [| 0.5; 1.0; 7.9; 16.0 |].(List.hd i)) in
  let counts = Tensor.create i64 [| 4 |] in
  ignore
    (Exec.run g ~symbols:[ ("N", 4) ]
       ~args:[ ("data", data); ("counts", counts) ]);
  (* halvings until < 1: 0.5->0; 1.0->1; 7.9->3; 16.0->5 *)
  check_floats "halving counts" [ 0.; 1.; 3.; 5. ] counts

(* property: map execution order does not matter — the interpreter result
   equals a reference loop for random inputs *)
let prop_vadd_random =
  QCheck2.Test.make ~count:50 ~name:"vector add matches reference"
    QCheck2.Gen.(list_size (int_range 1 20) (float_range (-100.) 100.))
    (fun xs ->
      let n = List.length xs in
      let g = Fixtures.vector_add () in
      let a = farr [| n |] (fun i -> List.nth xs (List.hd i)) in
      let b = farr [| n |] (fun i -> Float.of_int (List.hd i)) in
      let c = Tensor.create f64 [| n |] in
      ignore
        (Exec.run g ~symbols:[ ("N", n) ]
           ~args:[ ("A", a); ("B", b); ("C", c) ]);
      List.for_all2
        (fun got (i, x) -> Float.abs (got -. (x +. float_of_int i)) < 1e-9)
        (Tensor.to_float_list c)
        (List.mapi (fun i x -> (i, x)) xs))

let prop_histogram_counts =
  QCheck2.Test.make ~count:30 ~name:"histogram total equals pixel count"
    QCheck2.Gen.(int_range 1 10)
    (fun h ->
      let g = Fixtures.histogram () in
      let img =
        Tensor.init f64 [| h; h |] (fun idx ->
            T.F
              (Float.rem
                 (float_of_int ((List.hd idx * 13) + (List.nth idx 1 * 7)))
                 8.
               /. 8.))
      in
      let hist = Tensor.create i64 [| 8 |] in
      ignore
        (Exec.run g
           ~symbols:[ ("H", h); ("W", h); ("B", 8) ]
           ~args:[ ("image", img); ("hist", hist) ]);
      let total =
        List.fold_left ( +. ) 0. (Tensor.to_float_list hist)
      in
      int_of_float total = h * h)

let suite =
  [ ("vector add (Fig. 6)", `Quick, test_vector_add);
    ("map-reduce matmul (Fig. 9b)", `Quick, test_matmul_mapreduce);
    ("WCR matmul", `Quick, test_matmul_wcr);
    ("Laplace time loop (Fig. 2)", `Quick, test_laplace);
    ("SpMV with indirection (Fig. 4)", `Quick, test_spmv);
    ("Fibonacci consume scope (Fig. 8)", `Quick, test_fibonacci);
    ("data-dependent branching (Fig. 10a)", `Quick, test_branching);
    ("histogram with WCR", `Quick, test_histogram);
    ("nested SDFG loop (Fig. 10b)", `Quick, test_nested_sdfg) ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_vadd_random; prop_histogram_counts ]

(* --- interpreter edge cases --------------------------------------------------- *)

let test_stream_fifo_order () =
  (* a map pushes 0..N-1 into a stream; draining preserves FIFO order
     within the sequential interpreter *)
  let g, st = Builder.Build.single_state ~symbols:[ "N" ] "fifo" in
  let n = E.sym "N" in
  Sdfg_ir.Sdfg.add_array g "out" ~shape:[ n ] ~dtype:f64;
  Sdfg_ir.Sdfg.add_stream g "S" ~dtype:f64;
  ignore
    (Builder.Build.mapped_tasklet g st ~name:"push" ~params:[ "i" ]
       ~ranges:[ Symbolic.Subset.range E.zero (E.sub n E.one) ]
       ~ins:[]
       ~outs:
         [ Builder.Build.out_ ~dynamic:true "s" "S"
             [ Symbolic.Subset.index E.zero ] ]
       ~code:(`Src "s = i") ());
  let drain = Sdfg_ir.Sdfg.add_state g ~label:"drain" () in
  ignore
    (Sdfg_ir.Sdfg.add_transition g
       ~src:(Sdfg_ir.State.id (Sdfg_ir.Sdfg.start_state g))
       ~dst:(Sdfg_ir.State.id drain) ());
  let s_acc = Builder.Build.access drain "S" in
  let o_acc = Builder.Build.access drain "out" in
  Builder.Build.edge drain
    ~memlet:(Sdfg_ir.Memlet.dyn "S" [ Symbolic.Subset.index E.zero ])
    ~src:s_acc ~dst:o_acc ();
  ignore (Builder.Build.finalize g);
  let out = Tensor.create f64 [| 6 |] in
  ignore (Exec.run g ~symbols:[ ("N", 6) ] ~args:[ ("out", out) ]);
  check_floats "FIFO order" [ 0.; 1.; 2.; 3.; 4.; 5. ] out

(* Copies between a stream and an array walk the array-side memlet
   subset in row-major order: a column of a 3x2 array in, a column of a
   3x2 array out. *)
module Sub = Symbolic.Subset

let column = [ Sub.range E.zero (E.int 2); Sub.index E.one ]

(* A[0..2, 1] -> S -> X *)
let column_into_stream () =
  let g, st = Builder.Build.single_state "column_into_stream" in
  Sdfg_ir.Sdfg.add_array g "A" ~shape:[ E.int 3; E.int 2 ] ~dtype:f64;
  Sdfg_ir.Sdfg.add_array g "X" ~shape:[ E.int 3 ] ~dtype:f64;
  Sdfg_ir.Sdfg.add_stream g "S" ~transient:true ~dtype:f64;
  let a = Builder.Build.access st "A" and s = Builder.Build.access st "S" in
  let x = Builder.Build.access st "X" in
  Builder.Build.edge st ~memlet:(Sdfg_ir.Memlet.simple "A" column) ~src:a
    ~dst:s ();
  Builder.Build.edge st
    ~memlet:(Sdfg_ir.Memlet.dyn "S" [ Sub.index E.zero ])
    ~src:s ~dst:x ();
  Builder.Build.finalize g

(* a map pushes X[i] + 1 into S; S -> A[0..2, 1] *)
let stream_into_column () =
  let g, st = Builder.Build.single_state "stream_into_column" in
  Sdfg_ir.Sdfg.add_array g "X" ~shape:[ E.int 3 ] ~dtype:f64;
  Sdfg_ir.Sdfg.add_array g "A" ~shape:[ E.int 3; E.int 2 ] ~dtype:f64;
  Sdfg_ir.Sdfg.add_stream g "S" ~transient:true ~dtype:f64;
  let _, _, exit_ =
    Builder.Build.mapped_tasklet g st ~name:"push" ~params:[ "i" ]
      ~ranges:[ Sub.range E.zero (E.int 2) ]
      ~ins:[ Builder.Build.in_elem "x" "X" [ E.sym "i" ] ]
      ~outs:[ Builder.Build.out_ ~dynamic:true "s" "S" [ Sub.index E.zero ] ]
      ~code:(`Src "s = x + 1.0") ()
  in
  let s =
    match Sdfg_ir.State.out_edges st exit_ with
    | [ e ] -> e.Sdfg_ir.Defs.e_dst
    | _ -> assert false
  in
  let a = Builder.Build.access st "A" in
  Builder.Build.edge st ~memlet:(Sdfg_ir.Memlet.simple "A" column) ~src:s
    ~dst:a ();
  Builder.Build.finalize g

let engines =
  [ ("reference", Exec.Config.default);
    ("compiled", Exec.Config.(with_engine Plan.compiled default)) ]

let test_stream_copy_column_in () =
  List.iter
    (fun (name, config) ->
      let a = farr [| 3; 2 |] (function
        | [ i; j ] -> float_of_int ((2 * i) + j + 1) | _ -> 0.) in
      let x = Tensor.create f64 [| 3 |] in
      let r =
        Exec.run ~config (column_into_stream ()) ~args:[ ("A", a); ("X", x) ]
      in
      check_floats (name ^ ": X = A[:, 1]") [ 2.; 4.; 6. ] x;
      let c = r.R.r_counters in
      Alcotest.(check (list int)) (name ^ ": moved, pushes, pops") [ 6; 3; 3 ]
        [ c.R.elements_moved; c.R.stream_pushes; c.R.stream_pops ])
    engines

let test_stream_copy_column_out () =
  List.iter
    (fun (name, config) ->
      let x = farr [| 3 |] (fun i -> float_of_int (10 * (List.hd i + 1))) in
      let a = Tensor.create f64 [| 3; 2 |] in
      let r =
        Exec.run ~config (stream_into_column ()) ~args:[ ("X", x); ("A", a) ]
      in
      check_floats (name ^ ": A[:, 1] = X + 1")
        [ 0.; 11.; 0.; 21.; 0.; 31. ] a;
      let c = r.R.r_counters in
      Alcotest.(check (list int)) (name ^ ": moved, pushes, pops") [ 6; 3; 3 ]
        [ c.R.elements_moved; c.R.stream_pushes; c.R.stream_pops ])
    engines

(* A stream holding more elements than the destination subset fails
   before popping anything: the whole of A goes into S, S into a
   3-element column. *)
let test_stream_copy_overflow () =
  let g, st = Builder.Build.single_state "stream_overflow" in
  Sdfg_ir.Sdfg.add_array g "A" ~shape:[ E.int 3; E.int 2 ] ~dtype:f64;
  Sdfg_ir.Sdfg.add_array g "B" ~shape:[ E.int 3; E.int 2 ] ~dtype:f64;
  Sdfg_ir.Sdfg.add_stream g "S" ~transient:true ~dtype:f64;
  let a = Builder.Build.access st "A" and s = Builder.Build.access st "S" in
  let b = Builder.Build.access st "B" in
  Builder.Build.edge st
    ~memlet:(Sdfg_ir.Memlet.full "A" [ E.int 3; E.int 2 ])
    ~src:a ~dst:s ();
  Builder.Build.edge st ~memlet:(Sdfg_ir.Memlet.simple "B" column) ~src:s
    ~dst:b ();
  let g = Builder.Build.finalize g in
  List.iter
    (fun (name, config) ->
      let inst = Exec.Instance.create ~config g in
      let a = farr [| 3; 2 |] (fun _ -> 1.) in
      (match Exec.Instance.run inst ~args:[ ("A", a) ] with
      | exception Exec.Runtime_error msg ->
        Alcotest.(check string) (name ^ ": message")
          "copy \"S\" -> \"B\": stream holds 6 elements, destination \
           subset has 3"
          msg
      | _ -> Alcotest.fail "expected Runtime_error for an overfull stream");
      Alcotest.(check int) (name ^ ": nothing popped") 6
        (Array.length (Exec.Instance.stream_contents inst "S")))
    engines

let test_max_states_guard () =
  (* an infinite loop in the state machine is caught by the budget *)
  let g = Sdfg_ir.Sdfg.create "spin" in
  let s0 = Sdfg_ir.Sdfg.add_state g ~label:"spin" () in
  ignore
    (Sdfg_ir.Sdfg.add_transition g ~src:(Sdfg_ir.State.id s0)
       ~dst:(Sdfg_ir.State.id s0) ());
  (match
     Exec.run ~config:(Exec.Config.with_max_states 100 Exec.Config.default) g
   with
  | exception Exec.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected Runtime_error for unbounded loop")

let test_missing_container_error () =
  let g = Fixtures.vector_add () in
  (* run with an argument of the wrong shape: the first out-of-bounds
     access raises *)
  let a = Tensor.create f64 [| 3 |] in
  let b = Tensor.create f64 [| 8 |] in
  let c = Tensor.create f64 [| 8 |] in
  match
    Exec.run g ~symbols:[ ("N", 8) ] ~args:[ ("A", a); ("B", b); ("C", c) ]
  with
  | exception Tensor.Bounds _ -> ()
  | _ -> Alcotest.fail "expected Bounds for undersized argument"

let test_external_tasklet () =
  (* an External tasklet dispatches to its registered native
     implementation (paper Fig. 5's BLAS-call pattern) *)
  let g, st = Builder.Build.single_state ~symbols:[ "N" ] "ext" in
  let n = E.sym "N" in
  Sdfg_ir.Sdfg.add_array g "X" ~shape:[ n ] ~dtype:f64;
  Sdfg_ir.Sdfg.add_array g "Y" ~shape:[ n ] ~dtype:f64;
  ignore
    (Builder.Build.simple_tasklet g st ~name:"blas_dscal"
       ~ins:[ Builder.Build.in_ "x" "X" [ Symbolic.Subset.full n ] ]
       ~outs:[ Builder.Build.out_ "y" "Y" [ Symbolic.Subset.full n ] ]
       ~code:(`External ("CPP", "cblas_dscal(N, 2.0, x, 1);"))
       ());
  ignore (Builder.Build.finalize g);
  Exec.register_external "blas_dscal" (fun bindings ->
      match List.assoc "x" bindings, List.assoc "y" bindings with
      | Tasklang.Eval.Buffer (get, _), Tasklang.Eval.Buffer (_, set) ->
        for i = 0 to 4 do
          set [ i ] (T.F (2. *. T.to_float (get [ i ])))
        done
      | _ -> failwith "bad bindings");
  let x = farr [| 5 |] (fun i -> float_of_int (List.hd i)) in
  let y = Tensor.create f64 [| 5 |] in
  ignore (Exec.run g ~symbols:[ ("N", 5) ] ~args:[ ("X", x); ("Y", y) ]);
  check_floats "external tasklet ran" [ 0.; 2.; 4.; 6.; 8. ] y;
  (* an unregistered external tasklet raises *)
  let g2, st2 = Builder.Build.single_state ~symbols:[ "N" ] "ext2" in
  Sdfg_ir.Sdfg.add_array g2 "X" ~shape:[ E.sym "N" ] ~dtype:f64;
  ignore
    (Builder.Build.simple_tasklet g2 st2 ~name:"not_registered"
       ~ins:[ Builder.Build.in_ "x" "X" [ Symbolic.Subset.full (E.sym "N") ] ]
       ~outs:[] ~code:(`External ("CPP", "whatever();")) ());
  ignore (Builder.Build.finalize g2);
  match Exec.run g2 ~symbols:[ ("N", 2) ] with
  | exception Exec.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected Runtime_error for unregistered external"

let suite =
  suite
  @ [ ("stream FIFO ordering", `Quick, test_stream_fifo_order);
      ("stream copy from an array column", `Quick, test_stream_copy_column_in);
      ("stream copy into an array column", `Quick,
       test_stream_copy_column_out);
      ("stream copy overflowing its subset", `Quick, test_stream_copy_overflow);
      ("state-machine budget guard", `Quick, test_max_states_guard);
      ("bounds checking on bad arguments", `Quick, test_missing_container_error);
      ("external tasklets (Fig. 5)", `Quick, test_external_tasklet) ]
