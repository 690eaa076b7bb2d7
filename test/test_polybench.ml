(* Polybench-over-SDFG tests (paper §5): every kernel must build, validate,
   execute under the interpreter at mini sizes, and survive the automatic
   GPUTransform offload with bit-identical results — the §5 methodology
   ("apply the FPGATransform/GPUTransform to offload each Polybench
   application ... use our simulation flow to verify correctness"). *)

module T = Tasklang.Types
open Sdfg_ir
open Interp

(* Allocate arguments for a kernel's containers at the given sizes. *)
let alloc_args g sizes =
  Sdfg.descs g
  |> List.filter_map (fun (name, d) ->
         if Defs.ddesc_transient d || Defs.ddesc_is_stream d then None
         else
           let shape =
             Defs.ddesc_shape d
             |> List.map (fun e -> Symbolic.Expr.eval_list sizes e)
             |> Array.of_list
           in
           let seed = Hashtbl.hash name in
           let t =
             Tensor.init (Defs.ddesc_dtype d) shape (fun idx ->
                 let h =
                   List.fold_left (fun acc i -> (acc * 31) + i + 1) seed idx
                 in
                 (* diagonally-dominant-ish values keep solvers stable *)
                 let base = float_of_int (h mod 97) /. 97. in
                 match idx with
                 | [ a; b ] when a = b -> T.F (4.0 +. base)
                 | _ -> T.F (0.1 +. (base /. 2.)))
           in
           Some (name, t))

let run_kernel (k : Workloads.Polybench.kernel) =
  let g = k.k_build () in
  Validate.check g;
  let args = alloc_args g k.k_mini in
  let stats = Exec.run g ~symbols:k.k_mini ~args in
  (args, stats)

let snapshot args =
  List.concat_map (fun (name, t) ->
      List.mapi (fun i v -> (name, i, v)) (Tensor.to_float_list t))
    args

let test_kernel_runs name () =
  let k = Workloads.Polybench.find name in
  let _, stats = run_kernel k in
  Alcotest.(check bool)
    (name ^ " executed tasklets")
    true
    (stats.Obs.Report.r_counters.Obs.Report.tasklet_execs > 0)

let test_gpu_offload name () =
  let k = Workloads.Polybench.find name in
  (* reference run *)
  let args_ref, _ = run_kernel k in
  (* GPU-offloaded run *)
  let g = k.k_build () in
  Transform.Xform.apply_first_exn g Transform.Device_xforms.gpu_transform;
  let args = alloc_args g k.k_mini in
  ignore (Exec.run g ~symbols:k.k_mini ~args);
  let r = snapshot args_ref and o = snapshot args in
  List.iter2
    (fun (n1, i1, v1) (n2, i2, v2) ->
      if not (String.equal n1 n2 && i1 = i2) then
        Alcotest.failf "%s: argument mismatch" name;
      if
        Float.abs (v1 -. v2) > 1e-9 *. (1. +. Float.abs v1)
        && not (Float.is_nan v1 && Float.is_nan v2)
      then
        Alcotest.failf "%s: %s[%d] differs after GPUTransform: %g vs %g" name
          n1 i1 v1 v2)
    r o

(* Spot-check gemm against a reference implementation. *)
let test_gemm_reference () =
  let k = Workloads.Polybench.find "gemm" in
  let g = k.k_build () in
  let sizes = [ ("NI", 4); ("NJ", 3); ("NK", 5) ] in
  let mk name shape f = (name, Tensor.init Tasklang.Types.F64 shape f) in
  let a =
    mk "A" [| 4; 5 |] (fun idx ->
        match idx with [ i; j ] -> T.F (float_of_int ((i * 5) + j)) | _ -> T.F 0.)
  in
  let b =
    mk "B" [| 5; 3 |] (fun idx ->
        match idx with [ i; j ] -> T.F (float_of_int (i - j)) | _ -> T.F 0.)
  in
  let c = mk "C" [| 4; 3 |] (fun _ -> T.F 1.) in
  let args = [ a; b; c ] in
  ignore (Exec.run g ~symbols:sizes ~args);
  let expect i j =
    let acc = ref (1.2 (* beta * 1.0 *)) in
    for k = 0 to 4 do
      acc := !acc +. (1.5 *. float_of_int ((i * 5) + k) *. float_of_int (k - j))
    done;
    !acc
  in
  for i = 0 to 3 do
    for j = 0 to 2 do
      Alcotest.(check (float 1e-9))
        (Fmt.str "C[%d,%d]" i j)
        (expect i j)
        (T.to_float (Tensor.get (snd c) [ i; j ]))
    done
  done

(* Spot-check floyd-warshall against a reference. *)
let test_floyd_reference () =
  let k = Workloads.Polybench.find "floyd-warshall" in
  let g = k.k_build () in
  let n = 5 in
  let init i j = float_of_int (((i * 7) + (j * 13)) mod 9) +. 1. in
  let path =
    Tensor.init Tasklang.Types.F64 [| n; n |] (fun idx ->
        match idx with
        | [ i; j ] -> T.F (if i = j then 0. else init i j)
        | _ -> T.F 0.)
  in
  ignore (Exec.run g ~symbols:[ ("N", n) ] ~args:[ ("path", path) ]);
  (* reference *)
  let d = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else init i j)) in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) +. d.(k).(j) < d.(i).(j) then
          d.(i).(j) <- d.(i).(k) +. d.(k).(j)
      done
    done
  done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Alcotest.(check (float 1e-9))
        (Fmt.str "path[%d,%d]" i j)
        d.(i).(j)
        (T.to_float (Tensor.get path [ i; j ]))
    done
  done

(* Spot-check jacobi-2d against a reference. *)
let test_jacobi2d_reference () =
  let k = Workloads.Polybench.find "jacobi-2d" in
  let g = k.k_build () in
  let n = 6 and t = 2 in
  let f i j = float_of_int (i + (2 * j)) /. 7. in
  let a =
    Tensor.init Tasklang.Types.F64 [| n; n |] (fun idx ->
        match idx with [ i; j ] -> T.F (f i j) | _ -> T.F 0.)
  in
  let b = Tensor.create Tasklang.Types.F64 [| n; n |] in
  ignore
    (Exec.run g ~symbols:[ ("N", n); ("T", t) ] ~args:[ ("A", a); ("B", b) ]);
  let ra = Array.init n (fun i -> Array.init n (fun j -> f i j)) in
  let rb = Array.make_matrix n n 0. in
  for _ = 1 to t do
    for i = 1 to n - 2 do
      for j = 1 to n - 2 do
        rb.(i).(j) <-
          0.2
          *. (ra.(i).(j) +. ra.(i - 1).(j) +. ra.(i + 1).(j) +. ra.(i).(j - 1)
              +. ra.(i).(j + 1))
      done
    done;
    for i = 1 to n - 2 do
      for j = 1 to n - 2 do
        ra.(i).(j) <-
          0.2
          *. (rb.(i).(j) +. rb.(i - 1).(j) +. rb.(i + 1).(j) +. rb.(i).(j - 1)
              +. rb.(i).(j + 1))
      done
    done
  done;
  for i = 1 to n - 2 do
    for j = 1 to n - 2 do
      Alcotest.(check (float 1e-9))
        (Fmt.str "A[%d,%d]" i j)
        ra.(i).(j)
        (T.to_float (Tensor.get a [ i; j ]))
    done
  done

(* durbin against a plain Levinson-Durbin recursion, following the
   builder: [acc] starts from [r[k]] and adds the products in [j]
   order. *)
let test_durbin_reference () =
  let k = Workloads.Polybench.find "durbin" in
  let n = 8 in
  let r0 i = 0.5 /. float_of_int (i + 2) in
  let expect =
    let r = Array.init n r0 and y = Array.make n 0. and z = Array.make n 0. in
    y.(0) <- -.r.(0);
    let alpha = ref (-.r.(0)) and beta = ref 1.0 in
    for k = 1 to n - 1 do
      let b2 = (1.0 -. (!alpha *. !alpha)) *. !beta in
      let acc = ref r.(k) in
      for j = 0 to k - 1 do acc := !acc +. (r.(k - j - 1) *. y.(j)) done;
      let a2 = -. !acc /. b2 in
      for j = 0 to k - 1 do z.(j) <- y.(j) +. (a2 *. y.(k - j - 1)) done;
      Array.blit z 0 y 0 k;
      y.(k) <- a2;
      alpha := a2;
      beta := b2
    done;
    y
  in
  List.iter
    (fun (tag, engine) ->
      let rv = Tensor.init T.F64 [| n |] (function [ i ] -> T.F (r0 i) | _ -> T.F 0.) in
      let y = Tensor.create T.F64 [| n |] in
      ignore
        (Exec.run (k.k_build ())
           ~config:Exec.Config.(default |> with_engine engine)
           ~symbols:[ ("N", n) ]
           ~args:[ ("rv", rv); ("y", y) ]);
      Array.iteri
        (fun i want ->
          Alcotest.(check (float (1e-9 *. Float.abs want)))
            (Fmt.str "%s: y[%d]" tag i)
            want
            (T.to_float (Tensor.get y [ i ])))
        expect)
    [ ("reference", Plan.reference); ("compiled", Plan.compiled) ]

(* Every state of a graph is reachable from its start state along the
   interstate edges. *)
let unreachable g =
  let seen = Hashtbl.create 16 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      List.iter
        (fun (e : Defs.istate_edge) -> visit e.Defs.is_dst)
        (Sdfg.out_transitions g id)
    end
  in
  visit (State.id (Sdfg.start_state g));
  List.filter_map
    (fun st -> if Hashtbl.mem seen (State.id st) then None else Some (State.label st))
    (Sdfg.states g)

(* Every CLI program, the engine kernels and the fuzz corpus. *)
let programs () =
  List.map
    (fun (k : Workloads.Polybench.kernel) -> (k.k_name, k.k_build))
    Workloads.Polybench.all
  @ Workloads.
      [ ("mm", Kernels.matmul); ("mm-mapreduce", Kernels.matmul_mapreduce);
        ("histogram", Kernels.histogram); ("query", Kernels.query);
        ("spmv", Kernels.spmv); ("copy", Kernels.copy); ("eadd", Kernels.eadd);
        ("axpy", Kernels.axpy); ("bfs", Graphs.bfs);
        ("sse-batched", Sse.batched); ("sse-naive", Sse.naive);
        ("cfd-batched", Cfd.batched); ("cfd-naive", Cfd.naive);
        ("attention", Attention.base); ("attention-tiled", Attention.tiled);
        ("conv-im2col", Attention.conv_im2col);
        ("conv-direct", Attention.conv_direct) ]
  @ List.map
      (fun path -> (path, fun () -> Serialize.load path))
      (Test_fuzz.corpus_files ())

let test_states_reachable () =
  List.iter
    (fun (name, build) ->
      Alcotest.(check (list string))
        (name ^ ": unreachable states") [] (unreachable (build ())))
    (programs ())

let suite =
  List.map
    (fun name ->
      (Fmt.str "%s builds+runs" name, `Quick, test_kernel_runs name))
    Workloads.Polybench.names
  @ List.map
      (fun name ->
        (Fmt.str "%s GPU offload invariant" name, `Quick, test_gpu_offload name))
      Workloads.Polybench.names
  @ [ ("gemm matches reference", `Quick, test_gemm_reference);
      ("floyd-warshall matches reference", `Quick, test_floyd_reference);
      ("jacobi-2d matches reference", `Quick, test_jacobi2d_reference);
      ("durbin matches its reference", `Quick, test_durbin_reference);
      ("every state is reachable from the start state", `Quick,
        test_states_reachable) ]
