(* exec-suite (in-process, closed loop, one caller).  One op is one pass
   of [Instance.run] over six programs planned in set-up, so an op's
   time is all execution in lib/interp: engine changes show here and
   compile-path changes should not.  The members cover every engine
   path:
   - kernel-lowered contract, ssum and ebinop maps (attention, jacobi);
   - the WCR-contraction fallback of Polybench gemm;
   - non-affine-indirect closure fallbacks (cfd, conv);
   - consume scopes drained through the reference interpreter (the
     window continuous query, run batch-style with its stream
     preloaded).
   Sizes give each member a comparable share of a pass. *)

module Exec = Interp.Exec
module Tensor = Interp.Tensor
module T = Tasklang.Types
module A = Workloads.Attention

(* Nominal passes per second; a run makes [seconds * rate] passes. *)
let rate = 100.

let setup_reps = 15

type member = {
  name : string;
  source : Pipeline.source;
  symbols : (string * int) list;
  pristine : (string * Tensor.t) list;
  stream_args : (string * T.value array) list;
}

let uniform rs shape =
  Tensor.init T.F64 shape (fun _ -> T.F (Random.State.float rs 2.0 -. 1.0))

(* Seeded data for the named float arguments; index arrays, scale
   factors and outputs keep the values the workload defines. *)
let reseed rs names args =
  List.map
    (fun (n, t) ->
      if List.mem n names && Tensor.dtype t = T.F64 then
        (n, uniform rs (Tensor.shape t))
      else (n, t))
    args

let members seed =
  let rs = Random.State.make [| 0x657865; seed |] in
  let text g = Pipeline.Sdfg_text (Sdfg_ir.Serialize.to_string g) in
  let member name source symbols pristine =
    { name; source; symbols; pristine; stream_args = [] }
  in
  let polybench name kernel symbols =
    let g = (Workloads.Polybench.find kernel).Workloads.Polybench.k_build () in
    let args = Interp.Profile.make_args ~symbols g in
    member name (text g) symbols (reseed rs (List.map fst args) args)
  in
  let gemm = polybench "gemm" "gemm" [ ("NI", 40); ("NJ", 40); ("NK", 40) ] in
  let jacobi = polybench "jacobi" "jacobi-2d" [ ("N", 64); ("T", 10) ] in
  let cfd =
    let symbols = [ ("NEL", 512); ("NP", 8); ("NDOF", 512 * 7) ] in
    member "cfd"
      (text (Workloads.Cfd.batched ()))
      symbols
      (reseed rs [ "u"; "D" ] (Workloads.Cfd.args symbols))
  in
  let attention =
    let symbols = [ ("M", 64); ("N", 64); ("D", 32) ] in
    member "attention" (Pipeline.Ndlang A.attention_src) symbols
      (reseed rs [ "Q"; "K"; "V" ] (A.attention_args symbols))
  in
  let conv =
    let symbols = [ ("P", 256); ("Q", 16); ("F", 64); ("PAD", 271) ] in
    member "conv" (Pipeline.Ndlang A.conv_src) symbols
      (reseed rs [ "ImF"; "Wf" ] (A.conv_args symbols))
  in
  let window =
    let g = Workloads.Streaming.query_window () in
    let symbols = [ ("W", 8); ("P", 4) ] in
    let values =
      Array.init 64 (fun _ -> T.F (Random.State.float rs 2.0 -. 1.0))
    in
    { (member "stream-window" (text g) symbols
         (Interp.Profile.make_args ~symbols g))
      with
      stream_args = [ ("in_q", values) ] }
  in
  [ gemm; jacobi; cfd; attention; conv; window ]

let digest members =
  let member m =
    String.concat ";"
      [ m.name;
        Digest.string (Pipeline.source_text m.source);
        String.concat ","
          (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) m.symbols);
        String.concat ","
          (List.map (fun (n, t) -> n ^ Pipeline.digest t) m.pristine);
        Digest.string (Marshal.to_string m.stream_args []) ]
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.map member members)))

type planned = {
  m : member;
  graph : Sdfg_ir.Sdfg.t;
  inst : Exec.Instance.t;
  work : (string * Tensor.t) list;
  first_run : Obs.Report.t;
}

(* Set-up as a deployment does it: load each text, instantiate, and run
   twice so every lazily compiled plan exists before the first op.
   Input copies are made beforehand, so only system calls are timed. *)
let set_up tr members =
  let inputs =
    List.map
      (fun m ->
        (m, Pipeline.clone_args m.pristine, Pipeline.clone_args m.pristine))
      members
  in
  Report.setup_rep ~cores:1 (fun () ->
      List.map
        (fun (m, first, second) ->
          let graph, _ = Pipeline.load tr m.source in
          let inst = Pipeline.create tr ~symbols:m.symbols graph in
          let first_run =
            Pipeline.warm tr ~stream_args:m.stream_args inst ~first ~second
          in
          { m; graph; inst; work = second; first_run })
        inputs)

(* Reference-engine outputs, computed once per run outside set-up: the
   bit-exact oracle every pass is checked against. *)
let reference p =
  let inst =
    Exec.Instance.create ~config:Pipeline.reference_config
      ~symbols:p.m.symbols p.graph
  in
  let args = Pipeline.clone_args p.m.pristine in
  ignore (Exec.Instance.run ~args ~stream_args:p.m.stream_args inst);
  args

let run ~tr ~seed ~seconds =
  let members = members seed in
  (* Only the last repetition's instances are kept: the earlier ones are
     garbage by the next repetition's collection. *)
  let rec set_ups k times =
    let planned, t = set_up tr members in
    if k = 1 then (planned, List.rev (t :: times)) else set_ups (k - 1) (t :: times)
  in
  let planned, setup = set_ups setup_reps [] in
  let expected = List.map reference planned in
  let passes = max 10 (int_of_float (Float.round (seconds *. rate))) in
  let k = List.length planned in
  let run_ns = Array.make_matrix k passes 0 in
  let words = Array.make_matrix k passes 0. in
  let moved = Array.make k 0 in
  let latencies = Array.make passes 0 in
  let drift = Report.drift ~cores:1 10 in
  let failed = ref 0 in
  let restore () =
    List.iter (fun p -> Pipeline.restore ~pristine:p.m.pristine p.work) planned
  in
  restore ();
  let gcs = (Gc.quick_stat ()).Gc.major_collections in
  for pass = 0 to passes - 1 do
    Report.tick drift pass;
    let (), dt =
      Tr.op tr pass (fun () ->
          List.iteri
            (fun i p ->
              let w = Gc.minor_words () in
              let r, d =
                Tr.time (fun () ->
                    Pipeline.run tr ~stream_args:p.m.stream_args ~args:p.work
                      p.inst)
              in
              words.(i).(pass) <- Gc.minor_words () -. w;
              run_ns.(i).(pass) <- d;
              moved.(i) <- r.Obs.Report.r_counters.Obs.Report.elements_moved)
            planned)
    in
    latencies.(pass) <- dt;
    let ok =
      List.map2
        (fun p want -> Pipeline.outputs_match ~expected:want p.work)
        planned expected
    in
    if List.mem false ok then incr failed;
    restore ()
  done;
  Report.finish drift passes;
  let gcs = (Gc.quick_stat ()).Gc.major_collections - gcs in
  let median_ns i = Tr.median (Array.to_list (Array.map float_of_int run_ns.(i))) in
  let kernels, fallbacks, fallback_nodes =
    List.fold_left
      (fun (a, b, c) p ->
        let x, y, z = Pipeline.coverage p.first_run in
        (a + x, b + y, c + z))
      (0, 0, 0) planned
  in
  let per_member f = List.concat (List.mapi f planned) in
  { Report.attempted = passes;
    failed = !failed;
    latencies_ns = latencies;
    concurrency = 1;
    window = max 1 (passes / 20);
    drift;
    setup;
    rss_mb = Report.peak_rss_mb "self";
    digest = digest members;
    values =
      [ ( "core.ir_nodes",
          float_of_int
            (List.fold_left (fun n p -> n + Pipeline.ir_nodes p.graph) 0 planned) );
        ("interp.kernel_maps", float_of_int kernels);
        ("interp.kernel_fallbacks", float_of_int fallbacks);
        ("interp.fallback_nodes", float_of_int fallback_nodes) ];
    notes =
      per_member (fun i p ->
          [ ("run_ms." ^ p.m.name, median_ns i /. 1e6);
            ("interp.elements_moved." ^ p.m.name, float_of_int moved.(i));
            (* 8-byte elements over the median run: bytes per ns = GB/s *)
            ( "interp.gbps." ^ p.m.name,
              float_of_int (8 * moved.(i)) /. median_ns i );
            ("interp.minor_words." ^ p.m.name, Tr.median (Array.to_list words.(i)))
          ])
      @ [ ("interp.major_gcs_per_pass", float_of_int gcs /. float_of_int passes) ];
    tracers = [ tr ] }
