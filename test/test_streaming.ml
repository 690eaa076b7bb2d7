(* Streaming execution (ISSUE: stream channels + consume-scope
   workers).

   Three layers under test: the bounded channel primitive
   ({!Interp.Stream}), the pipeline verdict
   ({!Analysis.Races.analyze_pipeline}), and the end-to-end contract of
   {!Interp.Exec.Instance.run_streaming} — chunked feeding must
   reproduce the batch baseline ([run ~stream_args] + [stream_contents])
   bit-for-bit on both engines, whether the graph pipelines or degrades
   to a single batch run, and no channel may ever hold more elements
   than its capacity. *)

module T = Tasklang.Types
module R = Obs.Report
module Races = Analysis.Races
module Stream = Interp.Stream
module I = Interp.Exec.Instance
module Tensor = Interp.Tensor
open Sdfg_ir
open Interp

let domains =
  match Sys.getenv_opt "SDFG_DOMAINS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 2)
  | None -> 2

(* --- the channel primitive --------------------------------------------- *)

let test_channel_fifo () =
  let c = Stream.create ~name:"c" ~capacity:8 () in
  for i = 0 to 5 do
    Stream.push c i
  done;
  Alcotest.(check int) "length" 6 (Stream.length c);
  Stream.close c;
  let rec drain acc =
    match Stream.pop c with Some v -> drain (v :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2; 3; 4; 5 ] (drain []);
  Alcotest.(check (option int)) "EOS is sticky" None (Stream.pop c)

let test_channel_zero_trip () =
  let c = Stream.create ~capacity:4 () in
  Alcotest.(check (option int)) "try_pop empty" None (Stream.try_pop c);
  Stream.close c;
  Alcotest.(check (option int)) "pop on closed empty" None (Stream.pop c);
  let s = Stream.stats c in
  Alcotest.(check int) "no pushes" 0 s.R.pc_pushes;
  Alcotest.(check int) "no pops" 0 s.R.pc_pops;
  Alcotest.(check int) "hwm zero" 0 s.R.pc_depth_hwm

let test_channel_capacity_clamp () =
  let c = Stream.create ~capacity:(-3) () in
  Alcotest.(check int) "clamped to 1" 1 (Stream.capacity c)

let test_channel_closed_push () =
  let c = Stream.create ~name:"dead" ~capacity:2 () in
  Stream.close c;
  Stream.close c (* idempotent *);
  Alcotest.check_raises "push after close" (Stream.Closed "dead") (fun () ->
      Stream.push c 1)

(* A producer on another domain blocks on the full channel until the
   consumer drains; everything pushed arrives in order and the depth
   high-water mark respects the capacity. *)
let test_channel_backpressure () =
  let c = Stream.create ~capacity:2 () in
  let n = 100 in
  let prod =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Stream.push c i
        done;
        Stream.close c)
  in
  let rec drain acc =
    match Stream.pop c with Some v -> drain (v :: acc) | None -> List.rev acc
  in
  let got = drain [] in
  Domain.join prod;
  Alcotest.(check int) "all elements" n (List.length got);
  Alcotest.(check (list int)) "in order" (List.init n Fun.id) got;
  let s = Stream.stats c in
  Alcotest.(check bool) "hwm within capacity" true (s.R.pc_depth_hwm <= 2);
  Alcotest.(check int) "pushes" n s.R.pc_pushes;
  Alcotest.(check int) "pops" n s.R.pc_pops

(* A consumer blocked on an empty channel wakes on close and reports
   EOS rather than hanging. *)
let test_channel_close_wakes_consumer () =
  let c = Stream.create ~capacity:4 () in
  let cons = Domain.spawn (fun () -> Stream.pop c) in
  Unix.sleepf 0.01;
  Stream.close c;
  Alcotest.(check (option int)) "woken with EOS" None (Domain.join cons)

(* Every metric a channel keeps is filled: the producer blocks on the
   full channel while the consumer sleeps, and the consumer blocks on
   the empty one while the producer sleeps before closing. *)
let test_channel_stats_fields () =
  let c = Stream.create ~name:"s" ~capacity:2 () in
  let ready = Atomic.make false in
  let prod =
    Domain.spawn (fun () ->
        Stream.push c 0;
        Stream.push c 1;
        Atomic.set ready true;
        Stream.push c 2 (* full: blocks until the consumer pops *);
        while Atomic.get ready do
          Domain.cpu_relax ()
        done;
        Unix.sleepf 0.02;
        Stream.close c)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.02;
  let got = List.filter_map (fun _ -> Stream.pop c) [ (); (); () ] in
  Atomic.set ready false;
  Alcotest.(check (option int)) "EOS after close" None (Stream.pop c);
  Domain.join prod;
  Alcotest.(check (list int)) "elements" [ 0; 1; 2 ] got;
  let s = Stream.stats c in
  Alcotest.(check string) "name" "s" s.R.pc_name;
  Alcotest.(check int) "capacity" 2 s.R.pc_capacity;
  Alcotest.(check int) "pushes" 3 s.R.pc_pushes;
  Alcotest.(check int) "pops" 3 s.R.pc_pops;
  Alcotest.(check int) "depth high-water mark" 2 s.R.pc_depth_hwm;
  Alcotest.(check bool) "push blocked" true (s.R.pc_push_blocked_s > 0.);
  Alcotest.(check bool) "pop blocked" true (s.R.pc_pop_blocked_s > 0.)

(* --- unbounded batch streams ------------------------------------------- *)

let test_unbounded_empty () =
  let s = Stream.create () in
  Alcotest.(check (option int)) "pop does not block" None (Stream.pop s);
  Alcotest.(check (option int)) "try_pop" None (Stream.try_pop s);
  Alcotest.(check int) "capacity 0: unbounded" 0 (Stream.capacity s)

let test_to_list_and_clear () =
  let n = 1000 (* past any channel capacity: never blocks *) in
  let s = Stream.create () in
  for i = 0 to n - 1 do
    Stream.push s i
  done;
  Alcotest.(check (list int)) "to_list in pop order" (List.init n Fun.id)
    (Stream.to_list s);
  Alcotest.(check int) "to_list removes nothing" n (Stream.length s);
  Alcotest.(check (option int)) "head intact" (Some 0) (Stream.pop s);
  Stream.clear s;
  Alcotest.(check int) "clear empties" 0 (Stream.length s);
  Alcotest.(check (option int)) "nothing left" None (Stream.try_pop s);
  let c = Stream.create ~capacity:4 () in
  List.iter (Stream.push c) [ 7; 8; 9 ];
  ignore (Stream.pop c);
  Stream.push c 10 (* wraps the ring *);
  Alcotest.(check (list int)) "channel to_list" [ 8; 9; 10 ] (Stream.to_list c);
  Alcotest.(check int) "channel keeps its elements" 3 (Stream.length c);
  Stream.clear c;
  Alcotest.(check (option int)) "channel cleared" None (Stream.try_pop c)

(* --- the pipeline verdict ---------------------------------------------- *)

let verdict g =
  Races.pipeline_code (Races.analyze_pipeline g (Sdfg.start_state g))

let stage_streams g =
  match Races.analyze_pipeline g (Sdfg.start_state g) with
  | Races.Pipeline stages ->
    List.map (fun (s : Races.pipeline_stage) -> s.pl_stream) stages
  | Races.No_pipeline _ -> []

let test_verdict_workloads () =
  Alcotest.(check string) "window" "pipeline"
    (verdict (Workloads.Streaming.query_window ()));
  Alcotest.(check (list string)) "window stages" [ "in_q"; "mid" ]
    (stage_streams (Workloads.Streaming.query_window ()));
  Alcotest.(check string) "filter" "pipeline"
    (verdict (Workloads.Streaming.query_filter ()));
  Alcotest.(check (list string)) "topk stages (batch order)"
    [ "in_q"; "c1"; "c2"; "c3" ]
    (stage_streams (Workloads.Streaming.query_topk ()))

let test_verdict_rejections () =
  (* fibonacci keeps non-access work (its seed tasklet) outside the
     consume scope, which already denies the stage decomposition *)
  Alcotest.(check string) "fibonacci" "non-stream-compute"
    (verdict (Fixtures.fibonacci ()));
  (* a plain map graph has no consume scope at all *)
  Alcotest.(check string) "matmul has no stages" "no-consume"
    (verdict (Workloads.Kernels.matmul ()))

(* --- chunked streaming vs the batch baseline --------------------------- *)

let config ?(engine = Plan.reference) ?(chunk = 5) () =
  Exec.Config.(
    default |> with_engine engine |> with_domains domains
    |> with_stream_chunk chunk)

let feed n = Workloads.Streaming.sample_values n 7

let value_bits (v : T.value) =
  match v with
  | T.F f -> Int64.to_string (Int64.bits_of_float f)
  | T.I n -> string_of_int n
  | T.B b -> string_of_bool b

let check_values tag want got =
  Alcotest.(check (list string))
    tag
    (List.map value_bits (Array.to_list want))
    (List.map value_bits (Array.to_list got))

let check_tensors tag want got =
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) (tag ^ ": arg order") n1 n2;
      Alcotest.(check (list int64))
        (Fmt.str "%s: %S byte-identical" tag n1)
        (Test_crossval.tensor_bits t1) (Test_crossval.tensor_bits t2))
    want got

(* Run one workload chunked and batch under [config]; check the output
   stream and every output tensor agree bitwise, and return the chunked
   run's report for metric assertions. *)
let crossval cfg (name, mk, input, output, syms) =
  let g = mk () in
  let values = feed 83 in
  let batch_args = Interp.Profile.make_args ~symbols:syms g in
  let batch = I.create ~config:cfg ~symbols:syms g in
  ignore (I.run ~args:batch_args ~stream_args:[ (input, values) ] batch);
  let batch_out =
    match output with None -> [||] | Some o -> I.stream_contents batch o
  in
  let args = Interp.Profile.make_args ~symbols:syms g in
  let inst = I.create ~config:cfg ~symbols:syms g in
  let got = ref [] in
  let rep =
    I.run_streaming ~args ~input ?output
      ~sink:(fun c -> got := c :: !got)
      ~source:(Workloads.Streaming.chunked_source values 5)
      inst
  in
  check_values (name ^ ": output stream") batch_out
    (Array.concat (List.rev !got));
  check_tensors (name ^ ": tensors") batch_args args;
  rep

let each_workload f = List.iter f Workloads.Streaming.all

let test_crossval_reference () =
  each_workload (fun w -> ignore (crossval (config ()) w))

let test_crossval_compiled () =
  each_workload (fun w ->
      ignore (crossval (config ~engine:Plan.compiled ()) w))

let test_crossval_chunk_one () =
  each_workload (fun w -> ignore (crossval (config ~chunk:1 ()) w))

(* [mk] with every stream declared [n] slots deep. *)
let with_buffers n mk () =
  let g = mk () in
  List.iter
    (fun (name, d) ->
      match d with
      | Defs.Stream s ->
        Sdfg.replace_desc g name
          (Defs.Stream { s with s_buffer = Symbolic.Expr.int n })
      | Defs.Array _ -> ())
    (Sdfg.descs g);
  g

(* The pipelined run surfaces per-channel and per-worker metrics, and
   backpressure keeps every channel within its capacity — including
   when every stream is declared a single slot deep. *)
let test_metrics_and_backpressure () =
  each_workload (fun (name, mk, input, output, syms) ->
      List.iter
        (fun capacity ->
          let mk =
            match capacity with Some n -> with_buffers n mk | None -> mk
          in
          let cfg = config ~engine:Plan.compiled () in
          let rep = crossval cfg (name, mk, input, output, syms) in
          match rep.R.r_parallel with
          | None -> Alcotest.failf "%s: no parallel section" name
          | Some p ->
            Alcotest.(check bool)
              (name ^ ": has workers") true
              (p.R.par_workers <> []);
            Alcotest.(check bool)
              (name ^ ": has channels") true
              (p.R.par_channels <> []);
            List.iter
              (fun (c : R.channel_stat) ->
                if c.pc_depth_hwm > c.pc_capacity then
                  Alcotest.failf "%s: channel %s hwm %d > capacity %d" name
                    c.pc_name c.pc_depth_hwm c.pc_capacity;
                match capacity with
                | Some n ->
                  Alcotest.(check int)
                    (name ^ ": declared capacity") n c.pc_capacity
                | None -> ())
              p.R.par_channels)
        [ None; Some 1 ])

(* Appending an unrelated empty state denies the single-state pipeline
   precondition, so run_streaming degrades to one batch run — with
   identical results and no channel metrics. *)
let test_degrade_path () =
  let g = Workloads.Streaming.query_filter () in
  let main = List.hd (Sdfg.states g) in
  let tail = Sdfg.add_state g ~label:"tail" () in
  ignore
    (Sdfg.add_transition g ~src:(State.id main) ~dst:(State.id tail) ());
  Alcotest.(check int) "two states" 2 (List.length (Sdfg.states g));
  let values = feed 40 in
  let batch = I.create ~config:(config ()) ~symbols:[ ("P", 4) ] g in
  ignore (I.run ~stream_args:[ ("in_q", values) ] batch);
  let inst = I.create ~config:(config ()) ~symbols:[ ("P", 4) ] g in
  let got = ref [] in
  let rep =
    I.run_streaming ~input:"in_q" ~output:"out_q"
      ~sink:(fun c -> got := c :: !got)
      ~source:(Workloads.Streaming.chunked_source values 5)
      inst
  in
  check_values "degraded output = batch"
    (I.stream_contents batch "out_q")
    (Array.concat (List.rev !got));
  match rep.R.r_parallel with
  | Some p when p.R.par_channels <> [] ->
    Alcotest.fail "degraded run reported channels"
  | _ -> ()

(* Counters: the chunked pipelined run must report the same stream and
   iteration totals as the batch baseline (drain pops are uncounted on
   both paths). *)
let test_counter_parity () =
  each_workload (fun (name, mk, input, output, syms) ->
      let g = mk () in
      let values = feed 60 in
      let batch = I.create ~config:(config ()) ~symbols:syms g in
      let rb = I.run ~stream_args:[ (input, values) ] batch in
      let inst = I.create ~config:(config ()) ~symbols:syms g in
      let rs =
        I.run_streaming ~input ?output
          ~source:(Workloads.Streaming.chunked_source values 5)
          inst
      in
      Alcotest.(check (list int))
        (name ^ ": counters match batch")
        (Test_crossval.counter_list rb.R.r_counters)
        (Test_crossval.counter_list rs.R.r_counters))

(* --- batch consume scopes on the compiled engine -------------------------- *)

(* The compiled engine runs a top-level consume scope over a single-queue
   stream as the reference's pop-until-empty loop around a compiled body.
   The reference stays the oracle: identical bits, counters and timer-tree
   shapes, and every node left on the reference path is a top-level
   access node (copies and no-op wiring), never a consume scope. *)

let kernels_query =
  ("query", Workloads.Kernels.query, [ ("N", 64) ])

(* The query kernel's column, with values on both sides of its 0.5
   threshold. *)
let query_args syms g =
  List.map
    (fun (n, t) ->
      if n = "column" then
        let vs = feed (Tensor.num_elements t) in
        (n, Tensor.init T.F64 (Tensor.shape t) (fun idx -> vs.(List.hd idx)))
      else (n, t))
    (Interp.Profile.make_args ~symbols:syms g)

let batch_config engine =
  Exec.Config.(default |> with_engine engine |> with_domains domains)

(* Batch run of a continuous query: stream preloaded, one Instance.run. *)
let run_batch engine (_, mk, input, output, syms) values =
  let g = mk () in
  let args = Interp.Profile.make_args ~symbols:syms g in
  let inst = I.create ~config:(batch_config engine) ~symbols:syms g in
  let rep = I.run ~args ~stream_args:[ (input, values) ] inst in
  let out =
    match output with None -> [||] | Some o -> I.stream_contents inst o
  in
  (rep, args, out)

let check_counters tag (want : R.t) (got : R.t) =
  Alcotest.(check (list int))
    (tag ^ ": counters identical across engines")
    (Test_crossval.counter_list want.R.r_counters)
    (Test_crossval.counter_list got.R.r_counters)

let coverage tag (r : R.t) =
  match r.R.r_coverage with
  | Some c -> c
  | None -> Alcotest.failf "%s: compiled run without plan coverage" tag

let test_batch_engines_agree () =
  let values = feed 97 in
  each_workload (fun ((name, _, _, _, _) as w) ->
      let rr, ra, ro = run_batch Plan.reference w values in
      let cr, ca, co = run_batch Plan.compiled w values in
      check_values (name ^ ": output stream") ro co;
      check_tensors (name ^ ": tensors") ra ca;
      check_counters name rr cr);
  let name, mk, syms = kernels_query in
  let run engine =
    let g = mk () in
    let args = query_args syms g in
    (Exec.run ~config:(batch_config engine) ~symbols:syms ~args g, args)
  in
  let rr, ra = run Plan.reference and cr, ca = run Plan.compiled in
  check_tensors (name ^ ": tensors") ra ca;
  check_counters name rr cr;
  Alcotest.(check bool)
    (name ^ ": some samples filtered out") true
    (rr.R.r_counters.R.stream_pushes < 64)

let test_batch_consume_compiled () =
  let values = feed 33 in
  each_workload (fun ((name, _, _, _, _) as w) ->
      let rep, _, _ = run_batch Plan.compiled w values in
      let c = coverage name rep in
      Alcotest.(check int)
        (name ^ ": nothing on the reference path") 0 c.R.cov_fallback);
  let rep, _, _ =
    run_batch Plan.compiled (List.hd Workloads.Streaming.all) values
  in
  Alcotest.(check int) "window: inner [w] map lowered to a kernel" 1
    (List.fold_left (fun n (_, k) -> n + k) 0
       (coverage "window" rep).R.cov_kernels);
  let name, mk, syms = kernels_query in
  let g = mk () in
  let r =
    Exec.run ~config:(batch_config Plan.compiled) ~symbols:syms
      ~args:(query_args syms g) g
  in
  Alcotest.(check int)
    (name ^ ": the stream-pushing tasklet compiles; the drain copy falls back")
    1 (coverage name r).R.cov_fallback

(* [g] with an array [feed] copied into its input stream at the start of
   the state, so Exec.run (which takes no stream arguments) can drive the
   batch path — and with it the instrumented engines. *)
let fed (_, mk, input, _, _) n () =
  let g = mk () in
  Sdfg.add_array g "feed" ~shape:[ Symbolic.Expr.int n ] ~dtype:T.F64;
  let st = Sdfg.start_state g in
  let in_acc =
    List.find_map
      (fun (nid, nd) ->
        match nd with
        | Defs.Access d when d = input -> Some nid
        | _ -> None)
      (State.nodes st)
    |> Option.get
  in
  let feed_acc = Builder.Build.access st "feed" in
  Builder.Build.edge st
    ~memlet:
      (Memlet.simple "feed"
         [ Symbolic.Subset.range Symbolic.Expr.zero
             (Symbolic.Expr.int (n - 1)) ])
    ~src:feed_acc ~dst:in_acc ();
  g

let fed_args ((_, _, _, _, syms) as w) n () =
  let vs = feed n in
  List.map
    (fun (name, t) ->
      if name = "feed" then
        (name, Tensor.init T.F64 [| n |] (fun idx -> vs.(List.hd idx)))
      else (name, t))
    (Interp.Profile.make_args ~symbols:syms (fed w n ()))

(* Off and All instrumentation on both engines: bits, counters, and
   identical timer-tree shapes ({!Test_crossval.compare_engines}). *)
let test_batch_instrumented_shape () =
  each_workload (fun ((name, _, _, _, syms) as w) ->
      Test_crossval.compare_engines ~name ~build:(fed w 45)
        ~args:(fed_args w 45) ~symbols:syms ());
  let name, mk, syms = kernels_query in
  Test_crossval.compare_engines ~name ~build:mk
    ~args:(fun () -> query_args syms (mk ()))
    ~symbols:syms ()

(* A consume scope whose body holds a Reduce: [spread] writes v*(k+1)
   into a 4-element buffer and a Reduce node sums it into [total] — the
   strict body compiler rejects the Reduce, so the whole scope stays on
   the reference path. *)
let consume_reduce () =
  let module E = Symbolic.Expr in
  let module S = Symbolic.Subset in
  let module B = Builder.Build in
  let g = Sdfg.create ~symbols:[ "P" ] "consume_reduce" in
  Sdfg.add_stream g "in_q" ~dtype:T.F64;
  Sdfg.add_array g "buf" ~transient:true ~shape:[ E.int 4 ] ~dtype:T.F64;
  Sdfg.add_scalar g "total" ~dtype:T.F64;
  let st = Sdfg.add_state g ~label:"main" () in
  let entry, exit_ =
    B.consume_scope st ~pe:"p" ~num_pes:(E.sym "P") ~stream:"in_q" ()
  in
  let spread =
    B.tasklet st ~name:"spread"
      ~inputs:[ { Defs.k_name = "v"; k_dtype = T.F64; k_rank = 0 } ]
      ~outputs:[ { Defs.k_name = "o"; k_dtype = T.F64; k_rank = 1 } ]
      ~code:(`Src "for k in 0:4 { o[k] = v * (k + 1) }") ()
  in
  let whole = [ S.range E.zero (E.int 3) ] in
  let in_acc = B.access st "in_q" in
  B.edge st ~dst_conn:"IN_in_q" ~memlet:(Memlet.dyn "in_q" [ S.index E.zero ])
    ~src:in_acc ~dst:entry ();
  B.edge st ~src_conn:"OUT_in_q" ~dst_conn:"v"
    ~memlet:(Memlet.element "in_q" [ E.zero ])
    ~src:entry ~dst:spread ();
  let buf = B.access st "buf" in
  B.edge st ~src_conn:"o" ~memlet:(Memlet.simple "buf" whole) ~src:spread
    ~dst:buf ();
  let red =
    State.add_node st
      (Defs.Reduce
         { r_wcr = Defs.Wcr_sum; r_axes = None; r_identity = None })
  in
  B.edge st ~memlet:(Memlet.simple "buf" whole) ~src:buf ~dst:red ();
  let tot = B.access st "total" in
  B.edge st ~memlet:(Memlet.element "total" [ E.zero ]) ~src:red ~dst:tot ();
  B.edge st ~memlet:(Memlet.element "total" [ E.zero ]) ~src:tot ~dst:exit_ ();
  let tot_out = B.access st "total" in
  B.edge st ~src_conn:"OUT_total" ~memlet:(Memlet.element "total" [ E.zero ])
    ~src:exit_ ~dst:tot_out ();
  B.finalize g

let test_batch_rejected_body () =
  let w = ("consume_reduce", consume_reduce, "in_q", None, [ ("P", 2) ]) in
  let values = feed 21 in
  let rr, ra, _ = run_batch Plan.reference w values in
  let cr, ca, _ = run_batch Plan.compiled w values in
  check_tensors "consume_reduce: tensors" ra ca;
  check_counters "consume_reduce" rr cr;
  let c = coverage "consume_reduce" cr in
  Alcotest.(check int) "the consume scope stays on the reference path" 1
    c.R.cov_fallback;
  Alcotest.(check int) "the rejected body leaves no compiled nodes" 0
    c.R.cov_compiled;
  Test_crossval.compare_engines ~name:"consume_reduce"
    ~build:(fed w 21) ~args:(fed_args w 21) ~symbols:[ ("P", 2) ] ()

(* A compiled consume body writing X[v] for popped indices v: an index
   past X's end must raise the reference's exact error, after the same
   partial writes. *)
let consume_scatter () =
  let module E = Symbolic.Expr in
  let module S = Symbolic.Subset in
  let module B = Builder.Build in
  let g = Sdfg.create "consume_scatter" in
  Sdfg.add_stream g "idx" ~dtype:T.I64;
  Sdfg.add_array g "X" ~shape:[ E.int 4 ] ~dtype:T.F64;
  let st = Sdfg.add_state g ~label:"main" () in
  let entry, exit_ =
    B.consume_scope st ~pe:"p" ~num_pes:(E.int 1) ~stream:"idx" ()
  in
  let put =
    B.tasklet st ~name:"put"
      ~inputs:[ { Defs.k_name = "v"; k_dtype = T.I64; k_rank = 0 } ]
      ~outputs:[ { Defs.k_name = "o"; k_dtype = T.F64; k_rank = 1 } ]
      ~code:(`Src "o[v] = 1.0") ()
  in
  let whole = [ S.range E.zero (E.int 3) ] in
  let i_acc = B.access st "idx" in
  B.edge st ~dst_conn:"IN_idx" ~memlet:(Memlet.dyn "idx" [ S.index E.zero ])
    ~src:i_acc ~dst:entry ();
  B.edge st ~src_conn:"OUT_idx" ~dst_conn:"v"
    ~memlet:(Memlet.element "idx" [ E.zero ])
    ~src:entry ~dst:put ();
  B.edge st ~src_conn:"o" ~dst_conn:"IN_X" ~memlet:(Memlet.dyn "X" whole)
    ~src:put ~dst:exit_ ();
  let x_acc = B.access st "X" in
  B.edge st ~src_conn:"OUT_X" ~memlet:(Memlet.dyn "X" whole) ~src:exit_
    ~dst:x_acc ();
  B.finalize g

let test_batch_oob_error () =
  let run engine idx =
    let g = consume_scatter () in
    let x = Tensor.init T.F64 [| 4 |] (fun _ -> T.F (-1.)) in
    let inst = I.create ~config:(batch_config engine) g in
    let stream_args = [ ("idx", Array.map (fun i -> T.I i) idx) ] in
    match I.run ~args:[ ("X", x) ] ~stream_args inst with
    | exception e -> (Error (Printexc.to_string e), Tensor.to_float_list x)
    | r -> (Ok r, Tensor.to_float_list x)
  in
  (match run Plan.compiled [| 0; 2 |] with
  | Ok r, x ->
    Alcotest.(check (list (float 0.)))
      "in-bounds writes" [ 1.; -1.; 1.; -1. ] x;
    Alcotest.(check int) "the scatter consume compiles" 0
      (coverage "consume_scatter" r).R.cov_fallback
  | Error m, _ -> Alcotest.failf "in-bounds run raised %s" m);
  let oob = [| 0; 2; 7; 1 |] in
  match run Plan.reference oob, run Plan.compiled oob with
  | (Error want, wx), (Error got, gx) ->
    Alcotest.(check string) "the reference's bounds error"
      {|Interp.Tensor.Bounds("index 7 out of bounds for dimension 0 (size 4)")|}
      want;
    Alcotest.(check string) "same error" want got;
    Alcotest.(check (list (float 0.))) "same partial effects" wx gx
  | _ -> Alcotest.fail "an out-of-bounds write must raise on both engines"

(* The multi-queue repro: a map feeds queue 1 of a shape-(2) stream and a
   consume scope drains it.  Both engines must pop every element — the
   loop pops the first non-empty queue, as its len(S) test counts them
   all — and the compiled engine leaves the multi-queue scope and the
   tasklet pushing to queue 1 on the reference path. *)
let test_multi_queue_consume () =
  let g () = Serialize.load "corpus/consume_multi_queue_stream.sdfg" in
  let run engine =
    let args = Interp.Profile.make_args (g ()) in
    (Exec.run ~config:(batch_config engine) ~args (g ()), args)
  in
  let rr, ra = run Plan.reference and cr, ca = run Plan.compiled in
  check_tensors "multi-queue" ra ca;
  check_counters "multi-queue" rr cr;
  Alcotest.(check int) "three elements popped" 3
    rr.R.r_counters.R.stream_pops;
  Alcotest.(check int) "the multi-queue consume stays on the reference path"
    2 (coverage "multi-queue" cr).R.cov_fallback

let suite =
  [ Alcotest.test_case "channel fifo" `Quick test_channel_fifo;
    Alcotest.test_case "channel zero trip" `Quick test_channel_zero_trip;
    Alcotest.test_case "channel capacity clamp" `Quick
      test_channel_capacity_clamp;
    Alcotest.test_case "channel closed push" `Quick test_channel_closed_push;
    Alcotest.test_case "channel backpressure" `Quick
      test_channel_backpressure;
    Alcotest.test_case "channel close wakes consumer" `Quick
      test_channel_close_wakes_consumer;
    Alcotest.test_case "channel stats fields" `Quick test_channel_stats_fields;
    Alcotest.test_case "unbounded: empty never blocks" `Quick
      test_unbounded_empty;
    Alcotest.test_case "to_list and clear" `Quick test_to_list_and_clear;
    Alcotest.test_case "pipeline verdict workloads" `Quick
      test_verdict_workloads;
    Alcotest.test_case "pipeline verdict rejections" `Quick
      test_verdict_rejections;
    Alcotest.test_case "chunked = batch (reference)" `Quick
      test_crossval_reference;
    Alcotest.test_case "chunked = batch (compiled)" `Quick
      test_crossval_compiled;
    Alcotest.test_case "chunked = batch (chunk 1)" `Quick
      test_crossval_chunk_one;
    Alcotest.test_case "metrics and backpressure" `Quick
      test_metrics_and_backpressure;
    Alcotest.test_case "degrade path" `Quick test_degrade_path;
    Alcotest.test_case "counter parity" `Quick test_counter_parity;
    Alcotest.test_case "batch: engines agree" `Quick test_batch_engines_agree;
    Alcotest.test_case "batch: consume scopes compile" `Quick
      test_batch_consume_compiled;
    Alcotest.test_case "batch: instrumented shapes match" `Quick
      test_batch_instrumented_shape;
    Alcotest.test_case "batch: rejected body stays on reference" `Quick
      test_batch_rejected_body;
    Alcotest.test_case "batch: out-of-bounds error parity" `Quick
      test_batch_oob_error;
    Alcotest.test_case "batch: multi-queue consume" `Quick
      test_multi_queue_consume ]
