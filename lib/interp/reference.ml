(* Reference interpreter for SDFGs — an executable rendition of the
   operational semantics of Appendix A.

   Execution follows the state machine: run the dataflow of the current
   state to quiescence, evaluate outgoing transitions, apply assignments,
   continue until no condition holds (A.2.3).  Within a state, nodes are
   processed in topological order; Map scopes expand their symbolic range
   (Fig. 6b), Consume scopes dynamically process streams until the
   quiescence condition, and write-conflict-resolution memlets combine
   values with their resolution function.

   The interpreter doubles as the instrumentation source for the machine
   model: it counts data movement per memlet, tasklet executions and map
   iterations.

   This module also defines the run state every engine shares, and it
   names no other engine: the state-machine loop runs each state with the
   executor the environment carries, set once by {!Exec} from the
   config's engine and inherited by nested SDFGs through {!enter}. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Sdfg_ir
open Defs
open Tasklang.Types

exception Runtime_error = Errors.Runtime_error

let runtime_error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

(* --- runtime containers ------------------------------------------------ *)

(* A stream container is a flattened array of streams (paper Fig. 3):
   unbounded in batch runs, one bounded channel per stream in a
   pipeline worker's container table. *)
type stream_rt = {
  qs : value Stream.t array;
  q_shape : int array;
}

type container = Tens of Tensor.t | Strm of stream_rt

(* How the compiled engine picks a worker count for each parallel map:
   [Fixed d] dispatches every Parallel-verdict map on [min d trips]
   workers (the PR 5 behavior behind [SDFG_DOMAINS] / [with_domains]);
   [Predictive cap] prices each map with {!Machine.Cost.Parallel} and
   runs it on the predicted-profitable count, up to [cap]. *)
type domain_policy = Fixed of int | Predictive of int

(* Multicore bookkeeping, shared down through nested SDFGs like the
   counters.  [par_chunks] depends on the domain count; the determinism
   tests compare the counters, not these. *)
type par_stats = {
  mutable par_maps : int;        (* parallel map-scope invocations *)
  mutable par_chunks : int;      (* chunks dispatched to the pool *)
  mutable par_forced_seq : int;  (* Cpu_multicore maps forced sequential *)
  mutable par_decisions : Obs.Report.map_decision list;
      (* one Cpu_multicore map's standing policy record each, registered
         at plan time and updated per invocation; registration order,
         reversed *)
}

let fresh_par () =
  { par_maps = 0; par_chunks = 0; par_forced_seq = 0; par_decisions = [] }

(* Register (or re-register, after a structural-version recompile) the
   decision record for one map.  Keyed by (state, node id) — the span
   name alone is ambiguous when one state holds two maps over the same
   parameters — so a recompiled plan replaces its stale record instead
   of duplicating it. *)
let register_decision (par : par_stats) ~state ~node ~map ~kind ~verdict
    ~forced =
  let md =
    { Obs.Report.pm_state = state; pm_node = node; pm_map = map;
      pm_kind = kind; pm_verdict = verdict; pm_forced = forced;
      pm_domains = 1; pm_reason = "unevaluated"; pm_trips = 0;
      pm_invocations = 0 }
  in
  par.par_decisions <-
    md
    :: List.filter
         (fun (d : Obs.Report.map_decision) ->
           not (d.pm_state = state && d.pm_node = node))
         par.par_decisions;
  md

(* External tasklet implementations (paper Fig. 5: tasklets written in the
   target language directly).  Keyed by tasklet name. *)
let externals : (string, (string * Tasklang.Eval.binding) list -> unit)
    Hashtbl.t =
  Hashtbl.create 8

let register_external name impl = Hashtbl.replace externals name impl

(* Which execution engine drives each state's dataflow.  [`Reference]
   interprets the graph directly (the semantic oracle); [`Compiled] runs
   plans lowered once per state by {!Plan} (closure-compiled tasklets,
   slot-indexed symbol frames). *)
type engine = [ `Reference | `Compiled ]

(* A state lowered by the compiled engine, tagged with the structural
   version it was compiled at so mutations invalidate it. *)
type cached_plan = { pl_version : int; pl_run : unit -> unit }

type env = {
  g : sdfg;
  containers : (string, container) Hashtbl.t;
  symbols : (string, int) Hashtbl.t;
  stats : Obs.Report.counters;
  collector : Obs.Collect.t;  (* wall-clock spans + plan coverage *)
  max_states : int;
  engine : engine;
  exec_state : env -> state -> unit;  (* this engine's state executor *)
  plans : (int, cached_plan) Hashtbl.t;  (* state id -> plan *)
  domains : int;  (* domains the compiled engine may use (>= 1) *)
  policy : domain_policy;  (* how each parallel map picks its worker count *)
  par : par_stats;
  kernels : bool;  (* let the compiled engine lower maps to bulk kernels *)
}

(* Span names are shared between engines so the timing trees match
   shape-for-shape: states use their label, maps their parameter list,
   consumes their stream, tasklets their name. *)
let map_span_name (m : map_info) =
  "[" ^ String.concat "," m.mp_params ^ "]"

(* Time [f] as a (kind, name) span when the collector's level and the
   construct's [flag] ask for it; otherwise run it untouched. *)
let timed env kind name ~flag f =
  let c = env.collector in
  if Obs.Collect.should_time c ~flag then begin
    let sp = Obs.Collect.enter c kind name in
    match f () with
    | r -> Obs.Collect.exit c sp; r
    | exception e -> Obs.Collect.exit c sp; raise e
  end
  else f ()

let stream_total_len s =
  Array.fold_left (fun acc q -> acc + Stream.length q) 0 s.qs

(* Symbol environment for symbolic evaluation: interstate symbols first,
   then rank-0 containers read as integers (data-dependent control flow,
   Fig. 10a), then scope parameters supplied by the caller. *)
let sym_lookup env params name =
  match List.assoc_opt name params with
  | Some v -> Some v
  | None -> (
    match Hashtbl.find_opt env.symbols name with
    | Some v -> Some v
    | None -> (
      match Hashtbl.find_opt env.containers name with
      | Some (Tens t) when Tensor.num_elements t = 1 ->
        (* rank-0 scalars and single-element views alike *)
        Some (to_int (Tensor.get_scalar t))
      | Some (Strm s) ->
        (* len(S): queue length is visible to quiescence conditions *)
        Some (stream_total_len s)
      | _ -> None))

let eval_expr env params e = Expr.eval (sym_lookup env params) e

let concretize env params subset =
  Subset.eval (sym_lookup env params) subset

let get_container env name =
  match Hashtbl.find_opt env.containers name with
  | Some c -> c
  | None -> runtime_error "no runtime container %S" name

let get_tensor env name =
  match get_container env name with
  | Tens t -> t
  | Strm _ -> runtime_error "container %S is a stream, expected array" name

let get_stream env name =
  match get_container env name with
  | Strm s -> s
  | Tens _ -> runtime_error "container %S is an array, expected stream" name

let stream_queue s idx =
  let li =
    match idx with
    | [] -> 0
    | _ ->
      let strides = Tensor.row_major_strides s.q_shape in
      List.fold_left ( + ) 0
        (List.mapi (fun d i -> i * strides.(d)) idx)
  in
  if li < 0 || li >= Array.length s.qs then
    runtime_error "stream queue index out of range";
  s.qs.(li)

(* Push [src]'s elements, row-major, onto the stream's first queue. *)
let push_all env s src =
  Tensor.iter_offsets src (fun off ->
      Stream.push s.qs.(0) (Tensor.get_linear src off);
      env.stats.stream_pushes <- env.stats.stream_pushes + 1)

(* Pop every element, queues in flattened order. *)
let pop_all s =
  let buf = ref [] in
  Array.iter (fun q -> Stream.drain q (fun v -> buf := v :: !buf)) s.qs;
  Array.of_list (List.rev !buf)

(* Pop the stream into [dst]'s elements in row-major order, one counted
   pop each; returns the count.  A stream holding more elements than
   [dst] raises before anything is popped. *)
let drain_into env ~what s dst =
  let n = stream_total_len s and room = Tensor.num_elements dst in
  if n > room then
    runtime_error "%s: stream holds %d elements, destination subset has %d"
      what n room;
  let vs = pop_all s in
  env.stats.stream_pops <- env.stats.stream_pops + n;
  let i = ref 0 in
  Tensor.iter_offsets dst (fun off ->
      if !i < n then begin
        Tensor.set_linear dst off vs.(!i);
        incr i
      end);
  n

(* --- write-back through a memlet --------------------------------------- *)

let apply_wcr env wcr t idx v =
  match wcr with
  | None -> Tensor.set t idx v
  | Some w ->
    env.stats.wcr_writes <- env.stats.wcr_writes + 1;
    let old_v = Tensor.get t idx in
    Tensor.set t idx (Wcr.apply w ~old_v ~new_v:v)

(* --- tasklet execution -------------------------------------------------- *)

(* Bind one input edge of a tasklet to an evaluator binding. *)
let bind_input env params (t : tasklet) (e : edge) :
    (string * Tasklang.Eval.binding) option =
  match e.e_dst_conn, e.e_memlet with
  | None, _ | _, None -> None
  | Some conn, Some m -> (
    let kconn =
      match List.find_opt (fun c -> c.k_name = conn) t.t_inputs with
      | Some c -> c
      | None -> runtime_error "tasklet %S: unknown connector %S" t.t_name conn
    in
    match get_container env m.m_data with
    | Tens tens ->
      let cview = Tensor.view_subset tens (concretize env params m.m_subset) in
      let cview =
        if kconn.k_rank < Tensor.rank cview then Tensor.squeeze cview
        else cview
      in
      env.stats.elements_moved <-
        env.stats.elements_moved + (if m.m_dynamic then 1 else Tensor.num_elements cview);
      if kconn.k_rank = 0 then
        Some (conn, Tasklang.Eval.Scalar (Tensor.get_scalar cview))
      else
        Some
          (conn,
           Tasklang.Eval.Buffer
             ((fun idx ->
                match idx with
                | [] -> Tensor.get_scalar cview
                | _ -> Tensor.get cview idx),
              fun _ _ ->
                runtime_error "tasklet %S: writing input connector %S"
                  t.t_name conn))
    | Strm s ->
      (* Reading a stream connector pops one element per access. *)
      Some
        (conn,
         Tasklang.Eval.Buffer
           ((fun _ ->
              match Stream.try_pop s.qs.(0) with
              | None -> runtime_error "pop from empty stream %S" m.m_data
              | Some v ->
                env.stats.stream_pops <- env.stats.stream_pops + 1;
                v),
            fun _ _ ->
              runtime_error "tasklet %S: writing input connector %S" t.t_name
                conn)))

let bind_output env params (t : tasklet) (e : edge) :
    (string * Tasklang.Eval.binding) option =
  match e.e_src_conn, e.e_memlet with
  | None, _ | _, None -> None
  | Some conn, Some m -> (
    let kconn =
      match List.find_opt (fun c -> c.k_name = conn) t.t_outputs with
      | Some c -> c
      | None ->
        runtime_error "tasklet %S: unknown output connector %S" t.t_name conn
    in
    match get_container env m.m_data with
    | Tens tens ->
      let cview = Tensor.view_subset tens (concretize env params m.m_subset) in
      let cview =
        if kconn.k_rank < Tensor.rank cview then Tensor.squeeze cview
        else cview
      in
      let get idx =
        match idx with
        | [] -> Tensor.get_scalar cview
        | _ -> Tensor.get cview idx
      in
      let set idx v =
        env.stats.elements_moved <- env.stats.elements_moved + 1;
        match idx with
        | [] ->
          if Tensor.rank cview = 0 then
            apply_wcr env m.m_wcr cview [] v
          else apply_wcr env m.m_wcr cview (List.map (fun _ -> 0) (Array.to_list (Tensor.shape cview))) v
        | _ -> apply_wcr env m.m_wcr cview idx v
      in
      Some (conn, Tasklang.Eval.Buffer (get, set))
    | Strm s ->
      let q_idx =
        (* Address a specific queue of a multi-dimensional stream. *)
        if Array.length s.q_shape = 0 then []
        else
          concretize env params m.m_subset
          |> List.map (fun r -> r.Subset.c_start)
      in
      Some
        (conn,
         Tasklang.Eval.Buffer
           ((fun _ -> runtime_error "reading output stream connector %S" conn),
            fun _ v ->
              env.stats.stream_pushes <- env.stats.stream_pushes + 1;
              (* a pipeline channel blocks here while full *)
              Stream.push (stream_queue s q_idx) v)))

(* [popped] carries elements already dequeued by an enclosing consume
   scope: connector bindings for those streams deliver the popped value
   instead of popping again. *)
let exec_tasklet env params ~popped st nid (t : tasklet) =
  env.stats.tasklet_execs <- env.stats.tasklet_execs + 1;
  let in_bindings =
    List.filter_map
      (fun (e : edge) ->
        match e.e_dst_conn, e.e_memlet with
        | Some conn, Some m when List.mem_assoc m.m_data popped ->
          Some (conn, Tasklang.Eval.Scalar (List.assoc m.m_data popped))
        | _ -> bind_input env params t e)
      (State.in_edges st nid)
  in
  let out_bindings =
    List.filter_map (fun e -> bind_output env params t e)
      (State.out_edges st nid)
  in
  (* Scope parameters and interstate symbols are readable from tasklet
     code as scalars (e.g. the Mandelbrot tasklets read x and y); memlet
     bindings shadow them. *)
  let param_bindings =
    List.map (fun (p, v) -> (p, Tasklang.Eval.Scalar (I v))) params
    @ Hashtbl.fold
        (fun s v acc -> (s, Tasklang.Eval.Scalar (I v)) :: acc)
        env.symbols []
  in
  let bindings = in_bindings @ out_bindings @ param_bindings in
  match t.t_code with
  | Code code -> Tasklang.Eval.run ~bindings code
  | External _ -> (
    match Hashtbl.find_opt externals t.t_name with
    | Some impl -> impl bindings
    | None ->
      runtime_error
        "external tasklet %S has no registered native implementation"
        t.t_name)

(* --- copies between access nodes ----------------------------------------- *)

(* A memlet's view of one side of a copy: the concretized subset, or the
   whole container when that side names none. *)
let side_view env params t = function
  | Some s -> Tensor.view_subset t (concretize env params s)
  | None -> t

(* Combine [src] into [dst] element by element, each side in its own
   row-major order; one conflict resolution per element. *)
let combine_into env w ~src ~dst =
  Tensor.iter2_offsets src dst (fun so d ->
      env.stats.wcr_writes <- env.stats.wcr_writes + 1;
      Tensor.set_linear dst d
        (Wcr.apply w ~old_v:(Tensor.get_linear dst d)
           ~new_v:(Tensor.get_linear src so)))

let exec_copy env params st (e : edge) =
  match e.e_memlet with
  | None -> ()
  | Some m -> (
    let access nid =
      match State.node st nid with Access d -> d | _ -> assert false
    in
    let src_name = access e.e_src and dst_name = access e.e_dst in
    let src_subset, dst_subset =
      if String.equal m.m_data src_name then (Some m.m_subset, m.m_other)
      else (m.m_other, Some m.m_subset)
    in
    match get_container env src_name, get_container env dst_name with
    | Tens src_t, Tens dst_t -> (
      let sview = side_view env params src_t src_subset in
      let dview = side_view env params dst_t dst_subset in
      env.stats.elements_moved <-
        env.stats.elements_moved + Tensor.num_elements sview;
      match m.m_wcr with
      | None -> Tensor.copy_into ~src:sview ~dst:dview
      | Some w -> combine_into env w ~src:sview ~dst:dview)
    | Strm s, Tens dst_t ->
      (* drain the stream into the array (stream "data" connector) *)
      let n =
        drain_into env s (side_view env params dst_t dst_subset)
          ~what:(Fmt.str "copy %S -> %S" src_name dst_name)
      in
      env.stats.elements_moved <- env.stats.elements_moved + n
    | Tens src_t, Strm s ->
      let sview = side_view env params src_t src_subset in
      push_all env s sview;
      env.stats.elements_moved <-
        env.stats.elements_moved + Tensor.num_elements sview
    | Strm src_s, Strm dst_s ->
      let nd = Array.length dst_s.qs in
      Array.iteri
        (fun i q -> Stream.drain q (Stream.push dst_s.qs.(i mod nd)))
        src_s.qs)

(* Copy-in edge: scope entry -> access node, memlet naming the source
   container on the far side of the scope (LocalStorage pattern,
   Fig. 11b).  Copies m_subset of m_data into this access's container at
   m_other (default: the whole transient). *)
let exec_scope_copy_in env params (e : edge) dst_name =
  match e.e_memlet with
  | Some m when not (String.equal m.m_data dst_name) -> (
    match get_container env m.m_data, get_container env dst_name with
    | Tens src_t, Tens dst_t ->
      let sview =
        Tensor.view_subset src_t (concretize env params m.m_subset)
      in
      let dview = side_view env params dst_t m.m_other in
      env.stats.elements_moved <-
        env.stats.elements_moved + Tensor.num_elements sview;
      Tensor.copy_into ~src:sview ~dst:dview
    | _ -> runtime_error "scope copy-in between incompatible containers")
  | _ -> ()

(* Commit edge: access node -> scope exit, memlet naming the destination
   container (AccumulateTransient / LocalStream patterns).  After a WCR
   commit the local accumulator is drained back to the identity so the
   next scope iteration accumulates afresh. *)
let exec_scope_copy_out env params (e : edge) src_name =
  match e.e_memlet with
  | Some m when not (String.equal m.m_data src_name) -> (
    match get_container env src_name, get_container env m.m_data with
    | Tens src_t, Tens dst_t -> (
      let sview = side_view env params src_t m.m_other in
      let dview =
        Tensor.view_subset dst_t (concretize env params m.m_subset)
      in
      env.stats.elements_moved <-
        env.stats.elements_moved + Tensor.num_elements sview;
      match m.m_wcr with
      | None ->
        Tensor.iter2_offsets sview dview (fun so d ->
            Tensor.set_linear dview d (Tensor.get_linear sview so))
      | Some w -> (
        combine_into env w ~src:sview ~dst:dview;
        (* drain the accumulator *)
        match Wcr.identity w (Tensor.dtype sview) with
        | Some id -> Tensor.fill sview id
        | None -> ()))
    | Strm src_s, Strm dst_s ->
      (* local stream flushes into the global stream *)
      let nd = Array.length dst_s.qs in
      Array.iteri
        (fun i q ->
          Stream.drain q (fun v ->
              Stream.push dst_s.qs.(i mod nd) v;
              env.stats.stream_pushes <- env.stats.stream_pushes + 1;
              env.stats.stream_pops <- env.stats.stream_pops + 1))
        src_s.qs
    | Strm src_s, Tens dst_t -> (
      (* drain a local stream into an array at the memlet subset *)
      let dview =
        Tensor.view_subset dst_t (concretize env params m.m_subset)
      in
      match m.m_wcr with
      | Some w ->
        (* every element combines into the subset's origin *)
        let o = dview.Tensor.offset in
        Array.iter
          (fun v ->
            env.stats.stream_pops <- env.stats.stream_pops + 1;
            Tensor.set_linear dview o
              (Wcr.apply w ~old_v:(Tensor.get_linear dview o) ~new_v:v))
          (pop_all src_s)
      | None ->
        ignore
          (drain_into env src_s dview
             ~what:(Fmt.str "scope commit %S -> %S" src_name m.m_data)))
    | Tens src_t, Strm dst_s ->
      push_all env dst_s (side_view env params src_t m.m_other))
  | _ -> ()

(* --- reduce nodes --------------------------------------------------------- *)

let exec_reduce env params st nid (r_wcr : wcr) (r_axes : int list option)
    (r_identity : value option) =
  (* Memlet-less edges are pure ordering dependencies (state fusion adds
     them to serialize across the seam) — only data edges count here. *)
  let data_edges = List.filter (fun (e : edge) -> e.e_memlet <> None) in
  let in_e =
    match data_edges (State.in_edges st nid) with
    | [ e ] -> e
    | es ->
      runtime_error "reduce node with %d input edges" (List.length es)
  in
  let out_e =
    match data_edges (State.out_edges st nid) with
    | [ e ] -> e
    | es ->
      runtime_error "reduce node with %d output edges" (List.length es)
  in
  let in_m = Option.get in_e.e_memlet and out_m = Option.get out_e.e_memlet in
  let src = get_tensor env in_m.m_data and dst = get_tensor env out_m.m_data in
  let sview = Tensor.view_subset src (concretize env params in_m.m_subset) in
  let dview = Tensor.view_subset dst (concretize env params out_m.m_subset) in
  let in_rank = Tensor.rank sview in
  let axes =
    match r_axes with
    | Some a -> a
    | None -> List.init in_rank (fun i -> i)  (* reduce everything *)
  in
  (match r_identity with
  | Some id -> Tensor.fill dview id
  | None -> ());
  let kept = List.filter (fun d -> not (List.mem d axes)) (List.init in_rank Fun.id) in
  let n = Tensor.num_elements sview in
  env.stats.elements_moved <- env.stats.elements_moved + n;
  let idx = Array.make in_rank 0 in
  for _ = 1 to n do
    let out_idx =
      if Tensor.rank dview = 0 then []
      else List.map (fun d -> idx.(d)) kept
    in
    let out_idx =
      (* output may have fewer dims than kept axes when out rank is 0 *)
      if List.length out_idx <> Tensor.rank dview then
        List.filteri (fun i _ -> i < Tensor.rank dview) out_idx
      else out_idx
    in
    let v = Tensor.get sview (Array.to_list idx) in
    let old_v = Tensor.get dview out_idx in
    Tensor.set dview out_idx (Wcr.apply r_wcr ~old_v ~new_v:v);
    let rec carry d =
      if d >= 0 then begin
        idx.(d) <- idx.(d) + 1;
        if idx.(d) >= (Tensor.shape sview).(d) then begin
          idx.(d) <- 0;
          carry (d - 1)
        end
      end
    in
    carry (in_rank - 1)
  done

(* --- scope and state execution -------------------------------------------- *)

(* The direct children of a scope, in the state's topological order: the
   schedule every executor (reference, compiled, pipeline stage) runs a
   scope body in. *)
let scope_body st entry =
  let parents = State.scope_parents st in
  let direct =
    List.filter
      (fun nid -> Hashtbl.find parents nid = Some entry)
      (State.scope_nodes st entry)
  in
  List.filter (fun nid -> List.mem nid direct) (State.topological_order st)

(* Bind [g] into an environment derived from [env]: its own symbol table
   (holding [symbols]) and plan cache, and its containers — those in
   [containers] kept, every other descriptor allocated zeroed at shapes
   concretized against [symbols] (transients; also non-transients the
   caller chose not to bind).  A nested SDFG derives from its parent and
   shares its counters, collector and policy; top-level runs and
   instances derive from {!make_env}'s fresh state. *)
let enter env g ~containers ~symbols =
  let env =
    { env with g; containers; symbols = Hashtbl.create 8;
      plans = Hashtbl.create 4 }
  in
  List.iter (fun (s, v) -> Hashtbl.replace env.symbols s v) symbols;
  List.iter
    (fun (name, d) ->
      if not (Hashtbl.mem containers name) then begin
        let shape =
          Array.of_list (List.map (eval_expr env []) (ddesc_shape d))
        in
        Hashtbl.replace containers name
          (match d with
          | Array a -> Tens (Tensor.create a.a_dtype shape)
          | Stream _ ->
            let nq = max 1 (Array.fold_left ( * ) 1 shape) in
            Strm
              { qs = Array.init nq (fun _ -> Stream.create ());
                q_shape = shape })
      end)
    (Sdfg.descs g);
  env

(* Execute the given nodes (already restricted to one scope level) in the
   supplied order. *)
let rec exec_nodes env st ~params ~popped nids =
  List.iter
    (fun nid ->
      match State.node st nid with
      | Access d ->
        (* Copy-in edges from an enclosing scope entry. *)
        List.iter
          (fun (e : edge) ->
            if State.is_scope_entry st e.e_src then
              exec_scope_copy_in env params e d)
          (State.in_edges st nid);
        (* Copies to adjacent access nodes, and commit edges through the
           scope exit. *)
        List.iter
          (fun (e : edge) ->
            match State.node st e.e_dst with
            | Access _ -> exec_copy env params st e
            | Map_exit | Consume_exit -> exec_scope_copy_out env params e d
            | _ -> ())
          (State.out_edges st nid)
      | Tasklet t ->
        timed env Obs.Collect.Tasklet t.t_name ~flag:t.t_instrument (fun () ->
            exec_tasklet env params ~popped st nid t)
      | Map_entry info ->
        timed env Obs.Collect.Map (map_span_name info)
          ~flag:info.mp_instrument (fun () ->
            exec_map env st ~params ~popped nid info)
      | Consume_entry info ->
        timed env Obs.Collect.Consume info.cs_stream
          ~flag:info.cs_instrument (fun () ->
            exec_consume env st ~params ~popped nid info)
      | Map_exit | Consume_exit -> ()
      | Reduce r -> exec_reduce env params st nid r.r_wcr r.r_axes r.r_identity
      | Nested_sdfg nest -> exec_nested env params st nid nest)
    nids

and exec_map env st ~params ~popped entry (info : map_info) =
  let body = scope_body st entry in
  let ranges =
    List.map2
      (fun p (r : Subset.range) ->
        let lo = eval_expr env params r.start in
        let hi = eval_expr env params r.stop in
        let step = eval_expr env params r.stride in
        if step <= 0 then
          runtime_error
            "map over parameter %S in state %S: non-positive stride %d"
            p st.st_label step;
        (lo, hi, step))
      info.mp_params info.mp_ranges
  in
  let rec iterate bound = function
    | [] ->
      env.stats.map_iterations <- env.stats.map_iterations + 1;
      exec_nodes env st ~params:(params @ bound) ~popped body
    | (p, (lo, hi, step)) :: rest ->
      let i = ref lo in
      while !i <= hi do
        iterate (bound @ [ (p, !i) ]) rest;
        i := !i + step
      done
  in
  iterate [] (List.combine info.mp_params ranges)

and exec_consume env st ~params ~popped entry (info : consume_info) =
  let body = scope_body st entry in
  let s = get_stream env info.cs_stream in
  (* Quiescence: stop when the stream is empty (paper Fig. 8's
     "len(S) = 0").  Processing is sequential but equivalent to any
     interleaving because tasklets only interact through memlets. *)
  let pe = ref 0 in
  let num_pes = max 1 (eval_expr env params info.cs_num_pes) in
  let guard = ref 0 in
  while stream_total_len s > 0 do
    incr guard;
    if !guard > 100_000_000 then
      runtime_error "consume scope on %S exceeded iteration budget"
        info.cs_stream;
    (* pop from the first non-empty queue in flattened order, so the
       loop drains exactly what its len(S) test counts *)
    let v = Option.get (Array.find_map Stream.try_pop s.qs) in
    env.stats.stream_pops <- env.stats.stream_pops + 1;
    env.stats.map_iterations <- env.stats.map_iterations + 1;
    let params' = params @ [ (info.cs_pe_param, !pe mod num_pes) ] in
    exec_nodes env st ~params:params'
      ~popped:((info.cs_stream, v) :: popped)
      body;
    incr pe
  done

and exec_nested env params st nid (nest : nested) =
  let inner = nest.n_sdfg in
  let in_edges = State.in_edges st nid and out_edges = State.out_edges st nid in
  let find_edge conn edges get_conn =
    List.find_opt (fun (e : edge) -> get_conn e = Some conn) edges
  in
  let inner_containers = Hashtbl.create 8 in
  let bind conn (e : edge) =
    match e.e_memlet with
    | None -> ()
    | Some m -> (
      match get_container env m.m_data with
      | Tens t ->
        let view = Tensor.view_subset t (concretize env params m.m_subset) in
        (* squeeze the outer window down to the inner container's rank *)
        let inner_rank = ddesc_rank (Sdfg.desc inner conn) in
        let view =
          if inner_rank < Tensor.rank view then Tensor.squeeze view else view
        in
        Hashtbl.replace inner_containers conn (Tens view)
      | Strm s -> Hashtbl.replace inner_containers conn (Strm s))
  in
  List.iter
    (fun conn ->
      match find_edge conn in_edges (fun e -> e.e_dst_conn) with
      | Some e -> bind conn e
      | None -> runtime_error "nested SDFG: unconnected input %S" conn)
    nest.n_inputs;
  List.iter
    (fun conn ->
      if not (Hashtbl.mem inner_containers conn) then
        match find_edge conn out_edges (fun e -> e.e_src_conn) with
        | Some e -> bind conn e
        | None -> runtime_error "nested SDFG: unconnected output %S" conn)
    nest.n_outputs;
  let inner_symbols =
    List.map
      (fun (s, e) -> (s, eval_expr env params e))
      nest.n_symbol_map
  in
  (* Inherit outer symbols not explicitly remapped. *)
  let inherited =
    Hashtbl.fold
      (fun k v acc ->
        if List.mem_assoc k inner_symbols then acc else (k, v) :: acc)
      env.symbols []
    @ List.filter (fun (k, _) -> not (List.mem_assoc k inner_symbols)) params
  in
  run_state_machine
    (enter env inner ~containers:inner_containers
       ~symbols:(inner_symbols @ inherited))

(* --- top-level execution ---------------------------------------------------- *)

and exec_state env (st : state) =
  env.stats.states_executed <- env.stats.states_executed + 1;
  let parents = State.scope_parents st in
  let order = State.topological_order st in
  let top = List.filter (fun nid -> Hashtbl.find parents nid = None) order in
  exec_nodes env st ~params:[] ~popped:[] top

and run_state_machine env =
  let current = ref (Sdfg.start_state env.g) in
  let continue_ = ref true in
  let steps = ref 0 in
  while !continue_ do
    incr steps;
    if !steps > env.max_states then
      runtime_error "SDFG %S exceeded max state executions (%d)"
        env.g.g_name env.max_states;
    (let st = !current in
     timed env Obs.Collect.State st.st_label ~flag:st.st_instrument
       (fun () -> env.exec_state env st));
    let outgoing = Sdfg.out_transitions env.g (State.id !current) in
    match
      List.find_opt
        (fun (t : istate_edge) ->
          Bexp.eval (sym_lookup env []) t.is_cond)
        outgoing
    with
    | None -> continue_ := false
    | Some t ->
      (* Evaluate all right-hand sides before assigning (simultaneous). *)
      let values =
        List.map (fun (s, e) -> (s, eval_expr env [] e)) t.is_assign
      in
      List.iter (fun (s, v) -> Hashtbl.replace env.symbols s v) values;
      current := Sdfg.state env.g t.is_dst
  done

(* Push [vs] onto the stream's first queue, one counted push each: how
   stream arguments and streaming input enter a batch run. *)
let feed_stream env s (vs : value array) =
  Array.iter
    (fun v ->
      env.stats.stream_pushes <- env.stats.stream_pushes + 1;
      Stream.push s.qs.(0) v)
    vs
