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
   iterations. *)

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

(* The compiled engine lives in {!Plan}, which depends on this module;
   it registers its state executor here at load time. *)
let compiled_state_exec : (env -> state -> unit) ref =
  ref (fun _ _ ->
      raise
        (Runtime_error
           "compiled engine requested but no engine registered (Plan \
            module not linked)"))

let set_compiled_state_exec f = compiled_state_exec := f

(* Streaming stage compiler, registered by {!Plan} at load time like the
   state executor.  Called once per pipeline worker with that worker's
   private environment, the state, the consume entry's node id and its
   info; [Some f] means [f pe v] executes the stage body for one popped
   element [v] (kernel-lowered map bodies included), [None] falls the
   worker back to the reference body loop. *)
let stage_compiler :
    (env -> state -> int -> consume_info -> (int -> value -> unit) option)
      ref =
  ref (fun _ _ _ _ -> None)

let set_stage_compiler f = stage_compiler := f

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
       (fun () ->
         match env.engine with
         | `Reference -> exec_state env st
         | `Compiled -> !compiled_state_exec env st));
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

let engine_name : engine -> string = function
  | `Reference -> "reference"
  | `Compiled -> "compiled"

let engine_of_string : string -> engine option = function
  | "reference" -> Some `Reference
  | "compiled" -> Some `Compiled
  | _ -> None

(* The environment's pin, if any: [Some d] when SDFG_DOMAINS is set to a
   number, clamped to [1, 64] (unparsable garbage pins 1); [None] when
   unset or empty — the predictive policy's opening. *)
let env_domains () =
  match Sys.getenv_opt "SDFG_DOMAINS" with
  | None -> None
  | Some s -> (
    let s = String.trim s in
    if s = "" then None
    else
      match int_of_string_opt s with
      | Some n when n >= 1 -> Some (min n 64)
      | _ -> Some 1)

(* The predictive policy's worker-count ceiling when no cap is given:
   what the hardware actually offers. *)
let auto_cap () = max 1 (min (Pool.available ()) 64)

(* --- execution configuration --------------------------------------------- *)

(* The single tuning surface of the execution layer.  Everything that
   used to travel as a row of optional labelled arguments (engine,
   instrument, max_states, domains, kernels) is one record, so adding a
   knob no longer ripples a new [?arg] through Profile, Opt.Search, the
   CLI, the bench harness and the fuzz oracles — and so the serving
   layer can hash, serialize and validate a request's tuning in one
   place. *)
module Config = struct
  type error =
    | Invalid_domains of int
    | Invalid_max_states of int
    | Invalid_stream_chunk of int
    | Invalid_stream_capacity of int
    | Parse of string

  let error_message = function
    | Invalid_domains n -> Fmt.str "config: domains must be >= 1 (got %d)" n
    | Invalid_max_states n ->
      Fmt.str "config: max_states must be >= 1 (got %d)" n
    | Invalid_stream_chunk n ->
      Fmt.str "config: stream_chunk must be >= 1 (got %d)" n
    | Invalid_stream_capacity n ->
      Fmt.str "config: stream_capacity must be >= 1 (got %d)" n
    | Parse msg -> "config: " ^ msg

  (* How the config asks for domains.  [Denv]: defer to SDFG_DOMAINS at
     run time — set, it pins that count; unset, the predictive policy
     decides per map up to {!auto_cap}.  [Dfixed d] beats the
     environment.  [Dauto cap] forces the predictive policy with an
     optional explicit ceiling. *)
  type domains_spec = Denv | Dfixed of int | Dauto of int option

  type t = {
    engine : engine;
    instrument : Obs.Collect.level;
    max_states : int;
    domains : domains_spec;
        (* precedence: explicit config > SDFG_DOMAINS > predictive *)
    kernels : bool;
    stream_chunk : int;
        (* streaming mode: output elements buffered per sink flush *)
    stream_capacity : int option;
        (* streaming mode: channel capacity override; None means each
           stream's declared [s_buffer] (default 256 when unbounded) *)
  }

  let default =
    { engine = `Reference; instrument = Obs.Collect.Off;
      max_states = 1_000_000; domains = Denv; kernels = true;
      stream_chunk = 64; stream_capacity = None }

  (* With-style setters, argument-last so they chain off [default]:
     [Config.(default |> with_engine `Compiled |> with_domains 4)]. *)
  let with_engine engine c = { c with engine }
  let with_instrument instrument c = { c with instrument }
  let with_max_states max_states c = { c with max_states }
  let with_domains d c = { c with domains = Dfixed d }
  let with_default_domains c = { c with domains = Denv }
  let with_auto_domains ?cap c = { c with domains = Dauto cap }
  let with_kernels kernels c = { c with kernels }
  let with_stream_chunk stream_chunk c = { c with stream_chunk }
  let with_stream_capacity n c = { c with stream_capacity = Some n }

  let validate c =
    if c.max_states < 1 then Error (Invalid_max_states c.max_states)
    else if c.stream_chunk < 1 then Error (Invalid_stream_chunk c.stream_chunk)
    else
      match c.domains, c.stream_capacity with
      | (Dfixed n | Dauto (Some n)), _ when n < 1 -> Error (Invalid_domains n)
      | _, Some n when n < 1 -> Error (Invalid_stream_capacity n)
      | _ -> Ok c

  (* The effective worker-count policy: explicit setting first (capped at
     the pool maximum), then the SDFG_DOMAINS environment variable, then
     the predictive policy capped at the hardware's domain count. *)
  let resolved_policy c : domain_policy =
    match c.domains with
    | Dfixed n -> Fixed (max 1 (min n 64))
    | Dauto (Some n) -> Predictive (max 1 (min n 64))
    | Dauto None -> Predictive (auto_cap ())
    | Denv -> (
      match env_domains () with
      | Some d -> Fixed d
      | None -> Predictive (auto_cap ()))

  (* The worker-count ceiling of {!resolved_policy}: the pinned count
     under [Fixed], the cap under [Predictive].  What the compiled
     engine sizes replica sets (and the pool) by. *)
  let resolved_domains c =
    match resolved_policy c with Fixed d -> d | Predictive cap -> cap

  let to_json c : Obs.Json.t =
    Obs.Json.Obj
      [ ("engine", Obs.Json.Str (engine_name c.engine));
        ("instrument", Obs.Json.Str (Obs.Collect.level_name c.instrument));
        ("max_states", Obs.Json.Int c.max_states);
        ("domains",
         (match c.domains with
         | Dfixed n -> Obs.Json.Int n
         | Denv -> Obs.Json.Null
         | Dauto None -> Obs.Json.Str "auto"
         | Dauto (Some n) -> Obs.Json.Str (Fmt.str "auto:%d" n)));
        ("kernels", Obs.Json.Bool c.kernels);
        ("stream_chunk", Obs.Json.Int c.stream_chunk);
        ("stream_capacity",
         (match c.stream_capacity with
         | Some n -> Obs.Json.Int n
         | None -> Obs.Json.Null)) ]

  (* Missing fields keep their defaults; present fields must be
     well-typed.  [Null] for [domains] means "defer to the environment",
     mirroring {!to_json}. *)
  let of_json (j : Obs.Json.t) : (t, error) result =
    let field name update c =
      match Obs.Json.member name j with
      | None | Some Obs.Json.Null -> Ok c
      | Some v -> update v c
    in
    let ( let* ) = Result.bind in
    let str name v =
      match Obs.Json.to_string_opt v with
      | Some s -> Ok s
      | None -> Error (Parse (Fmt.str "%s must be a string" name))
    in
    let int name v =
      match Obs.Json.to_int_opt v with
      | Some n -> Ok n
      | None -> Error (Parse (Fmt.str "%s must be an integer" name))
    in
    let* c =
      field "engine"
        (fun v c ->
          let* s = str "engine" v in
          match engine_of_string s with
          | Some e -> Ok { c with engine = e }
          | None -> Error (Parse (Fmt.str "unknown engine %S" s)))
        default
    in
    let* c =
      field "instrument"
        (fun v c ->
          let* s = str "instrument" v in
          match Obs.Collect.level_of_string s with
          | Some l -> Ok { c with instrument = l }
          | None -> Error (Parse (Fmt.str "unknown instrument level %S" s)))
        c
    in
    let* c =
      field "max_states"
        (fun v c ->
          let* n = int "max_states" v in
          Ok { c with max_states = n })
        c
    in
    let* c =
      field "domains"
        (fun v c ->
          match v with
          | Obs.Json.Str "auto" -> Ok { c with domains = Dauto None }
          | Obs.Json.Str s
            when String.length s > 5 && String.sub s 0 5 = "auto:" -> (
            let rest = String.sub s 5 (String.length s - 5) in
            match int_of_string_opt rest with
            | Some n -> Ok { c with domains = Dauto (Some n) }
            | None ->
              Error (Parse (Fmt.str "bad domains cap in %S" s)))
          | _ ->
            let* n = int "domains" v in
            Ok { c with domains = Dfixed n })
        c
    in
    let* c =
      field "kernels"
        (fun v c ->
          match v with
          | Obs.Json.Bool b -> Ok { c with kernels = b }
          | _ -> Error (Parse "kernels must be a boolean"))
        c
    in
    let* c =
      field "stream_chunk"
        (fun v c ->
          let* n = int "stream_chunk" v in
          Ok { c with stream_chunk = n })
        c
    in
    let* c =
      field "stream_capacity"
        (fun v c ->
          let* n = int "stream_capacity" v in
          Ok { c with stream_capacity = Some n })
        c
    in
    validate c
end

(* The one environment constructor: validates the config and derives
   fresh run state from it — counters, collector, the resolved domain
   policy — then binds [g] through {!enter}, keeping [containers]. *)
let make_env (config : Config.t) g ~containers ~symbols =
  (match Config.validate config with
  | Ok _ -> ()
  | Error e -> runtime_error "%s" (Config.error_message e));
  let env =
    { g; containers; symbols = Hashtbl.create 8;
      stats = Obs.Report.zero_counters ();
      collector = Obs.Collect.create config.instrument;
      max_states = config.max_states; engine = config.engine;
      plans = Hashtbl.create 4; domains = Config.resolved_domains config;
      policy = Config.resolved_policy config; par = fresh_par ();
      kernels = config.kernels }
  in
  enter env g ~containers ~symbols

(* The one report builder; [of_collector] copies the live counters and
   decision records.  The multicore section: a [Fixed] pin above 1
   always gets one (the PR 5 contract); [Fixed 1] only for a pipeline;
   [Predictive] exactly when the run had something multicore to decide
   about — so sequential-by-nature programs keep their reports
   unchanged.  A pipeline reports its worker count as its domains. *)
let report ?(channels = []) ?(workers = []) env ~wall_s =
  let par = env.par in
  let show =
    match env.policy with
    | Fixed d -> d > 1 || workers <> []
    | Predictive _ ->
      par.par_decisions <> [] || par.par_maps > 0 || par.par_chunks > 0
      || par.par_forced_seq > 0 || channels <> [] || workers <> []
  in
  let parallel =
    if not show then None
    else
      Some
        { Obs.Report.par_domains =
            (match workers with [] -> env.domains | _ -> List.length workers);
          par_policy =
            (match env.policy with
            | Fixed _ -> "fixed"
            | Predictive _ -> "predictive");
          par_maps = par.par_maps;
          par_chunks = par.par_chunks;
          par_forced_seq = par.par_forced_seq;
          par_decisions = List.rev par.par_decisions;
          par_channels = channels;
          par_workers = workers }
  in
  Obs.Report.of_collector ?parallel ~program:env.g.g_name
    ~engine:(engine_name env.engine) ~wall_s ~counters:env.stats
    env.collector

(* Main entry point: run [g] on the given tensors and symbol values.
   Non-transient containers not supplied in [args] are allocated
   zero-initialized and discarded.  The returned report carries the
   counters, the instrumentation timing tree (per the config's
   [instrument] level), the compiled engine's plan coverage and — when
   the resolved domain count exceeds 1 — the multicore summary. *)
let run ?(config = Config.default) ?(symbols = []) ?(args = [])
    (g : sdfg) : Obs.Report.t =
  let containers = Hashtbl.create 16 in
  List.iter (fun (name, t) -> Hashtbl.replace containers name (Tens t)) args;
  let t0 = Obs.Collect.now () in
  let env = make_env config g ~containers ~symbols in
  run_state_machine env;
  report env ~wall_s:(Obs.Collect.now () -. t0)

(* --- streaming execution --------------------------------------------------- *)

(* Channel capacity for one stream: an explicit config override wins,
   then the stream's declared [s_buffer] (evaluated against the run's
   symbols), then 256 for unbounded/unevaluable buffers.  Clamped >= 1 —
   a bounded channel is what produces backpressure. *)
let channel_capacity env (config : Config.t) name =
  match config.Config.stream_capacity with
  | Some n -> max 1 n
  | None -> (
    match (if Sdfg.has_desc env.g name then Some (Sdfg.desc env.g name) else None) with
    | Some (Stream s) ->
      let n = try eval_expr env [] s.s_buffer with _ -> 0 in
      if n >= 1 then n else 256
    | _ -> 256)

(* Push [vs] onto the stream's first queue, one counted push each: how
   stream arguments and streaming input enter a batch run. *)
let feed_stream env s (vs : value array) =
  Array.iter
    (fun v ->
      env.stats.stream_pushes <- env.stats.stream_pushes + 1;
      Stream.push s.qs.(0) v)
    vs

(* Run [env]'s graph in streaming mode.  [source] is polled for input
   chunks ([None] = end of stream) fed into [input]'s channel; every
   consume scope becomes a long-lived worker connected to its peers by
   bounded channels; [sink] receives output chunks popped from [output].

   The overlapped schedule only engages when {!Analysis.Races.analyze_pipeline}
   proves it bit-identical to the batch schedule (single state, each
   channel single-producer single-consumer, stages acyclic with disjoint
   non-stream footprints).  Anything else degrades to batch emulation:
   drain the source fully into the input stream, run the state machine
   once, hand the whole output stream to the sink in one chunk.  Returns
   per-channel and per-worker statistics — empty on the degraded path. *)
let run_streaming_env env (config : Config.t) ~input ~output ~source ~sink :
    Obs.Report.channel_stat list * Obs.Report.worker_stat list =
  let degrade () =
    (match get_container env input with
    | Strm s ->
      let rec feed () =
        match source () with
        | None -> ()
        | Some chunk ->
          feed_stream env s chunk;
          feed ()
      in
      feed ()
    | _ -> runtime_error "streaming: input %S is not a stream" input);
    run_state_machine env;
    (match output with
    | None -> ()
    | Some out -> (
      match get_container env out with
      | Strm s -> sink (pop_all s)
      | _ -> runtime_error "streaming: output %S is not a stream" out));
    ([], [])
  in
  if Sdfg.num_states env.g <> 1 then degrade ()
  else
    let st = Sdfg.start_state env.g in
    match Analysis.Races.analyze_pipeline env.g st with
    | Analysis.Races.No_pipeline _ -> degrade ()
    | Analysis.Races.Pipeline stages ->
      let consumed s =
        List.exists
          (fun stg -> String.equal stg.Analysis.Races.pl_stream s)
          stages
      in
      let pushed s =
        List.exists (fun stg -> List.mem s stg.Analysis.Races.pl_pushes) stages
      in
      let chan_names =
        List.sort_uniq String.compare
          (input
          :: List.concat_map
               (fun stg ->
                 stg.Analysis.Races.pl_stream :: stg.Analysis.Races.pl_pushes)
               stages)
      in
      let terminals = List.filter (fun n -> not (consumed n)) chan_names in
      let n_workers = 1 + List.length stages + List.length terminals in
      let eligible =
        consumed input
        && not (pushed input)
        && (match output with
           | None -> true
           | Some o -> pushed o && not (consumed o))
        && n_workers <= 64
      in
      if not eligible then degrade ()
      else begin
        (* Force the per-state caches (topological order, scope tree) on
           this domain: they memoize lazily and are not thread-safe. *)
        ignore (State.topological_order st);
        ignore (State.scope_parents st);
        List.iter
          (fun stg -> ignore (State.scope_nodes st stg.Analysis.Races.pl_entry))
          stages;
        let chans =
          List.map
            (fun n ->
              ( n,
                Stream.create ~name:n ~capacity:(channel_capacity env config n)
                  () ))
            chan_names
        in
        let chan n = List.assoc n chans in
        let close_all () = List.iter (fun (_, c) -> Stream.close c) chans in
        (* Workers see each stream as its channel; tensors are shared —
           the pipeline verdict proved the stages' footprints disjoint. *)
        let stbl = Hashtbl.copy env.containers in
        List.iter
          (fun (n, c) ->
            Hashtbl.replace stbl n (Strm { qs = [| c |]; q_shape = [||] }))
          chans;
        let err_lock = Mutex.create () in
        let first_err = ref None in
        let record e =
          Mutex.lock err_lock;
          (match !first_err with
          | None -> first_err := Some e
          | Some _ -> ());
          Mutex.unlock err_lock;
          close_all ()
        in
        (* A worker hitting a closed channel is being told to shut down
           (EOS or another worker's failure): exit silently. *)
        let guard f () = try f () with Stream.Closed _ -> () | e -> record e in
        let in_ch = chan input in
        let feeder_stats = Obs.Report.zero_counters () in
        let feeder_elems = ref 0 and feeder_busy = ref 0.0 in
        let feeder () =
          let rec loop () =
            let t0 = Obs.Collect.now () in
            let chunk = source () in
            feeder_busy := !feeder_busy +. (Obs.Collect.now () -. t0);
            match chunk with
            | None -> Stream.close in_ch
            | Some chunk ->
              Array.iter
                (fun v ->
                  feeder_stats.stream_pushes <-
                    feeder_stats.stream_pushes + 1;
                  incr feeder_elems;
                  Stream.push in_ch v)
                chunk;
              loop ()
          in
          loop ()
        in
        let stage_worker stg =
          let entry = stg.Analysis.Races.pl_entry in
          let info =
            match State.node st entry with
            | Consume_entry i -> i
            | _ -> assert false
          in
          (* exactly the batch executor's [exec_consume] schedule *)
          let body = scope_body st entry in
          let wstats = Obs.Report.zero_counters () in
          let wenv =
            (* domains = 1: the pool is not reentrant, so inner maps run
               sequentially inside a pipeline stage *)
            { env with stats = wstats; containers = stbl; domains = 1;
              policy = Fixed 1; par = fresh_par ();
              plans = Hashtbl.create 1 }
          in
          let st_in = chan stg.Analysis.Races.pl_stream in
          let st_out = List.map chan stg.Analysis.Races.pl_pushes in
          let elems = ref 0 and busy = ref 0.0 in
          (* compile here, on the main domain — plan construction records
             coverage into the shared collector *)
          let num_pes = max 1 (eval_expr wenv [] info.cs_num_pes) in
          let compiled =
            if wenv.engine = `Compiled then !stage_compiler wenv st entry info
            else None
          in
          let task () =
            let pe = ref 0 in
            let rec loop () =
              match Stream.pop st_in with
              | None -> List.iter Stream.close st_out
              | Some v ->
                wstats.stream_pops <- wstats.stream_pops + 1;
                wstats.map_iterations <- wstats.map_iterations + 1;
                let t0 = Obs.Collect.now () in
                (match compiled with
                | Some f -> f (!pe mod num_pes) v
                | None ->
                  exec_nodes wenv st
                    ~params:[ (info.cs_pe_param, !pe mod num_pes) ]
                    ~popped:[ (info.cs_stream, v) ]
                    body);
                busy := !busy +. (Obs.Collect.now () -. t0);
                incr elems;
                incr pe;
                loop ()
            in
            loop ()
          in
          ("consume:" ^ stg.Analysis.Races.pl_stream, task, wstats, elems, busy)
        in
        let drainer name =
          let ch = chan name in
          let elems = ref 0 and busy = ref 0.0 in
          let is_out =
            match output with Some o -> String.equal o name | None -> false
          in
          let task () =
            if is_out then begin
              let buf = ref [] and count = ref 0 in
              let flush () =
                if !count > 0 then begin
                  let arr = Array.of_list (List.rev !buf) in
                  buf := [];
                  count := 0;
                  let t0 = Obs.Collect.now () in
                  sink arr;
                  busy := !busy +. (Obs.Collect.now () -. t0)
                end
              in
              let rec loop () =
                match Stream.pop ch with
                | None -> flush ()
                | Some v ->
                  buf := v :: !buf;
                  incr count;
                  incr elems;
                  if !count >= config.Config.stream_chunk then flush ();
                  loop ()
              in
              loop ()
            end
            else
              (* unconsumed stream: drain and discard so producers never
                 block permanently on a full channel nobody reads *)
              let rec loop () =
                match Stream.pop ch with
                | None -> ()
                | Some _ ->
                  incr elems;
                  loop ()
              in
              loop ()
          in
          ("drain:" ^ name, task, Obs.Report.zero_counters (), elems, busy)
        in
        let workers =
          (("feed:" ^ input, feeder, feeder_stats, feeder_elems, feeder_busy)
          :: List.map stage_worker stages)
          @ List.map drainer terminals
        in
        let tasks = Array.of_list workers in
        let t0 = Obs.Collect.now () in
        Pool.run ~domains:(Array.length tasks) (fun i ->
            let _, task, _, _, _ = tasks.(i) in
            guard task ());
        let wall = Obs.Collect.now () -. t0 in
        (match !first_err with Some e -> raise e | None -> ());
        (* Drainers count nothing: their pops are bookkeeping, not
           program semantics (the batch path's sink hand-off does not
           count pops either). *)
        Array.iter
          (fun (_, _, s, _, _) -> Obs.Report.add_counters ~into:env.stats s)
          tasks;
        env.stats.states_executed <- env.stats.states_executed + 1;
        let channels = List.map (fun (_, c) -> Stream.stats c) chans in
        let worker_stats =
          List.map
            (fun (name, _, _, elems, busy) ->
              { Obs.Report.pw_name = name;
                pw_elements = !elems;
                pw_busy_s = !busy;
                pw_wall_s = wall })
            (Array.to_list tasks)
        in
        (channels, worker_stats)
      end

(* --- reusable instances (plan-once / run-many) ----------------------------- *)

(* A persistent execution environment for one (graph, symbol valuation,
   config) triple.  Compiled plans close over their environment — the
   stats record, the collector, the container table, even specific
   tensors for recognized bulk kernels — so reuse means keeping ONE
   environment alive and resetting its mutable contents per run, not
   rebuilding it.  This is the unit the serving layer caches: validate
   once, plan on first run, then every subsequent run pays only
   copy-in + execute + copy-out. *)
module Instance = struct
  type t = {
    i_env : env;
    i_config : Config.t;
    i_symbols : (string * int) list;
    i_lock : Mutex.t;  (* an instance runs one request at a time *)
  }

  let create ?(config = Config.default) ?(symbols = []) (g : sdfg) : t =
    (* Timing spans memoize into plan closures at compile time, so a
       timed plan would accumulate spans across requests; instances are
       counters-only. *)
    let config = { config with Config.instrument = Obs.Collect.Off } in
    (* Every container is allocated up front so plans and recognized
       kernels bind to tensors that stay stable across runs.  Shapes
       concretize against the instance's symbol valuation, which is why
       the valuation is part of the instance's identity (and of the serve
       cache key).  The clone isolates the plans from later caller
       mutation of [g]. *)
    let env =
      make_env config (Sdfg.clone g) ~containers:(Hashtbl.create 16) ~symbols
    in
    { i_env = env; i_config = config; i_symbols = symbols;
      i_lock = Mutex.create () }

  let config inst = inst.i_config
  let symbols inst = inst.i_symbols
  let graph inst = inst.i_env.g

  let reset_par (p : par_stats) =
    p.par_maps <- 0;
    p.par_chunks <- 0;
    p.par_forced_seq <- 0;
    (* decision records are plan-scoped (registered at compile time, the
       plans survive the reset), so keep them and zero the per-run
       tallies *)
    List.iter
      (fun (d : Obs.Report.map_decision) ->
        d.pm_invocations <- 0;
        d.pm_trips <- 0)
      p.par_decisions

  (* Shared per-run preparation: validate the request's containers,
     restore the instance's symbol valuation, zero the counters, copy
     the request's tensors in, zero-fill unsupplied tensors exactly as
     [enter] zero-allocates them, and empty every stream. *)
  let prepare (inst : t) args =
    let env = inst.i_env in
    List.iter
      (fun (name, _) ->
        if not (Hashtbl.mem env.containers name) then
          runtime_error "instance %S: unknown argument container %S"
            env.g.g_name name)
      args;
    Hashtbl.reset env.symbols;
    List.iter
      (fun (s, v) -> Hashtbl.replace env.symbols s v)
      inst.i_symbols;
    Obs.Report.reset_counters env.stats;
    reset_par env.par;
    Hashtbl.iter
      (fun name c ->
        match c with
        | Tens t -> (
          match List.assoc_opt name args with
          | Some src ->
            if
              Tensor.shape src <> Tensor.shape t
              || Tensor.dtype src <> Tensor.dtype t
            then
              runtime_error
                "instance %S: argument %S does not match the instance's \
                 shape/dtype for that container"
                env.g.g_name name
            else Tensor.copy_into ~src ~dst:t
          | None -> Tensor.fill t (Tasklang.Types.zero_of (Tensor.dtype t)))
        | Strm s -> Array.iter Stream.clear s.qs)
      env.containers

  let copy_out env args =
    List.iter
      (fun (name, dst) ->
        match Hashtbl.find_opt env.containers name with
        | Some (Tens src) -> Tensor.copy_into ~src ~dst
        | _ -> ())
      args

  (* One run: copy the request's tensors in, reset every piece of
     mutable run state the plans close over, execute, copy results back
     into the caller's tensors (preserving {!run}'s mutate-in-place
     contract).  Bit-identical to a fresh [run] with the same config.
     [stream_args] pre-loads stream containers element-by-element before
     the state machine starts — the batch baseline the streaming
     cross-validation oracle compares against. *)
  let run ?(args = []) ?(stream_args = []) (inst : t) : Obs.Report.t =
    Mutex.lock inst.i_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock inst.i_lock) @@ fun () ->
    let env = inst.i_env in
    prepare inst args;
    List.iter
      (fun (name, vs) ->
        match Hashtbl.find_opt env.containers name with
        | Some (Strm s) -> feed_stream env s vs
        | _ ->
          runtime_error "instance %S: stream argument %S is not a stream"
            env.g.g_name name)
      stream_args;
    let t0 = Obs.Collect.now () in
    run_state_machine env;
    let wall_s = Obs.Collect.now () -. t0 in
    copy_out env args;
    report env ~wall_s

  (* Non-destructive peek at a stream container's buffered contents, in
     pop order.  How batch runs expose what streaming runs hand to the
     sink. *)
  let stream_contents (inst : t) name : value array =
    match Hashtbl.find_opt inst.i_env.containers name with
    | Some (Strm s) ->
      Array.of_list (List.concat_map Stream.to_list (Array.to_list s.qs))
    | Some _ ->
      runtime_error "instance %S: container %S is not a stream"
        inst.i_env.g.g_name name
    | None ->
      runtime_error "instance %S: no container %S" inst.i_env.g.g_name name

  (* Streaming run: feed [input] incrementally from [source] (chunks of
     elements, [None] = end of stream), emit [output] incrementally to
     [sink].  When the pipeline verdict admits it the consume scopes run
     as overlapped workers with bounded backpressure channels; otherwise
     the graph executes once, batch-style, after the source drains.
     Either way the observable results are bit-identical to
     [run ~stream_args:[(input, all-elements)]] followed by
     [stream_contents] on the output. *)
  let run_streaming ?(args = []) ~input ?output
      ?(sink = fun (_ : value array) -> ()) ~source (inst : t) :
      Obs.Report.t =
    Mutex.lock inst.i_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock inst.i_lock) @@ fun () ->
    let env = inst.i_env in
    prepare inst args;
    let t0 = Obs.Collect.now () in
    let channels, workers =
      run_streaming_env env inst.i_config ~input ~output ~source ~sink
    in
    let wall_s = Obs.Collect.now () -. t0 in
    copy_out env args;
    report env ~wall_s ~channels ~workers
end
