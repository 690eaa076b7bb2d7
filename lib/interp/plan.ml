(* Compiled execution engine: plan once, run many.

   The reference interpreter ({!Reference}) re-derives everything on
   every map iteration: scope bodies are recomputed per invocation,
   symbol frames are assoc lists rebuilt per iteration, memlet subsets
   are concretized through the symbolic evaluator per tasklet execution,
   and tasklet bodies are re-walked ASTs.  This module lowers each state
   once into a plan of OCaml closures:

   - map scopes become native loop nests over a flat [int array] symbol
     frame, with range endpoints compiled by {!Symbolic.Expr.compile} to
     slot-indexed closures;
   - tasklet bodies are closure-compiled by {!Tasklang.Compile}, with
     connectors resolved at plan time to strided offset arithmetic over
     the underlying buffers (mirroring [Tensor.view_subset]/[squeeze])
     and pushes to scalar streams resolved to their queue;
   - top-level consume scopes over single-queue streams become the
     reference's pop-until-empty loop around a body compiled once — the
     same body compiler streaming pipeline workers use;
   - access nodes that are pure wiring compile to nothing;
   - everything the plan does not compile — multi-queue streams, consume
     scopes nested in other scopes or whose bodies do not compile in
     full, nested SDFGs, external tasklets, reductions, copies that move
     data and any expression over data-dependent symbols (rank-0
     containers, stream lengths) — falls back to the reference executors
     node by node, so semantics and instrumentation counters stay
     identical.

   Plans are cached per state in the run's environment, keyed by the
   state's structural version, so repeated state executions (time loops)
   and repeated map iterations pay the lowering cost once.  The
   reference interpreter remains the semantic oracle: the cross-
   validation suite checks both engines produce bit-identical tensors
   and equal stats. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Sdfg_ir
open Defs
open Tasklang.Types

(* Raised during plan construction when a construct cannot be compiled;
   the construct is then executed through the reference engine. *)
exception Fallback

type ctx = {
  env : Reference.env;
  st : state;
  mutable frame : int array;   (* allocated once slot count is known *)
  mutable n_slots : int;
  sym_slots : (string, int) Hashtbl.t;  (* interstate symbol -> slot *)
  popped : (string * value ref) option;
      (* consume-body compilation: the consumed stream and the cell
         holding the element popped for the current body invocation *)
  cov : Obs.Collect.t;
      (* where plan-coverage notes go: the run's collector, or a scratch
         one while a consume body compiles, merged only if it compiles *)
}

(* One worker domain's compiled copy of a parallel map body.  Each
   replica owns its frame, stats, collector and — for WCR accumulators
   and privatized transients — its own container bindings, so worker
   domains share nothing mutable except the output tensors the race
   analysis proved disjoint. *)
type replica = {
  rp_stats : Obs.Report.counters;  (* merged into the main stats after join *)
  rp_collector : Obs.Collect.t;  (* absorbed under the map's span *)
  rp_refresh : unit -> unit;     (* reload interstate symbol slots *)
  rp_acc : Tensor.t array;       (* private accumulators, in verdict order *)
  rp_kind : string option;       (* recognized bulk-kernel kind, if any *)
  rp_run : int -> int -> int -> unit;  (* lo hi step over the outer param *)
}

let alloc_slot ctx =
  let i = ctx.n_slots in
  ctx.n_slots <- i + 1;
  i

let sym_slot ctx name =
  match Hashtbl.find_opt ctx.sym_slots name with
  | Some i -> i
  | None ->
    let i = alloc_slot ctx in
    Hashtbl.add ctx.sym_slots name i;
    i

(* Resolve a free symbol of an expression to a frame slot.  Scope
   parameters shadow interstate symbols, outer scopes first — the assoc
   order of the reference interpreter.  Names backed by runtime
   containers (rank-0 arrays, stream lengths) are data-dependent and
   names with no value yet may become either: both reject compilation so
   the reference path re-evaluates them dynamically. *)
let slot_fn ctx scope_env name =
  match List.assoc_opt name scope_env with
  | Some i -> i
  | None ->
    if Hashtbl.mem ctx.env.Reference.containers name then raise Fallback
    else if Hashtbl.mem ctx.env.Reference.symbols name then sym_slot ctx name
    else raise Fallback

let comp_expr ctx scope_env e : int array -> int =
  Expr.compile ~slot:(slot_fn ctx scope_env) e

(* Interstate symbol slots reload from the symbol table at every
   execution; membership was checked at plan time and symbols are never
   removed.  Call once every slot is allocated and the frame exists. *)
let symbol_refresh ctx =
  let slots =
    Array.of_list
      (Hashtbl.fold (fun name slot acc -> (name, slot) :: acc) ctx.sym_slots
         [])
  in
  let symbols = ctx.env.Reference.symbols in
  fun () ->
    let fr = ctx.frame in
    Array.iter
      (fun (name, slot) -> fr.(slot) <- Hashtbl.find symbols name)
      slots

(* A map's range endpoints, compiled against the enclosing scope: ranges
   may not use the map's own parameters, exactly like the reference. *)
let comp_dims ctx scope_env (info : map_info) =
  Array.of_list
    (List.map2
       (fun p (r : Subset.range) ->
         ( p,
           comp_expr ctx scope_env r.start,
           comp_expr ctx scope_env r.stop,
           comp_expr ctx scope_env r.stride ))
       info.mp_params info.mp_ranges)

(* Evaluate [dims] against the frame once per invocation into a bounds
   scratch, [lo; hi; step] per dimension, as the reference does. *)
let eval_bounds ctx dims bounds =
  let fr = ctx.frame in
  Array.iteri
    (fun k (p, lo_f, hi_f, step_f) ->
      bounds.(3 * k) <- lo_f fr;
      bounds.((3 * k) + 1) <- hi_f fr;
      let s = step_f fr in
      if s <= 0 then
        Reference.runtime_error
          "map over parameter %S in state %S: non-positive stride %d" p
          ctx.st.st_label s;
      bounds.((3 * k) + 2) <- s)
    dims

(* The loop nest over dimensions [from..] of a map: each level writes its
   parameter's frame slot from [bounds], and the innermost level counts
   one map iteration before running the body steps. *)
let loop_nest ctx ~from pslots bounds steps =
  let stats = ctx.env.Reference.stats in
  let run_body () =
    stats.map_iterations <- stats.map_iterations + 1;
    for i = 0 to Array.length steps - 1 do
      (Array.unsafe_get steps i) ()
    done
  in
  let rec build k =
    if k = Array.length pslots then run_body
    else
      let inner = build (k + 1) in
      let slot = snd pslots.(k) in
      fun () ->
        let fr = ctx.frame in
        let hi = bounds.((3 * k) + 1) and step = bounds.((3 * k) + 2) in
        let i = ref bounds.(3 * k) in
        while !i <= hi do
          fr.(slot) <- !i;
          inner ();
          i := !i + step
        done
  in
  build from

(* --- node compilation --------------------------------------------------- *)

(* Plan-time instrumentation specialization: with timing off the compiled
   closure is returned untouched — the instrumented engine and the plain
   engine run byte-for-byte the same code, there is no per-iteration
   branch.  With timing on, the span is resolved once on first execution
   and re-entered thereafter (a plan closure always runs under the same
   static scope chain, so its span's parent is stable). *)
let spanned ctx kind name ~flag (f : unit -> unit) : unit -> unit =
  let c = ctx.env.Reference.collector in
  if not (Obs.Collect.should_time c ~flag) then f
  else
    let memo = ref None in
    fun () ->
      let sp =
        match !memo with
        | Some sp ->
          Obs.Collect.reenter c sp;
          sp
        | None ->
          let sp = Obs.Collect.enter c kind name in
          memo := Some sp;
          sp
      in
      (match f () with
      | () -> ()
      | exception e ->
        Obs.Collect.exit c sp;
        raise e);
      Obs.Collect.exit c sp

(* Engine v2: try to lower a map scope to a bulk strided kernel
   ({!Kernels}).  The closure nest is kept as the kernel's slow path —
   launches whose bounds pre-check fails replay through it, reproducing
   the reference engine's exact error and partial counters — so
   recognition only ever changes how fast the common case runs.  The
   outcome is tallied in plan coverage either way. *)
let try_kernel ctx scope_env entry (info : map_info) : Kernels.t option =
  if not ctx.env.Reference.kernels then None
  else begin
    let collector = ctx.cov in
    let result =
      (* a parameter shadowed by an enclosing scope does not iterate in
         subscripts (outer bindings win in the reference's assoc order),
         which the kernel's substitution-based extractor cannot express *)
      if List.exists (fun p -> List.mem_assoc p scope_env) info.mp_params
      then Error "shadowed"
      else
        Kernels.recognize ~env:ctx.env ~st:ctx.st ~entry ~info
          ~comp:(fun e ->
            match comp_expr ctx scope_env e with
            | f -> Some f
            | exception Fallback -> None)
    in
    match result with
    | Ok k ->
      Obs.Collect.note_kernel_map collector k.Kernels.k_name;
      Some k
    | Error r ->
      Obs.Collect.note_kernel_fallback collector r;
      None
  end

(* [strict] compilation admits no reference fallback: any node the plan
   cannot lower raises {!Fallback} instead of building a closure over
   [Reference.exec_nodes].  The parallel map compiler uses it — worker
   domains must only ever run compiled closures (the reference executors
   walk shared mutable engine state: symbol tables, scope caches, the
   symbolic evaluator's memo tables). *)
let rec comp_node ?(strict = false) ctx scope_env nid : unit -> unit =
  let collector = ctx.cov in
  let fallback () =
    if strict then raise Fallback;
    Obs.Collect.note_fallback_node collector;
    let env = ctx.env and st = ctx.st in
    match scope_env with
    | [] ->
      fun () -> Reference.exec_nodes env st ~params:[] ~popped:[] [ nid ]
    | _ ->
      let se = Array.of_list scope_env in
      fun () ->
        let fr = ctx.frame in
        let params =
          Array.to_list (Array.map (fun (p, slot) -> (p, fr.(slot))) se)
        in
        Reference.exec_nodes env st ~params ~popped:[] [ nid ]
  in
  match State.node ctx.st nid with
  | Map_entry info -> (
    try
      let f =
        match
          if strict || scope_env <> [] then None
          else comp_parallel_map ctx nid info
        with
        | Some f -> f
        | None -> comp_map ~strict ctx scope_env nid info
      in
      Obs.Collect.note_compiled_node collector;
      spanned ctx Obs.Collect.Map (Reference.map_span_name info)
        ~flag:info.mp_instrument f
    with Fallback -> fallback ())
  | Tasklet t -> (
    try
      let f = comp_tasklet ctx scope_env nid t in
      Obs.Collect.note_compiled_node collector;
      spanned ctx Obs.Collect.Tasklet t.t_name ~flag:t.t_instrument f
    with Fallback -> fallback ())
  | Map_exit | Consume_exit -> fun () -> ()
  | Access d ->
    (* An access node is wiring — compiled to nothing and tallied in
       neither coverage count, like a scope exit — when no incident edge
       makes the reference's access executor move data: no scope-entry
       copy-in or commit naming another container, and no memlet to an
       adjacent access node.  Real copies fall back. *)
    let passthrough =
      List.for_all
        (fun (e : edge) ->
          (not (State.is_scope_entry ctx.st e.e_src))
          ||
          match e.e_memlet with
          | None -> true
          | Some m -> String.equal m.m_data d)
        (State.in_edges ctx.st nid)
      && List.for_all
           (fun (e : edge) ->
             match State.node ctx.st e.e_dst with
             | Access _ -> e.e_memlet = None
             | Map_exit | Consume_exit -> (
               match e.e_memlet with
               | None -> true
               | Some m -> String.equal m.m_data d)
             | _ -> true)
           (State.out_edges ctx.st nid)
    in
    if passthrough then fun () -> () else fallback ()
  | Consume_entry info
    when Hashtbl.find (State.scope_parents ctx.st) nid = None -> (
    try
      let f = comp_consume ctx nid info in
      Obs.Collect.note_compiled_node collector;
      spanned ctx Obs.Collect.Consume info.cs_stream ~flag:info.cs_instrument f
    with Fallback -> fallback ())
  | Consume_entry _ | Reduce _ | Nested_sdfg _ -> fallback ()

(* A map scope compiles to a loop nest: ranges are evaluated once per
   invocation into a bounds scratch (as the reference does), each level
   writes its parameter's frame slot, and the innermost level counts one
   map iteration before running the body steps. *)
and comp_map ?(strict = false) ctx scope_env entry (info : map_info) :
    unit -> unit =
  let dims = comp_dims ctx scope_env info in
  let pslots = Array.map (fun (p, _, _, _) -> (p, alloc_slot ctx)) dims in
  let scope_env' = scope_env @ Array.to_list pslots in
  let steps =
    Array.of_list
      (List.map
         (comp_node ~strict ctx scope_env')
         (Reference.scope_body ctx.st entry))
  in
  let bounds = Array.make (max 1 (Array.length dims * 3)) 0 in
  let nest = loop_nest ctx ~from:0 pslots bounds steps in
  let launch =
    match try_kernel ctx scope_env entry info with
    | None -> nest
    | Some k ->
      fun () ->
        k.Kernels.k_run ~frame:ctx.frame ~bounds ~lo:bounds.(0)
          ~hi:bounds.(1) ~step:bounds.(2) ~slow:nest
  in
  fun () ->
    eval_bounds ctx dims bounds;
    launch ()

(* --- parallel maps ------------------------------------------------------- *)

(* Decide whether a top-level map runs on the domain pool.  Gated on the
   schedule being [Cpu_multicore], the policy allowing more than zero
   parallel candidates ([Fixed 1] compiles the plain sequential nest),
   the static race analysis returning [Parallel], no runtime aliasing
   among the scope's written containers, and the body compiling in strict
   mode (no reference fallback on worker domains).  Any rejection yields
   the ordinary sequential compilation wrapped with a forced-sequential
   counter plus a policy decision record, so reports show exactly how
   much parallelism was declined and why.  Under a [Predictive] policy
   the worker count is then chosen per invocation by
   {!Machine.Cost.Parallel.predict}. *)
and comp_parallel_map ctx nid (info : map_info) : (unit -> unit) option =
  let env = ctx.env in
  if info.mp_schedule <> Cpu_multicore then None
  else if (match env.Reference.policy with
          | Reference.Fixed d -> d <= 1
          | Reference.Predictive _ -> false)
  then None
  else
    let par = env.Reference.par in
    let forced verdict =
      let seq = comp_map ctx [] nid info in
      let md =
        Reference.register_decision par ~state:ctx.st.st_label ~node:nid
          ~map:(Reference.map_span_name info) ~kind:"closure" ~verdict
          ~forced:true
      in
      md.pm_reason <- "forced-serial";
      Some
        (fun () ->
          par.Reference.par_forced_seq <- par.Reference.par_forced_seq + 1;
          md.pm_invocations <- md.pm_invocations + 1;
          seq ())
    in
    match Analysis.Races.analyze_map env.Reference.g ctx.st nid with
    (* the analysis must never abort execution: any failure to analyze is
       a failure to prove safety *)
    | exception _ -> forced "analysis-error"
    | report -> (
      match report.Analysis.Races.mr_verdict with
      | Analysis.Races.Serial r -> forced r.Analysis.Races.r_code
      | Analysis.Races.Parallel { accumulate; privatize } -> (
        try
          Some
            (build_parallel ctx nid info ~accumulate ~privatize
               ~containers:report.Analysis.Races.mr_containers
               ~verdict:
                 (Analysis.Races.verdict_code
                    report.Analysis.Races.mr_verdict))
        with Fallback -> forced "not-compiled"))

and build_parallel ctx entry (info : map_info) ~accumulate ~privatize
    ~containers ~verdict : unit -> unit =
  let env = ctx.env in
  let d = env.Reference.domains in
  let policy = env.Reference.policy in
  let tens name =
    match Hashtbl.find_opt env.Reference.containers name with
    | Some (Reference.Tens t) -> t
    | _ -> raise Fallback
  in
  (* The race analysis reasons about container *names*; at runtime two
     names can alias one buffer (nested-SDFG views of overlapping outer
     windows).  If any accessed pair involving a write shares a buffer,
     refuse to parallelize. *)
  let accessed =
    List.map (fun (name, cls) -> (name, cls, tens name)) containers
  in
  List.iter
    (fun (n1, c1, t1) ->
      List.iter
        (fun (n2, c2, t2) ->
          if
            n1 < n2
            && (c1 <> Analysis.Races.Read_only
               || c2 <> Analysis.Races.Read_only)
            && Tensor.shares_buffer t1 t2
          then raise Fallback)
        accessed)
    accessed;
  (* Outer range endpoints compile against the enclosing (top-level)
     scope on the main ctx; evaluated once per invocation into a bounds
     scratch the workers read but never write. *)
  let dims = comp_dims ctx [] info in
  let nd = Array.length dims in
  if nd = 0 then raise Fallback;
  let bounds = Array.make (nd * 3) 0 in
  let body_ids = Reference.scope_body ctx.st entry in
  let acc_shared =
    Array.of_list
      (List.map
         (fun (name, w) ->
           let t = tens name in
           match Wcr.identity w (Tensor.dtype t) with
           | Some idv -> (w, t, idv)
           | None -> raise Fallback)
         accumulate)
  in
  let n_acc = Array.length acc_shared in
  let acc_names = Array.of_list (List.map fst accumulate) in
  let priv_names = Array.of_list privatize in
  (* [solo]: a replica that shares the run's containers outright — no
     private accumulators, no privatized transients — so running it over
     the full range is bit-identical to the sequential plan.  The
     predictive policy dispatches onto it whenever it predicts one
     domain, paying no fork, no merge and no extra float-combine
     reordering. *)
  let make_replica ~solo _ =
    let rcontainers =
      if solo || (n_acc = 0 && Array.length priv_names = 0) then
        env.Reference.containers
      else begin
        let tbl = Hashtbl.copy env.Reference.containers in
        Array.iteri
          (fun a name ->
            let _, t, idv = acc_shared.(a) in
            let p =
              Tensor.create (Tensor.dtype t) (Array.copy (Tensor.shape t))
            in
            Tensor.fill p idv;
            Hashtbl.replace tbl name (Reference.Tens p))
          acc_names;
        Array.iter
          (fun name ->
            let t = tens name in
            Hashtbl.replace tbl name
              (Reference.Tens
                 (Tensor.create (Tensor.dtype t)
                    (Array.copy (Tensor.shape t)))))
          priv_names;
        tbl
      end
    in
    let renv =
      { env with
        Reference.stats = Obs.Report.zero_counters ();
        collector =
          Obs.Collect.create (Obs.Collect.level env.Reference.collector);
        containers = rcontainers }
    in
    let rctx =
      { env = renv; st = ctx.st; frame = [||]; n_slots = 0;
        sym_slots = Hashtbl.create 8; popped = None;
        cov = renv.Reference.collector }
    in
    let pslots = Array.map (fun (p, _, _, _) -> (p, alloc_slot rctx)) dims in
    let scope_env = Array.to_list pslots in
    let steps =
      Array.of_list
        (List.map (comp_node ~strict:true rctx scope_env) body_ids)
    in
    (* per-replica kernel recognition: operand buffers bind against the
       replica's containers (private accumulators and transients), and
       any symbol slots it allocates must precede the frame allocation *)
    let kernel = try_kernel rctx [] entry info in
    rctx.frame <- Array.make (max 1 rctx.n_slots) 0;
    (* inner dimensions loop sequentially inside each chunk *)
    let inner = loop_nest rctx ~from:1 pslots bounds steps in
    let slot0 = snd pslots.(0) in
    let run_range lo hi step =
      let fr = rctx.frame in
      let i = ref lo in
      while !i <= hi do
        fr.(slot0) <- !i;
        inner ();
        i := !i + step
      done
    in
    let run_range =
      match kernel with
      | None -> run_range
      | Some k ->
        fun lo hi step ->
          k.Kernels.k_run ~frame:rctx.frame ~bounds ~lo ~hi ~step
            ~slow:(fun () -> run_range lo hi step)
    in
    let rp_acc =
      if solo then [||]
      else
        Array.map
          (fun name ->
            match Hashtbl.find rcontainers name with
            | Reference.Tens p -> p
            | _ -> assert false)
          acc_names
    in
    { rp_stats = renv.Reference.stats; rp_collector = renv.Reference.collector;
      rp_refresh = symbol_refresh rctx; rp_acc;
      rp_kind = Option.map (fun k -> k.Kernels.k_name) kernel;
      rp_run = run_range }
  in
  let predictive =
    match policy with
    | Reference.Predictive _ -> true
    | Reference.Fixed _ -> false
  in
  let replicas =
    if d > 1 then Array.init d (make_replica ~solo:false) else [||]
  in
  (* The predictive policy needs a one-domain runner with sequential
     semantics.  For disjoint-write maps replica 0 already shares the
     run's containers, so reuse it; accumulating/privatizing maps get a
     dedicated solo replica bound to the shared tensors. *)
  let solo =
    if not predictive then None
    else if d > 1 && n_acc = 0 && Array.length priv_names = 0 then
      Some replicas.(0)
    else Some (make_replica ~solo:true 0)
  in
  (* body nodes were compiled once per replica on replica collectors;
     report one replica's coverage so totals equal the sequential plan.
     (A solo replica aliasing replica 0 must not be merged twice.) *)
  let coverage_replica =
    if d > 1 then replicas.(0)
    else match solo with Some s -> s | None -> assert false
  in
  Obs.Collect.merge_coverage ctx.cov coverage_replica.rp_collector;
  let kind = coverage_replica.rp_kind in
  let md =
    Reference.register_decision env.Reference.par ~state:ctx.st.st_label
      ~node:entry ~map:(Reference.map_span_name info)
      ~kind:(match kind with Some k -> k | None -> "closure")
      ~verdict ~forced:false
  in
  (* accumulator footprint the post-join merge scans, priced by the
     predictive policy *)
  let merge_elems =
    Array.fold_left
      (fun acc (_, t, _) -> acc + Tensor.num_elements t)
      0 acc_shared
  in
  let par = env.Reference.par in
  let collector = env.Reference.collector in
  (* merge one worker's counters into the run's; totals stay bit-equal
     to sequential because every iteration is counted exactly once *)
  let publish (r : replica) =
    Obs.Report.add_counters ~into:env.Reference.stats r.rp_stats;
    Obs.Report.reset_counters r.rp_stats
  in
  (* interstate symbols may have changed since the last invocation:
     refresh a participating replica's slots before dispatch *)
  let refresh r = r.rp_refresh () in
  fun () ->
    eval_bounds ctx dims bounds;
    let lo = bounds.(0) and hi = bounds.(1) and step = bounds.(2) in
    if lo > hi then begin
      md.pm_trips <- 0;
      md.pm_domains <- 1;
      md.pm_reason <-
        (match policy with
        | Reference.Fixed _ -> "pinned"
        | Reference.Predictive _ -> "zero-trip");
      md.pm_invocations <- md.pm_invocations + 1
    end
    else begin
      let trips = ((hi - lo) / step) + 1 in
      let workers =
        match policy with
        | Reference.Fixed _ ->
          md.pm_reason <- "pinned";
          if trips < d then trips else d
        | Reference.Predictive cap ->
          (* price the whole nest: outer trips x inner iterations *)
          let inner =
            let p = ref 1 in
            for k = 1 to nd - 1 do
              let klo = bounds.(3 * k)
              and khi = bounds.((3 * k) + 1)
              and kst = bounds.((3 * k) + 2) in
              p := !p * (if klo > khi then 0 else ((khi - klo) / kst) + 1)
            done;
            !p
          in
          let dec =
            Machine.Cost.Parallel.predict
              ~max_domains:(if trips < cap then trips else cap)
              ~kind ~trips ~inner ~merge_elems ()
          in
          md.pm_reason <- dec.Machine.Cost.Parallel.d_reason;
          dec.Machine.Cost.Parallel.d_domains
      in
      md.pm_trips <- trips;
      md.pm_domains <- workers;
      md.pm_invocations <- md.pm_invocations + 1;
      match solo with
      | Some s when workers <= 1 ->
        (* sequential by prediction: the solo replica runs the whole
           range against the shared containers — bit-identical to (and
           as fast as) the sequential plan, no fork, no merge *)
        refresh s;
        s.rp_run lo hi step;
        publish s;
        if Obs.Collect.timing_on collector then
          Obs.Collect.absorb collector s.rp_collector
      | _ ->
        par.Reference.par_maps <- par.Reference.par_maps + 1;
        for w = 0 to workers - 1 do
          refresh replicas.(w)
        done;
        if n_acc > 0 || kind <> None then begin
          (* one contiguous block per worker.  For accumulating maps the
             private-accumulator merge below then combines partial sums
             in canonical (ascending-iteration) order, so results are
             deterministic for a given domain count; for bulk-kernel
             bodies it means one kernel launch per worker — [workers]
             flat strided loops with no shared chunk cursor to contend
             on *)
          par.Reference.par_chunks <- par.Reference.par_chunks + workers;
          Pool.run ~domains:workers (fun w ->
              let t0 = w * trips / workers
              and t1 = (w + 1) * trips / workers in
              if t1 > t0 then
                replicas.(w).rp_run
                  (lo + (t0 * step))
                  (lo + ((t1 - 1) * step))
                  step)
        end
        else begin
          (* disjoint closure bodies: chunk assignment cannot affect the
             result, so deal chunks dynamically for load balance; the
             cursor deals each chunk exactly once, so the tally is known
             before dispatch *)
          let nchunks =
            if trips < workers * 4 then trips else workers * 4
          in
          par.Reference.par_chunks <- par.Reference.par_chunks + nchunks;
          let next = Atomic.make 0 in
          Pool.run ~domains:workers (fun w ->
              let r = replicas.(w) in
              let continue_ = ref true in
              while !continue_ do
                let c = Atomic.fetch_and_add next 1 in
                if c >= nchunks then continue_ := false
                else begin
                  let t0 = c * trips / nchunks
                  and t1 = (c + 1) * trips / nchunks in
                  if t1 > t0 then
                    r.rp_run
                      (lo + (t0 * step))
                      (lo + ((t1 - 1) * step))
                      step
                end
              done)
        end;
        (* merge per-domain counters; totals are bit-equal to sequential *)
        for w = 0 to workers - 1 do
          publish replicas.(w)
        done;
        (* fold worker timing trees under this map's open span *)
        if Obs.Collect.timing_on collector then
          for w = 0 to workers - 1 do
            Obs.Collect.absorb collector replicas.(w).rp_collector
          done;
        (* merge the private WCR accumulators into the shared containers
           in worker-index order (= ascending iteration order), resetting
           each to the identity for the next invocation.  Identity
           elements are skipped: an element no iteration touched must not
           be rewritten. *)
        for a = 0 to n_acc - 1 do
          let w_, shared, idv = acc_shared.(a) in
          let n = Tensor.num_elements shared in
          for wk = 0 to workers - 1 do
            let priv = replicas.(wk).rp_acc.(a) in
            for i = 0 to n - 1 do
              let v = Tensor.get_linear priv i in
              if v <> idv then begin
                Tensor.set_linear shared i
                  (Wcr.apply w_ ~old_v:(Tensor.get_linear shared i)
                     ~new_v:v);
                Tensor.set_linear priv i idv
              end
            done
          done
        done
    end

(* A top-level consume scope over a single-queue batch stream compiles to
   the reference's quiescence loop ([Reference.exec_consume]) around a body
   compiled once: drain the stream (one lock-free pop per element),
   count one pop and one iteration per element, bind the PE parameter to
   [pe mod num_pes], and stop with the reference's error past 100M
   iterations.  The PE count is evaluated in the enclosing scope once per
   invocation, like the reference.  Multi-queue streams stay on the
   reference path. *)
and comp_consume ctx entry (info : consume_info) : unit -> unit =
  let q =
    match Hashtbl.find_opt ctx.env.Reference.containers info.cs_stream with
    | Some (Reference.Strm { Reference.qs = [| q |]; _ }) -> q
    | _ -> raise Fallback
  in
  let num_pes = comp_expr ctx [] info.cs_num_pes in
  let refresh, step =
    comp_consume_body ~cov:ctx.cov ctx.env ctx.st entry info
  in
  let stats = ctx.env.Reference.stats in
  fun () ->
    let num_pes = max 1 (num_pes ctx.frame) in
    refresh ();
    let pe = ref 0 in
    Stream.drain q (fun v ->
        if !pe >= 100_000_000 then
          Reference.runtime_error
            "consume scope on %S exceeded iteration budget" info.cs_stream;
        stats.stream_pops <- stats.stream_pops + 1;
        stats.map_iterations <- stats.map_iterations + 1;
        step (!pe mod num_pes) v;
        incr pe)

(* Compile one consume scope's body for per-element execution, shared by
   the batch loop above and the streaming pipeline workers
   ({!compile_stage}).  The body gets its own frame: the PE parameter
   takes a slot, the popped element binds as a scalar through a cell,
   pushes resolve to the stream (a pipeline's channel), and inner maps
   compile as usual (bulk kernels included).  Strict: a body the plan
   cannot fully lower raises {!Fallback} and the whole scope stays on
   the reference path; its coverage notes are dropped with it.  Returns
   [(refresh, step)]: [refresh ()] reloads the interstate symbol slots,
   [step pe v] runs the body for one element [v] on PE [pe]. *)
and comp_consume_body ~cov env st entry (info : consume_info) :
    (unit -> unit) * (int -> value -> unit) =
  let cell = ref (I 0) in
  let ctx =
    { env; st; frame = [||]; n_slots = 0; sym_slots = Hashtbl.create 8;
      popped = Some (info.cs_stream, cell);
      cov = Obs.Collect.create Obs.Collect.Off }
  in
  let pe_slot = alloc_slot ctx in
  let steps =
    Array.of_list
      (List.map
         (comp_node ~strict:true ctx [ (info.cs_pe_param, pe_slot) ])
         (Reference.scope_body st entry))
  in
  Obs.Collect.merge_coverage cov ctx.cov;
  ctx.frame <- Array.make (max 1 ctx.n_slots) 0;
  let fr = ctx.frame in
  ( symbol_refresh ctx,
    fun pe v ->
      fr.(pe_slot) <- pe;
      cell := v;
      for i = 0 to Array.length steps - 1 do
        (Array.unsafe_get steps i) ()
      done )

(* A tasklet compiles when its code is Tasklang, every connected memlet
   targets an array container or a scalar stream, and all subset
   expressions compile.
   Binding order, counter updates and error behavior mirror
   [Reference.exec_tasklet] / [bind_input] / [bind_output]. *)
and comp_tasklet ctx scope_env nid (t : tasklet) : unit -> unit =
  let env = ctx.env and st = ctx.st in
  let code = match t.t_code with Code c -> c | External _ -> raise Fallback in
  let tens_of name =
    match Hashtbl.find_opt env.Reference.containers name with
    | Some (Reference.Tens tt) -> tt
    | _ -> raise Fallback  (* streams keep reference pop/push semantics *)
  in
  let stats = env.Reference.stats in
  let prologues = ref [] and resolutions = ref [] in
  let add_in (e : edge) =
    match e.e_dst_conn, e.e_memlet with
    | Some conn, Some m
      when (match ctx.popped with
           | Some (sname, _) -> String.equal sname m.m_data
           | None -> false) ->
      (* the stage's popped stream element: bound as a scalar, no stats
         counted — mirrors [Reference.exec_tasklet]'s short-circuit *)
      let cell =
        match ctx.popped with Some (_, c) -> c | None -> assert false
      in
      resolutions :=
        (conn, Tasklang.Compile.Scalar_src (fun () -> !cell)) :: !resolutions
    | Some conn, Some m ->
      let kconn =
        match List.find_opt (fun c -> c.k_name = conn) t.t_inputs with
        | Some c -> c
        | None -> raise Fallback  (* the reference reports this at exec *)
      in
      let tens = tens_of m.m_data in
      let v =
        View.make ~comp:(comp_expr ctx scope_env) tens kconn.k_rank m.m_subset
      in
      let dyn = m.m_dynamic in
      if kconn.k_rank = 0 then begin
        (* scalar inputs snapshot their value before the body runs *)
        let snap = ref (I 0) in
        let get = View.lin_get tens in
        prologues :=
          (fun fr ->
            View.refresh v fr;
            stats.elements_moved <-
              stats.elements_moved + (if dyn then 1 else v.View.v_vol);
            snap := get v.View.v_base)
          :: !prologues;
        resolutions :=
          (conn, Tasklang.Compile.Scalar_src (fun () -> !snap))
          :: !resolutions
      end
      else begin
        prologues :=
          (fun fr ->
            View.refresh v fr;
            stats.elements_moved <-
              stats.elements_moved + (if dyn then 1 else v.View.v_vol))
          :: !prologues;
        let set _ _ =
          Reference.runtime_error "tasklet %S: writing input connector %S"
            t.t_name conn
        in
        resolutions :=
          (conn, Tasklang.Compile.Buffer_src (View.get v, set))
          :: !resolutions
      end
    | _ -> ()
  in
  let add_out (e : edge) =
    match e.e_src_conn, e.e_memlet with
    | Some conn, Some m -> (
      let kconn =
        match List.find_opt (fun c -> c.k_name = conn) t.t_outputs with
        | Some c -> c
        | None -> raise Fallback
      in
      match Hashtbl.find_opt env.Reference.containers m.m_data with
      | Some (Reference.Strm { Reference.q_shape = [||]; qs }) ->
        (* a scalar stream, as [Reference.bind_output]: one counted push per
           write (blocking while a pipeline channel is full), reads
           rejected *)
        let q = qs.(0) in
        resolutions :=
          (conn,
           Tasklang.Compile.Buffer_src
             ((fun _ ->
                Reference.runtime_error "reading output stream connector %S"
                  conn),
              fun _ v ->
                stats.stream_pushes <- stats.stream_pushes + 1;
                Stream.push q v))
          :: !resolutions
      | _ ->
        let tens = tens_of m.m_data in
        let v =
          View.make ~comp:(comp_expr ctx scope_env) tens kconn.k_rank
            m.m_subset
        in
        prologues := (fun fr -> View.refresh v fr) :: !prologues;
        resolutions :=
          (conn,
           Tasklang.Compile.Buffer_src (View.get v, View.set stats v m.m_wcr))
          :: !resolutions)
    | _ -> ()
  in
  List.iter add_in (State.in_edges st nid);
  List.iter add_out (State.out_edges st nid);
  let resolutions = List.rev !resolutions in
  let prologues = Array.of_list (List.rev !prologues) in
  (* name resolution order: input connectors, output connectors, scope
     parameters (outer first), interstate symbols — as in exec_tasklet *)
  let resolve name =
    match List.assoc_opt name resolutions with
    | Some r -> Some r
    | None -> (
      match List.assoc_opt name scope_env with
      | Some slot ->
        Some (Tasklang.Compile.Scalar_src (fun () -> I ctx.frame.(slot)))
      | None ->
        if Hashtbl.mem env.Reference.symbols name then
          Some
            (Tasklang.Compile.Scalar_src
               (fun () -> I (Hashtbl.find env.Reference.symbols name)))
        else None)
  in
  let body = Tasklang.Compile.compile ~resolve code in
  fun () ->
    stats.tasklet_execs <- stats.tasklet_execs + 1;
    let fr = ctx.frame in
    for i = 0 to Array.length prologues - 1 do
      (Array.unsafe_get prologues i) fr
    done;
    body ()

(* --- per-state plans ----------------------------------------------------- *)

let prepare (env : Reference.env) (st : state) : Reference.cached_plan =
  Obs.Collect.note_planned_state env.Reference.collector;
  let ctx =
    { env; st; frame = [||]; n_slots = 0; sym_slots = Hashtbl.create 8;
      popped = None; cov = env.Reference.collector }
  in
  let top =
    let parents = State.scope_parents st in
    List.filter
      (fun nid -> Hashtbl.find parents nid = None)
      (State.topological_order st)
  in
  let steps = Array.of_list (List.map (comp_node ctx []) top) in
  ctx.frame <- Array.make (max 1 ctx.n_slots) 0;
  let refresh = symbol_refresh ctx in
  let run () =
    refresh ();
    for i = 0 to Array.length steps - 1 do
      (Array.unsafe_get steps i) ()
    done
  in
  { Reference.pl_version = st.st_version; pl_run = run }

let exec_state (env : Reference.env) (st : state) =
  let stats = env.Reference.stats in
  stats.states_executed <- stats.states_executed + 1;
  let plan =
    match Hashtbl.find_opt env.Reference.plans st.st_id with
    | Some p when p.Reference.pl_version = st.st_version -> p
    | _ ->
      let p = prepare env st in
      Hashtbl.replace env.Reference.plans st.st_id p;
      p
  in
  plan.Reference.pl_run ()

(* --- streaming stage bodies ---------------------------------------------- *)

(* A pipeline worker's stage body: the batch consume loop's compiled body
   ({!comp_consume_body}) run on the worker's private environment, where
   the streams are its bounded channels.  [None] keeps the worker on the
   reference body loop.  Called from the main domain before the pipeline
   starts. *)
let compile_stage (env : Reference.env) (st : state) entry
    (info : consume_info) : (int -> value -> unit) option =
  match comp_consume_body ~cov:env.Reference.collector env st entry info with
  | exception Fallback -> None
  | refresh, step ->
    Some
      (fun pe v ->
        refresh ();
        step pe v)

let compiled : Reference.engine = `Compiled
let reference : Reference.engine = `Reference
