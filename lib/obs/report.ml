(* Structured execution reports — the result surface of [Exec.run].

   A report holds copies of everything a run observed: the instrumentation
   counters (the data-movement / execution counts the machine model
   cross-validates against), the per-construct wall-clock timing tree
   gathered by {!Collect}, and — for the compiled engine — how much of
   the program its planner compiled natively versus routed through the
   reference fallback.  Renderers cover the DIODE-style workflows: a
   human-readable table, JSON for tooling, and Chrome trace-event files
   for chrome://tracing / Perfetto. *)

(* The live counters the engines bump during a run; a report holds a
   copy taken when it freezes. *)
type counters = {
  mutable elements_moved : int;
  mutable tasklet_execs : int;
  mutable map_iterations : int;
  mutable stream_pushes : int;
  mutable stream_pops : int;
  mutable states_executed : int;
  mutable wcr_writes : int;
}

let zero_counters () =
  { elements_moved = 0; tasklet_execs = 0; map_iterations = 0;
    stream_pushes = 0; stream_pops = 0; states_executed = 0; wcr_writes = 0 }

let add_counters ~into c =
  into.elements_moved <- into.elements_moved + c.elements_moved;
  into.tasklet_execs <- into.tasklet_execs + c.tasklet_execs;
  into.map_iterations <- into.map_iterations + c.map_iterations;
  into.stream_pushes <- into.stream_pushes + c.stream_pushes;
  into.stream_pops <- into.stream_pops + c.stream_pops;
  into.states_executed <- into.states_executed + c.states_executed;
  into.wcr_writes <- into.wcr_writes + c.wcr_writes

let reset_counters c =
  c.elements_moved <- 0;
  c.tasklet_execs <- 0;
  c.map_iterations <- 0;
  c.stream_pushes <- 0;
  c.stream_pops <- 0;
  c.states_executed <- 0;
  c.wcr_writes <- 0

type timer = {
  t_kind : Collect.kind;
  t_name : string;
  t_count : int;       (* invocations *)
  t_total_s : float;   (* accumulated wall-clock seconds *)
  t_children : timer list;
}

type coverage = {
  cov_states : int;    (* states planned by the compiled engine *)
  cov_compiled : int;  (* nodes lowered to native closures *)
  cov_fallback : int;  (* nodes executed through the reference path *)
  cov_kernels : (string * int) list;
  (* bulk-kernel maps lowered, tallied by kernel name *)
  cov_kernel_fallbacks : (string * int) list;
  (* maps left on the closure path, tallied by fallback reason code *)
}

(* Per-channel pressure counters from a streaming run: one entry per
   bounded stream channel, which keeps the live record and hands the
   report a copy.  The depth high-water mark never exceeding the
   capacity is the backpressure guarantee. *)
type channel_stat = {
  pc_name : string;
  pc_capacity : int;
  mutable pc_pushes : int;
  mutable pc_pops : int;
  mutable pc_depth_hwm : int;
  mutable pc_push_blocked_s : float;  (* producers waiting on a full one *)
  mutable pc_pop_blocked_s : float;   (* consumers waiting on an empty one *)
}

(* Per-worker utilization from a streaming run: feeder, one worker per
   consume scope, and drainers.  [pw_busy_s / pw_wall_s] is the
   utilization. *)
type worker_stat = {
  pw_name : string;
  pw_elements : int;     (* elements processed (popped/pushed) *)
  pw_busy_s : float;     (* time spent executing, not blocked *)
  pw_wall_s : float;     (* lifetime of the worker (the barrier wall) *)
}

(* One Cpu_multicore map's domain-policy record: what the race analysis
   said, what the policy decided last time the map ran, and why.  The
   compiled engine registers it at plan time and updates it per
   invocation; a report holds a copy. *)
type map_decision = {
  pm_state : string;        (* state label *)
  pm_node : int;            (* map-entry node id within the state *)
  pm_map : string;          (* map span name, "[i,j]" *)
  pm_kind : string;         (* bulk-kernel kind, or "closure" *)
  pm_verdict : string;      (* race verdict / Serial reason code *)
  pm_forced : bool;         (* invocations counted as forced sequential *)
  mutable pm_domains : int;      (* worker count of the last invocation *)
  mutable pm_reason : string;    (* policy reason of the last invocation *)
  mutable pm_trips : int;        (* outer trip count of the last invocation *)
  mutable pm_invocations : int;
}

(* Multicore execution summary: present only when the run was given more
   than one domain, or ran in streaming mode.  [par_chunks] depends on
   the domain count (it is the number of work units dispatched to the
   pool), so determinism checks across domain counts compare
   [counters], not this record.  [par_channels]/[par_workers] are empty
   except for streaming runs. *)
type parallel = {
  par_domains : int;       (* domains the run was allowed to use *)
  par_policy : string;     (* "fixed" | "predictive" *)
  par_maps : int;          (* parallel map-scope invocations *)
  par_chunks : int;        (* chunks dispatched to the domain pool *)
  par_forced_seq : int;    (* parallel-scheduled maps forced sequential *)
  par_decisions : map_decision list;  (* per Cpu_multicore map, plan order *)
  par_channels : channel_stat list;  (* streaming: bounded channels *)
  par_workers : worker_stat list;    (* streaming: pipeline workers *)
}

type t = {
  r_program : string;
  r_engine : string;
  r_level : Collect.level;
  r_wall_s : float;         (* end-to-end wall-clock of the run *)
  r_counters : counters;
  r_timers : timer list;    (* roots; empty when timing was off *)
  r_coverage : coverage option;  (* compiled engine only *)
  r_parallel : parallel option;  (* multicore runs only *)
}

(* --- construction ---------------------------------------------------------- *)

let rec freeze_span (s : Collect.span) : timer =
  { t_kind = s.Collect.sp_kind;
    t_name = s.Collect.sp_name;
    t_count = s.Collect.sp_count;
    t_total_s = s.Collect.sp_total_s;
    t_children = List.map freeze_span (Collect.children s) }

(* The live records keep changing on the next run: copy them, so a
   report stays the snapshot of its own run. *)
let of_collector ?parallel ~program ~engine ~wall_s ~counters (c : Collect.t)
    : t =
  let parallel =
    Option.map
      (fun p ->
        { p with
          par_decisions =
            List.map (fun d -> { d with pm_domains = d.pm_domains })
              p.par_decisions })
      parallel
  in
  let coverage =
    match Collect.coverage c with
    | 0, 0, 0 -> None
    | states, compiled, fallback ->
      let kernels, kernel_fallbacks = Collect.kernel_coverage c in
      Some
        { cov_states = states; cov_compiled = compiled;
          cov_fallback = fallback; cov_kernels = kernels;
          cov_kernel_fallbacks = kernel_fallbacks }
  in
  { r_program = program;
    r_engine = engine;
    r_level = Collect.level c;
    r_wall_s = wall_s;
    r_counters = { counters with elements_moved = counters.elements_moved };
    r_timers = List.map freeze_span (Collect.roots c);
    r_coverage = coverage;
    r_parallel = parallel }

(* --- shape ------------------------------------------------------------------ *)

(* Deterministic structural signature of a timing tree: kinds, names,
   invocation counts and nesting — everything except the times.  The
   cross-validation suite compares these across engines; the golden-file
   tests compare them against expected strings. *)
let rec shape_of (t : timer) =
  Fmt.str "%s:%s#%d%s"
    (Collect.kind_name t.t_kind)
    t.t_name t.t_count
    (match t.t_children with
    | [] -> ""
    | cs -> Fmt.str "(%s)" (String.concat " " (List.map shape_of cs)))

let shape (r : t) = String.concat " " (List.map shape_of r.r_timers)

(* --- human-readable rendering ------------------------------------------------ *)

let pp_counters ppf c =
  Fmt.pf ppf
    "moved=%d tasklets=%d map_iters=%d pushes=%d pops=%d states=%d wcr=%d"
    c.elements_moved c.tasklet_execs c.map_iterations c.stream_pushes
    c.stream_pops c.states_executed c.wcr_writes

let pp_time ppf s =
  if s >= 1.0 then Fmt.pf ppf "%8.3f s " s
  else if s >= 1e-3 then Fmt.pf ppf "%8.3f ms" (s *. 1e3)
  else Fmt.pf ppf "%8.1f us" (s *. 1e6)

let pp ppf (r : t) =
  Fmt.pf ppf "program %s (engine %s)@." r.r_program r.r_engine;
  Fmt.pf ppf "wall %a   counters: %a@." pp_time r.r_wall_s pp_counters
    r.r_counters;
  (match r.r_coverage with
  | Some cov ->
    Fmt.pf ppf
      "plan coverage: %d state(s) planned, %d node(s) compiled, %d on the \
       reference fallback@."
      cov.cov_states cov.cov_compiled cov.cov_fallback;
    let pp_tally ppf (k, n) = Fmt.pf ppf "%s x%d" k n in
    let pp_tallies = Fmt.list ~sep:(Fmt.any ", ") pp_tally in
    if cov.cov_kernels <> [] || cov.cov_kernel_fallbacks <> [] then begin
      let lowered =
        List.fold_left (fun a (_, n) -> a + n) 0 cov.cov_kernels
      and kept =
        List.fold_left (fun a (_, n) -> a + n) 0 cov.cov_kernel_fallbacks
      in
      Fmt.pf ppf "kernels: %d map(s) lowered" lowered;
      if cov.cov_kernels <> [] then
        Fmt.pf ppf " (%a)" pp_tallies cov.cov_kernels;
      Fmt.pf ppf ", %d on the closure path" kept;
      if cov.cov_kernel_fallbacks <> [] then
        Fmt.pf ppf " (%a)" pp_tallies cov.cov_kernel_fallbacks;
      Fmt.pf ppf "@."
    end
  | None -> ());
  (match r.r_parallel with
  | Some p ->
    Fmt.pf ppf
      "parallel: %d domain(s) (%s policy), %d map(s) parallelized, %d \
       chunk(s), %d forced sequential@."
      p.par_domains p.par_policy p.par_maps p.par_chunks p.par_forced_seq;
    List.iter
      (fun d ->
        Fmt.pf ppf
          "map     %-16s state=%s node=%d kind=%s verdict=%s \
           predicted_domains=%d reason=%s trips=%d invocations=%d@."
          d.pm_map d.pm_state d.pm_node d.pm_kind d.pm_verdict d.pm_domains
          d.pm_reason d.pm_trips d.pm_invocations)
      p.par_decisions;
    List.iter
      (fun c ->
        Fmt.pf ppf
          "channel %-16s cap=%d pushes=%d pops=%d depth_hwm=%d \
           push_blocked=%a pop_blocked=%a@."
          c.pc_name c.pc_capacity c.pc_pushes c.pc_pops c.pc_depth_hwm
          pp_time c.pc_push_blocked_s pp_time c.pc_pop_blocked_s)
      p.par_channels;
    List.iter
      (fun w ->
        let util =
          if w.pw_wall_s > 0. then 100. *. w.pw_busy_s /. w.pw_wall_s else 0.
        in
        Fmt.pf ppf "worker  %-16s elements=%d busy=%a wall=%a util=%.1f%%@."
          w.pw_name w.pw_elements pp_time w.pw_busy_s pp_time w.pw_wall_s
          util)
      p.par_workers
  | None -> ());
  if r.r_timers <> [] then begin
    Fmt.pf ppf "%-48s%10s %s@." "construct" "count" "     total";
    let rec walk depth t =
      let label =
        Fmt.str "%s%s %s"
          (String.make (2 * depth) ' ')
          (Collect.kind_name t.t_kind) t.t_name
      in
      let pct =
        if r.r_wall_s > 0. then 100. *. t.t_total_s /. r.r_wall_s else 0.
      in
      Fmt.pf ppf "%-48s%10d %a %5.1f%%@." label t.t_count pp_time t.t_total_s
        pct;
      List.iter (walk (depth + 1)) t.t_children
    in
    List.iter (walk 0) r.r_timers
  end

(* --- JSON -------------------------------------------------------------------- *)

let counters_to_json c =
  Json.Obj
    [ ("elements_moved", Json.Int c.elements_moved);
      ("tasklet_execs", Json.Int c.tasklet_execs);
      ("map_iterations", Json.Int c.map_iterations);
      ("stream_pushes", Json.Int c.stream_pushes);
      ("stream_pops", Json.Int c.stream_pops);
      ("states_executed", Json.Int c.states_executed);
      ("wcr_writes", Json.Int c.wcr_writes) ]

let rec timer_to_json t =
  Json.Obj
    ([ ("kind", Json.Str (Collect.kind_name t.t_kind));
       ("name", Json.Str t.t_name);
       ("count", Json.Int t.t_count);
       ("total_s", Json.Float t.t_total_s) ]
    @
    match t.t_children with
    | [] -> []
    | cs -> [ ("children", Json.Arr (List.map timer_to_json cs)) ])

let to_json (r : t) : Json.t =
  Json.Obj
    ([ ("program", Json.Str r.r_program);
       ("engine", Json.Str r.r_engine);
       ("instrument", Json.Str (Collect.level_name r.r_level));
       ("wall_s", Json.Float r.r_wall_s);
       ("counters", counters_to_json r.r_counters) ]
    @ (match r.r_coverage with
      | None -> []
      | Some cov ->
        let tallies kvs =
          Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) kvs)
        in
        [ ( "plan_coverage",
            Json.Obj
              ([ ("states", Json.Int cov.cov_states);
                 ("compiled_nodes", Json.Int cov.cov_compiled);
                 ("fallback_nodes", Json.Int cov.cov_fallback) ]
              @ (if cov.cov_kernels = [] then []
                 else [ ("kernel_maps", tallies cov.cov_kernels) ])
              @
              if cov.cov_kernel_fallbacks = [] then []
              else
                [ ("kernel_fallbacks", tallies cov.cov_kernel_fallbacks) ])
          ) ])
    @ (match r.r_parallel with
      | None -> []
      | Some p ->
        let channel_to_json c =
          Json.Obj
            [ ("name", Json.Str c.pc_name);
              ("capacity", Json.Int c.pc_capacity);
              ("pushes", Json.Int c.pc_pushes);
              ("pops", Json.Int c.pc_pops);
              ("depth_hwm", Json.Int c.pc_depth_hwm);
              ("push_blocked_s", Json.Float c.pc_push_blocked_s);
              ("pop_blocked_s", Json.Float c.pc_pop_blocked_s) ]
        in
        let worker_to_json w =
          Json.Obj
            [ ("name", Json.Str w.pw_name);
              ("elements", Json.Int w.pw_elements);
              ("busy_s", Json.Float w.pw_busy_s);
              ("wall_s", Json.Float w.pw_wall_s);
              ( "utilization",
                Json.Float
                  (if w.pw_wall_s > 0. then w.pw_busy_s /. w.pw_wall_s
                   else 0.) ) ]
        in
        let decision_to_json d =
          Json.Obj
            [ ("state", Json.Str d.pm_state);
              ("node", Json.Int d.pm_node);
              ("map", Json.Str d.pm_map);
              ("kind", Json.Str d.pm_kind);
              ("verdict", Json.Str d.pm_verdict);
              ("forced", Json.Bool d.pm_forced);
              ("predicted_domains", Json.Int d.pm_domains);
              ("policy_reason", Json.Str d.pm_reason);
              ("trips", Json.Int d.pm_trips);
              ("invocations", Json.Int d.pm_invocations) ]
        in
        [ ( "parallel",
            Json.Obj
              ([ ("domains", Json.Int p.par_domains);
                 ("policy", Json.Str p.par_policy);
                 ("parallel_maps", Json.Int p.par_maps);
                 ("chunks", Json.Int p.par_chunks);
                 ("forced_sequential", Json.Int p.par_forced_seq) ]
              @ (if p.par_decisions = [] then []
                 else
                   [ ( "maps",
                       Json.Arr (List.map decision_to_json p.par_decisions)
                     ) ])
              @ (if p.par_channels = [] then []
                 else
                   [ ( "channels",
                       Json.Arr (List.map channel_to_json p.par_channels) )
                   ])
              @
              if p.par_workers = [] then []
              else
                [ ("workers", Json.Arr (List.map worker_to_json p.par_workers))
                ]) ) ])
    @
    match r.r_timers with
    | [] -> []
    | ts -> [ ("timers", Json.Arr (List.map timer_to_json ts)) ])

(* --- Chrome trace-event format ------------------------------------------------ *)

(* chrome://tracing "complete" events ("ph": "X") with microsecond
   timestamps.  The timing tree holds aggregates, not raw events, so the
   trace lays the tree out proportionally: each span starts where its
   preceding sibling ended and spans its accumulated total — the
   rendering shows where the time went, not the raw interleaving. *)
let to_trace (r : t) : Json.t =
  let events = ref [] in
  let push e = events := e :: !events in
  let rec layout ts (t : timer) =
    let dur_us = t.t_total_s *. 1e6 in
    push
      (Json.Obj
         [ ("name", Json.Str t.t_name);
           ("cat", Json.Str (Collect.kind_name t.t_kind));
           ("ph", Json.Str "X");
           ("ts", Json.Float ts);
           ("dur", Json.Float dur_us);
           ("pid", Json.Int 1);
           ("tid", Json.Int 1);
           ("args", Json.Obj [ ("count", Json.Int t.t_count) ]) ]);
    ignore
      (List.fold_left
         (fun cursor child -> cursor +. layout cursor child)
         ts t.t_children);
    dur_us
  in
  ignore
    (List.fold_left
       (fun cursor t ->
         let d = layout cursor t in
         cursor +. d)
       0. r.r_timers);
  Json.Obj
    [ ("traceEvents", Json.Arr (List.rev !events));
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [ ("program", Json.Str r.r_program);
            ("engine", Json.Str r.r_engine) ] ) ]

let save_json r path = Json.save (to_json r) path
let save_trace r path = Json.save (to_trace r) path
