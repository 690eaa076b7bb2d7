(* Instrumentation collector — the mutable substrate both execution
   engines report into during a run (DIODE's measure step, paper §4.2).

   Timing is gathered as an aggregation tree: each (kind, name) pair is
   one node under its dynamically enclosing span, accumulating an
   invocation count and total wall-clock time.  A map scope that runs a
   million iterations is therefore one tree node with count = #scope
   invocations, not a million events — the tree is bounded by the static
   structure of the program, and identical in shape across engines (the
   cross-validation suite asserts this).

   The [level] decides whether timers run at all: [Off] collects nothing
   (the compiled engine's planner emits exactly the uninstrumented
   closures, so the overhead is zero, not a per-iteration branch);
   [Marked] honors the per-state / per-node [instrument] flags of the IR;
   [All] times every construct regardless of flags. *)

type level = Off | Marked | All

let level_name = function Off -> "off" | Marked -> "marked" | All -> "all"

let level_of_string = function
  | "off" -> Some Off
  | "marked" -> Some Marked
  | "all" -> Some All
  | _ -> None

type kind = Sdfg | State | Map | Consume | Tasklet

let kind_name = function
  | Sdfg -> "sdfg"
  | State -> "state"
  | Map -> "map"
  | Consume -> "consume"
  | Tasklet -> "tasklet"

type span = {
  sp_kind : kind;
  sp_name : string;
  mutable sp_count : int;
  mutable sp_total_s : float;
  mutable sp_children : span list;  (* newest first; reversed on read *)
}

type t = {
  c_level : level;
  c_root : span;                          (* sentinel, never reported *)
  mutable c_stack : (span * float) list;  (* open spans, innermost first *)
  (* compiled-engine plan coverage *)
  mutable c_planned_states : int;
  mutable c_compiled_nodes : int;
  mutable c_fallback_nodes : int;
  (* bulk-kernel coverage: kernel name -> maps lowered to that kernel,
     and fallback reason code -> maps left on the closure path *)
  c_kernel_maps : (string, int) Hashtbl.t;
  c_kernel_fallbacks : (string, int) Hashtbl.t;
}

let create level =
  { c_level = level;
    c_root =
      { sp_kind = Sdfg; sp_name = "<root>"; sp_count = 0; sp_total_s = 0.;
        sp_children = [] };
    c_stack = [];
    c_planned_states = 0;
    c_compiled_nodes = 0;
    c_fallback_nodes = 0;
    c_kernel_maps = Hashtbl.create 8;
    c_kernel_fallbacks = Hashtbl.create 8 }

let level c = c.c_level

let timing_on c = c.c_level <> Off

(* Whether a construct carrying [flag] should be timed under this
   collector's level. *)
let should_time c ~flag =
  match c.c_level with Off -> false | All -> true | Marked -> flag

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let parent c =
  match c.c_stack with [] -> c.c_root | (sp, _) :: _ -> sp

(* Push an already-resolved span (the compiled engine memoizes the
   resolution, paying the child lookup once per plan, not per iteration). *)
let reenter c span = c.c_stack <- (span, now ()) :: c.c_stack

(* Find-or-create the (kind, name) child of the current span and open it. *)
let enter c kind name =
  let p = parent c in
  let span =
    match
      List.find_opt
        (fun s -> s.sp_kind = kind && String.equal s.sp_name name)
        p.sp_children
    with
    | Some s -> s
    | None ->
      let s =
        { sp_kind = kind; sp_name = name; sp_count = 0; sp_total_s = 0.;
          sp_children = [] }
      in
      p.sp_children <- s :: p.sp_children;
      s
  in
  reenter c span;
  span

let exit c span =
  match c.c_stack with
  | (sp, t0) :: rest when sp == span ->
    sp.sp_count <- sp.sp_count + 1;
    sp.sp_total_s <- sp.sp_total_s +. (now () -. t0);
    c.c_stack <- rest
  | _ ->
    (* unbalanced exit: a span raised through — drop open frames down to
       (and including) [span] so the collector stays usable *)
    let rec unwind = function
      | [] -> []
      | (sp, t0) :: rest ->
        sp.sp_count <- sp.sp_count + 1;
        sp.sp_total_s <- sp.sp_total_s +. (now () -. t0);
        if sp == span then rest else unwind rest
    in
    c.c_stack <- unwind c.c_stack

let roots c = List.rev c.c_root.sp_children

let children span = List.rev span.sp_children

(* --- multicore merge ------------------------------------------------------- *)

(* Merge a finished span tree into [parent], summing counts and times by
   (kind, name) recursively; children unseen by the target keep the
   source's first-opened order.  Used by the parallel map runtime to fold
   worker-domain collectors back into the main tree — only ever called
   from the main domain, after the workers have joined. *)
let rec merge_span parent (s : span) =
  let tgt =
    match
      List.find_opt
        (fun c -> c.sp_kind = s.sp_kind && String.equal c.sp_name s.sp_name)
        parent.sp_children
    with
    | Some c -> c
    | None ->
      let c =
        { sp_kind = s.sp_kind; sp_name = s.sp_name; sp_count = 0;
          sp_total_s = 0.; sp_children = [] }
      in
      parent.sp_children <- c :: parent.sp_children;
      c
  in
  tgt.sp_count <- tgt.sp_count + s.sp_count;
  tgt.sp_total_s <- tgt.sp_total_s +. s.sp_total_s;
  List.iter (merge_span tgt) (List.rev s.sp_children)

(* Fold [src]'s root spans into [dst] under dst's innermost open span
   (the parallel map's own span during a merge), then zero [src]'s counts
   in place so per-invocation merging never double-counts.  Zeroing — not
   detaching — matters: the compiled engine memoizes span nodes inside
   its closures, so the source tree's structure must survive the merge. *)
let rec zero_span s =
  s.sp_count <- 0;
  s.sp_total_s <- 0.;
  List.iter zero_span s.sp_children

let absorb dst src =
  List.iter (merge_span (parent dst)) (List.rev src.c_root.sp_children);
  List.iter zero_span src.c_root.sp_children

(* --- compiled-engine plan coverage ---------------------------------------- *)

let note_planned_state c = c.c_planned_states <- c.c_planned_states + 1
let note_compiled_node c = c.c_compiled_nodes <- c.c_compiled_nodes + 1
let note_fallback_node c = c.c_fallback_nodes <- c.c_fallback_nodes + 1

let tally tbl key =
  Hashtbl.replace tbl key
    (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let note_kernel_map c name = tally c.c_kernel_maps name
let note_kernel_fallback c reason = tally c.c_kernel_fallbacks reason

let sorted_tallies tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let coverage c =
  (c.c_planned_states, c.c_compiled_nodes, c.c_fallback_nodes)

let kernel_coverage c =
  (sorted_tallies c.c_kernel_maps, sorted_tallies c.c_kernel_fallbacks)

(* Fold coverage accumulated on a replica collector into the main one —
   the parallel planner compiles each map body once per domain but
   reports the coverage of a single replica, so the numbers match the
   sequential plan. *)
let merge_coverage dst src =
  dst.c_planned_states <- dst.c_planned_states + src.c_planned_states;
  dst.c_compiled_nodes <- dst.c_compiled_nodes + src.c_compiled_nodes;
  dst.c_fallback_nodes <- dst.c_fallback_nodes + src.c_fallback_nodes;
  Hashtbl.iter
    (fun k v -> Hashtbl.replace dst.c_kernel_maps k
        (v + Option.value ~default:0 (Hashtbl.find_opt dst.c_kernel_maps k)))
    src.c_kernel_maps;
  Hashtbl.iter
    (fun k v -> Hashtbl.replace dst.c_kernel_fallbacks k
        (v
        + Option.value ~default:0
            (Hashtbl.find_opt dst.c_kernel_fallbacks k)))
    src.c_kernel_fallbacks
