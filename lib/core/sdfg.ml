(* Top-level SDFG operations: the state machine of dataflow states
   (paper §3, Appendix A.1: "an SDFG is a directed multigraph defined by
   the tuple (S, T, s0)"). *)

module Expr = Symbolic.Expr
open Defs

type t = sdfg

let create ?(symbols = []) name : t =
  { g_name = name;
    g_descs = [];
    g_states = Hashtbl.create 4;
    g_istate_edges = [];
    g_start = 0;
    g_next_state = 0;
    g_symbols = symbols }

let name (g : t) = g.g_name
let symbols (g : t) = g.g_symbols

let declare_symbol (g : t) s =
  if not (List.mem s g.g_symbols) then g.g_symbols <- g.g_symbols @ [ s ]

(* --- data descriptors --------------------------------------------------- *)

let add_desc (g : t) dname desc =
  if List.mem_assoc dname g.g_descs then
    invalid "SDFG %S: duplicate container %S" g.g_name dname;
  g.g_descs <- g.g_descs @ [ (dname, desc) ]

let add_array (g : t) ?(transient = false) ?(storage = Default) dname ~shape
    ~dtype =
  add_desc g dname
    (Array
       { a_shape = shape; a_dtype = dtype; a_transient = transient;
         a_storage = storage })

let add_scalar (g : t) ?(transient = false) ?(storage = Default) dname ~dtype
    =
  add_array g ~transient ~storage dname ~shape:[] ~dtype

let add_stream (g : t) ?(transient = true) ?(storage = Default)
    ?(buffer = Expr.int 0) ?(shape = []) dname ~dtype =
  add_desc g dname
    (Stream
       { s_shape = shape; s_dtype = dtype; s_buffer = buffer;
         s_transient = transient; s_storage = storage })

let desc (g : t) dname =
  match List.assoc_opt dname g.g_descs with
  | Some d -> d
  | None -> invalid "SDFG %S: unknown container %S" g.g_name dname

let has_desc (g : t) dname = List.mem_assoc dname g.g_descs

let descs (g : t) = g.g_descs

let replace_desc (g : t) dname desc =
  if not (List.mem_assoc dname g.g_descs) then
    invalid "SDFG %S: replacing unknown container %S" g.g_name dname;
  g.g_descs <-
    List.map (fun (n, d) -> if String.equal n dname then (n, desc) else (n, d))
      g.g_descs

let remove_desc (g : t) dname =
  g.g_descs <- List.filter (fun (n, _) -> not (String.equal n dname)) g.g_descs

(* Fresh container name with the given prefix. *)
let fresh_name (g : t) prefix =
  if not (has_desc g prefix) then prefix
  else
    let rec go i =
      let cand = Fmt.str "%s_%d" prefix i in
      if has_desc g cand then go (i + 1) else cand
    in
    go 0

(* --- states and transitions --------------------------------------------- *)

let add_state (g : t) ?label () : state =
  let sid = g.g_next_state in
  g.g_next_state <- sid + 1;
  let label = Option.value ~default:(Fmt.str "s%d" sid) label in
  let st = State.create ~label sid in
  Hashtbl.replace g.g_states sid st;
  if Hashtbl.length g.g_states = 1 then g.g_start <- sid;
  st

let state (g : t) sid =
  match Hashtbl.find_opt g.g_states sid with
  | Some s -> s
  | None -> invalid "SDFG %S: no state %d" g.g_name sid

let states (g : t) =
  Hashtbl.fold (fun _ s acc -> s :: acc) g.g_states []
  |> List.sort (fun a b -> Int.compare a.st_id b.st_id)

let num_states (g : t) = Hashtbl.length g.g_states

let start_state (g : t) = state g g.g_start
let set_start (g : t) sid = g.g_start <- sid

let remove_state (g : t) sid =
  Hashtbl.remove g.g_states sid;
  g.g_istate_edges <-
    List.filter (fun e -> e.is_src <> sid && e.is_dst <> sid)
      g.g_istate_edges

let add_transition (g : t) ?(cond = Bexp.true_) ?(assign = []) ~src ~dst () =
  let e = { is_src = src; is_dst = dst; is_cond = cond; is_assign = assign } in
  g.g_istate_edges <- g.g_istate_edges @ [ e ];
  e

let transitions (g : t) = g.g_istate_edges

let out_transitions (g : t) sid =
  List.filter (fun e -> e.is_src = sid) g.g_istate_edges

let in_transitions (g : t) sid =
  List.filter (fun e -> e.is_dst = sid) g.g_istate_edges

let remove_transition (g : t) (e : istate_edge) =
  g.g_istate_edges <- List.filter (fun e' -> e' != e) g.g_istate_edges

let replace_transition (g : t) (old_e : istate_edge) (new_e : istate_edge) =
  g.g_istate_edges <-
    List.map (fun e -> if e == old_e then new_e else e) g.g_istate_edges

(* --- whole-graph queries ------------------------------------------------- *)

(* Containers accessed in any state or mentioned as nested-SDFG I/O. *)
let used_containers (g : t) =
  states g
  |> List.concat_map State.used_containers
  |> List.sort_uniq String.compare

(* Argument list of the generated entry point: non-transient containers in
   declaration order, then declared symbols. *)
let arguments (g : t) =
  List.filter (fun (_, d) -> not (ddesc_transient d)) g.g_descs

(* Free symbols: declared symbols plus anything appearing in shapes,
   ranges, memlets or conditions but never assigned. *)
let free_symbols (g : t) =
  let from_descs =
    List.concat_map
      (fun (_, d) -> List.concat_map Expr.free_syms (ddesc_shape d))
      g.g_descs
  in
  let from_states =
    states g
    |> List.concat_map (fun st ->
           List.concat_map
             (fun e ->
               match e.e_memlet with
               | Some m -> Memlet.free_syms m
               | None -> [])
             (State.edges st)
           @ List.concat_map
               (fun (_, n) ->
                 match n with
                 | Map_entry m ->
                   List.concat_map
                     (fun (r : Symbolic.Subset.range) ->
                       Expr.free_syms r.start @ Expr.free_syms r.stop
                       @ Expr.free_syms r.stride)
                     m.mp_ranges
                 | Consume_entry c -> Expr.free_syms c.cs_num_pes
                 | _ -> [])
               (State.nodes st))
  in
  let from_conds =
    List.concat_map
      (fun e ->
        Bexp.free_syms e.is_cond
        @ List.concat_map (fun (_, ex) -> Expr.free_syms ex) e.is_assign)
      g.g_istate_edges
  in
  let assigned =
    List.concat_map (fun e -> List.map fst e.is_assign) g.g_istate_edges
  in
  let map_params =
    states g
    |> List.concat_map (fun st ->
           List.concat_map
             (fun (_, n) ->
               match n with
               | Map_entry m -> m.mp_params
               | Consume_entry c -> [ c.cs_pe_param ]
               | _ -> [])
             (State.nodes st))
  in
  let bound = assigned @ map_params @ List.map fst g.g_descs in
  List.sort_uniq String.compare (from_descs @ from_states @ from_conds)
  |> List.filter (fun s -> not (List.mem s bound))

let clone (g : t) : t = State.clone_sdfg g

(* --- content hashing ------------------------------------------------------- *)

(* The hash is computed over the canonical serialized form, which lives
   in {!Serialize} — a module that depends on this one.  Serialize
   registers the implementation here at load time. *)
let hash_impl : (t -> string) ref =
  ref (fun _ ->
      failwith
        "Sdfg.hash: no hash implementation registered (Serialize module \
         not linked)")

let set_hash_impl f = hash_impl := f
let hash (g : t) : string = !hash_impl g

(* --- printing ------------------------------------------------------------- *)

let pp ppf (g : t) =
  Fmt.pf ppf "@[<v>SDFG %S (%d states, %d containers)@," g.g_name
    (num_states g) (List.length g.g_descs);
  List.iter
    (fun (n, d) ->
      Fmt.pf ppf "  %s%s: %s%a@,"
        (if ddesc_transient d then "transient " else "")
        (if ddesc_is_stream d then "stream " ^ n else n)
        (Tasklang.Types.dtype_name (ddesc_dtype d))
        Fmt.(list ~sep:nop (fun ppf e -> Fmt.pf ppf "[%a]" Expr.pp e))
        (ddesc_shape d))
    g.g_descs;
  List.iter
    (fun st ->
      Fmt.pf ppf "  state %d %S: %d nodes, %d edges@," st.st_id st.st_label
        (State.num_nodes st) (State.num_edges st))
    (states g);
  List.iter
    (fun e ->
      Fmt.pf ppf "  %d -> %d when %a@," e.is_src e.is_dst Bexp.pp e.is_cond)
    g.g_istate_edges;
  Fmt.pf ppf "@]"

let to_string g = Fmt.str "%a" pp g
