(* Operations on SDFG states — the acyclic dataflow multigraphs.

   A state owns its nodes and edges in mutable tables (transformations are
   "find and replace" operations that edit states in place, paper §4.1).
   Node and edge identifiers are dense integers, never reused, so
   transformations can hold on to ids across edits. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Defs

type t = state

(* One counter for every state in the process, so a stamp names one
   content wherever the state lives. *)
let stamps = Atomic.make 0

let fresh_stamp () = Atomic.fetch_and_add stamps 1

let create ?(label = "state") id : t =
  { st_id = id;
    st_label = label;
    st_nodes = Hashtbl.create 16;
    st_edges = Hashtbl.create 16;
    st_next_node = 0;
    st_next_edge = 0;
    st_scope_exit = Hashtbl.create 4;
    st_version = 0;
    st_cache = None;
    st_index = None;
    st_instrument = false;
    st_stamp = fresh_stamp ();
    st_propagated = -1 }

(* Any structural mutation invalidates the derived-structure cache and
   the adjacency index, and changes the content. *)
let touch (s : t) =
  s.st_version <- s.st_version + 1;
  s.st_cache <- None;
  s.st_index <- None;
  s.st_stamp <- fresh_stamp ()

let id (s : t) = s.st_id
let label (s : t) = s.st_label
let stamp (s : t) = s.st_stamp

let set_label (s : t) l =
  s.st_label <- l;
  s.st_stamp <- fresh_stamp ()

(* The edge record is the one the index holds, so a memlet write keeps
   the index and the structural version. *)
let set_memlet (s : t) (e : edge) m =
  e.e_memlet <- Some m;
  s.st_stamp <- fresh_stamp ()

(* --- node and edge CRUD ----------------------------------------------- *)

let add_node (s : t) (n : node) : int =
  let nid = s.st_next_node in
  s.st_next_node <- nid + 1;
  Hashtbl.replace s.st_nodes nid n;
  touch s;
  nid

let node (s : t) nid =
  match Hashtbl.find_opt s.st_nodes nid with
  | Some n -> n
  | None -> invalid "state %S: no node %d" s.st_label nid

let has_node (s : t) nid = Hashtbl.mem s.st_nodes nid

let replace_node (s : t) nid n =
  if not (Hashtbl.mem s.st_nodes nid) then
    invalid "state %S: replacing missing node %d" s.st_label nid;
  Hashtbl.replace s.st_nodes nid n;
  (* node kind participates in scope derivation (entry/exit tests) *)
  touch s

let add_edge (s : t) ?src_conn ?dst_conn ?memlet ~src ~dst () : edge =
  if not (Hashtbl.mem s.st_nodes src) then
    invalid "state %S: edge source %d missing" s.st_label src;
  if not (Hashtbl.mem s.st_nodes dst) then
    invalid "state %S: edge destination %d missing" s.st_label dst;
  let eid = s.st_next_edge in
  s.st_next_edge <- eid + 1;
  let e =
    { e_id = eid; e_src = src; e_src_conn = src_conn; e_dst = dst;
      e_dst_conn = dst_conn; e_memlet = memlet }
  in
  Hashtbl.replace s.st_edges eid e;
  touch s;
  e

let edge (s : t) eid =
  match Hashtbl.find_opt s.st_edges eid with
  | Some e -> e
  | None -> invalid "state %S: no edge %d" s.st_label eid

let remove_edge (s : t) eid =
  Hashtbl.remove s.st_edges eid;
  touch s

let remove_node (s : t) nid =
  Hashtbl.remove s.st_nodes nid;
  Hashtbl.remove s.st_scope_exit nid;
  touch s;
  let stale =
    Hashtbl.fold
      (fun eid e acc -> if e.e_src = nid || e.e_dst = nid then eid :: acc else acc)
      s.st_edges []
  in
  List.iter (remove_edge s) stale

(* The adjacency index: ids are dense and below the next-id counters, so
   walking them downwards yields every list already in ascending order. *)
let build_index (s : t) : state_index =
  let nodes = ref [] in
  for nid = s.st_next_node - 1 downto 0 do
    match Hashtbl.find_opt s.st_nodes nid with
    | Some n -> nodes := (nid, n) :: !nodes
    | None -> ()
  done;
  let x_in = Array.make s.st_next_node [] in
  let x_out = Array.make s.st_next_node [] in
  let edges = ref [] in
  for eid = s.st_next_edge - 1 downto 0 do
    match Hashtbl.find_opt s.st_edges eid with
    | Some e ->
      edges := e :: !edges;
      x_in.(e.e_dst) <- e :: x_in.(e.e_dst);
      x_out.(e.e_src) <- e :: x_out.(e.e_src)
    | None -> ()
  done;
  { x_nodes = !nodes; x_edges = !edges; x_in; x_out }

let index (s : t) : state_index =
  match s.st_index with
  | Some x -> x
  | None ->
    let x = build_index s in
    s.st_index <- Some x;
    x

let nodes (s : t) = (index s).x_nodes

let node_ids (s : t) = List.map fst (nodes s)

let edges (s : t) = (index s).x_edges

let num_nodes (s : t) = Hashtbl.length s.st_nodes
let num_edges (s : t) = Hashtbl.length s.st_edges

let adjacent table nid =
  if nid >= 0 && nid < Array.length table then table.(nid) else []

let in_edges (s : t) nid = adjacent (index s).x_in nid

let out_edges (s : t) nid = adjacent (index s).x_out nid

let in_degree s nid = List.length (in_edges s nid)
let out_degree s nid = List.length (out_edges s nid)

let predecessors s nid =
  List.sort_uniq Int.compare (List.map (fun e -> e.e_src) (in_edges s nid))

let successors s nid =
  List.sort_uniq Int.compare (List.map (fun e -> e.e_dst) (out_edges s nid))

(* --- scopes (Map/Consume pairing, §3.3) -------------------------------- *)

let set_scope (s : t) ~entry ~exit_ =
  Hashtbl.replace s.st_scope_exit entry exit_;
  touch s

let exit_of (s : t) entry =
  match Hashtbl.find_opt s.st_scope_exit entry with
  | Some x -> x
  | None -> invalid "state %S: node %d has no scope exit" s.st_label entry

let entry_of (s : t) exit_ =
  let found =
    Hashtbl.fold
      (fun en ex acc -> if ex = exit_ then Some en else acc)
      s.st_scope_exit None
  in
  match found with
  | Some en -> en
  | None -> invalid "state %S: node %d has no scope entry" s.st_label exit_

let is_scope_entry (s : t) nid =
  match node s nid with
  | Map_entry _ | Consume_entry _ -> true
  | Access _ | Tasklet _ | Map_exit | Consume_exit | Reduce _
  | Nested_sdfg _ -> false

let is_scope_exit (s : t) nid =
  match node s nid with
  | Map_exit | Consume_exit -> true
  | Access _ | Tasklet _ | Map_entry _ | Consume_entry _ | Reduce _
  | Nested_sdfg _ -> false

(* Deterministic topological order: prefer lower node ids. *)
let compute_topo (s : t) : int list =
  let x = index s in
  let indeg = Array.map List.length x.x_in in
  let module IS = Set.Make (Int) in
  let ready =
    ref
      (List.fold_left
         (fun acc (nid, _) -> if indeg.(nid) = 0 then IS.add nid acc else acc)
         IS.empty x.x_nodes)
  in
  let out = ref [] in
  while not (IS.is_empty !ready) do
    let nid = IS.min_elt !ready in
    ready := IS.remove nid !ready;
    out := nid :: !out;
    List.iter
      (fun e ->
        let d = indeg.(e.e_dst) - 1 in
        indeg.(e.e_dst) <- d;
        if d = 0 then ready := IS.add e.e_dst !ready)
      x.x_out.(nid)
  done;
  let order = List.rev !out in
  if List.length order <> num_nodes s then
    invalid "state %S: dataflow graph has a cycle" s.st_label;
  order

(* The scope-parent table: for every node, the innermost enclosing scope
   entry (None at state top level).  Well-formed SDFGs have every scope
   subgraph dominated by its entry and post-dominated by its exit
   (paper §3.3), so a forward pass in topological order suffices. *)
let compute_parents (s : t) order : (int, int option) Hashtbl.t =
  let parents = Hashtbl.create 16 in
  List.iter
    (fun nid ->
      let parent =
        match in_edges s nid with
        | [] -> None
        | e :: _ ->
          let p = e.e_src in
          if is_scope_exit s nid && is_scope_entry s p then
            (* an exit directly connected to its entry: same parent *)
            Hashtbl.find parents p
          else if is_scope_entry s p then Some p
          else if is_scope_exit s p then
            (* successor of an exit leaves that scope *)
            Hashtbl.find parents (entry_of s p)
          else Hashtbl.find parents p
      in
      (* An exit node's parent is its entry's parent. *)
      let parent =
        if is_scope_exit s nid then Hashtbl.find parents (entry_of s nid)
        else parent
      in
      Hashtbl.replace parents nid parent)
    order;
  parents

let build_cache (s : t) : state_cache =
  let topo = compute_topo s in
  let parents = compute_parents s topo in
  let scope_tbl = Hashtbl.create (max 4 (Hashtbl.length s.st_scope_exit)) in
  Hashtbl.iter
    (fun entry exit_ ->
      let rec inside nid =
        match Hashtbl.find_opt parents nid with
        | Some (Some p) -> p = entry || inside p
        | _ -> false
      in
      let members =
        nodes s
        |> List.filter_map (fun (nid, _) ->
               if nid <> entry && nid <> exit_ && inside nid then Some nid
               else None)
      in
      Hashtbl.replace scope_tbl entry members)
    s.st_scope_exit;
  { c_version = s.st_version; c_topo = topo; c_parents = parents;
    c_scope_nodes = scope_tbl }

(* Derived structure, recomputed lazily after mutations.  The returned
   tables are shared — callers must treat them as read-only. *)
let cache (s : t) : state_cache =
  match s.st_cache with
  | Some c when c.c_version = s.st_version -> c
  | _ ->
    let c = build_cache s in
    s.st_cache <- Some c;
    c

let scope_parents (s : t) : (int, int option) Hashtbl.t = (cache s).c_parents

let topological_order (s : t) : int list = (cache s).c_topo

(* All nodes strictly inside the scope of [entry] (excluding the entry and
   exit themselves), i.e. the expanded subgraph of Fig. 6. *)
let scope_nodes (s : t) entry : int list =
  match Hashtbl.find_opt (cache s).c_scope_nodes entry with
  | Some members -> members
  | None -> invalid "state %S: node %d has no scope exit" s.st_label entry

(* --- memlet paths ------------------------------------------------------ *)

(* Follow a memlet through scope nodes: edges entering a Map entry at
   connector IN_x continue from OUT_x inside the scope, and symmetrically
   at exits.  Returns the full chain of edges from the outermost producer
   to the innermost consumer (or vice versa), as in DaCe's memlet_path. *)
let conn_suffix prefix conn =
  match conn with
  | Some c when String.length c > String.length prefix
                && String.sub c 0 (String.length prefix) = prefix ->
    Some (String.sub c (String.length prefix)
            (String.length c - String.length prefix))
  | _ -> None

let memlet_path (s : t) (e : edge) : edge list =
  let rec backward e acc =
    let src = e.e_src in
    if is_scope_entry s src || is_scope_exit s src then
      match conn_suffix "OUT_" e.e_src_conn with
      | None -> acc
      | Some base -> (
        let want = "IN_" ^ base in
        match
          List.find_opt (fun e' -> e'.e_dst_conn = Some want) (in_edges s src)
        with
        | Some e' -> backward e' (e' :: acc)
        | None -> acc)
    else acc
  in
  let rec forward e acc =
    let dst = e.e_dst in
    if is_scope_entry s dst || is_scope_exit s dst then
      match conn_suffix "IN_" e.e_dst_conn with
      | None -> acc
      | Some base -> (
        let want = "OUT_" ^ base in
        match
          List.find_opt
            (fun e' -> e'.e_src_conn = Some want)
            (out_edges s dst)
        with
        | Some e' -> forward e' (acc @ [ e' ])
        | None -> acc)
    else acc
  in
  backward e [ e ] |> fun prefix -> forward e prefix

(* --- queries ------------------------------------------------------------ *)

let access_nodes (s : t) : (int * string) list =
  nodes s
  |> List.filter_map (fun (nid, n) ->
         match n with Access d -> Some (nid, d) | _ -> None)

let access_nodes_of (s : t) data =
  access_nodes s |> List.filter (fun (_, d) -> String.equal d data)

let tasklets (s : t) =
  nodes s
  |> List.filter_map (fun (nid, n) ->
         match n with Tasklet t -> Some (nid, t) | _ -> None)

let map_entries (s : t) =
  nodes s
  |> List.filter_map (fun (nid, n) ->
         match n with Map_entry m -> Some (nid, m) | _ -> None)

(* Containers read or written anywhere in the state. *)
let used_containers (s : t) =
  let names =
    List.filter_map
      (fun e ->
        match e.e_memlet with Some m -> Some m.m_data | None -> None)
      (edges s)
    @ List.map snd (access_nodes s)
  in
  List.sort_uniq String.compare names

(* Weakly-connected components — distinct components execute concurrently
   (paper §3.3: "different connected components ... run concurrently"). *)
let connected_components (s : t) : int list list =
  let parent = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some p when p <> x ->
      let r = find p in
      Hashtbl.replace parent x r;
      r
    | _ -> x
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter (fun (nid, _) -> Hashtbl.replace parent nid nid) (nodes s);
  List.iter (fun e -> union e.e_src e.e_dst) (edges s);
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (nid, _) ->
      let r = find nid in
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups r) in
      Hashtbl.replace groups r (nid :: cur))
    (nodes s);
  Hashtbl.fold (fun _ members acc -> List.sort Int.compare members :: acc)
    groups []
  |> List.sort (fun a b -> Int.compare (List.hd a) (List.hd b))

(* --- cloning ------------------------------------------------------------ *)

let rec clone_node (n : node) : node =
  match n with
  | Access _ | Tasklet _ | Map_entry _ | Map_exit | Consume_entry _
  | Consume_exit | Reduce _ -> n
  | Nested_sdfg nest -> Nested_sdfg { nest with n_sdfg = clone_sdfg nest.n_sdfg }

(* The tables are copied rather than refilled, so a clone iterates them
   in the original's order and serializes (and hashes) as it does.  Edge
   records are fresh, because their memlets are mutable.  A clone keeps
   the stamp only where it is the same content: a cluster's text names
   the state id, and the stamp does not see edits inside a nested SDFG. *)
and clone (s : t) ?(id = s.st_id) () : t =
  let nested = ref false in
  let nodes = Hashtbl.copy s.st_nodes in
  Hashtbl.filter_map_inplace
    (fun _ n ->
      match n with
      | Nested_sdfg _ -> nested := true; Some (clone_node n)
      | _ -> Some n)
    nodes;
  let edges = Hashtbl.copy s.st_edges in
  Hashtbl.filter_map_inplace (fun _ e -> Some { e with e_id = e.e_id }) edges;
  let same = id = s.st_id && not !nested in
  { st_id = id;
    st_label = s.st_label;
    st_nodes = nodes;
    st_edges = edges;
    st_next_node = s.st_next_node;
    st_next_edge = s.st_next_edge;
    st_scope_exit = Hashtbl.copy s.st_scope_exit;
    st_version = 0;
    st_cache = None;
    st_index = None;
    st_instrument = s.st_instrument;
    st_stamp = (if same then s.st_stamp else fresh_stamp ());
    st_propagated = (if same then s.st_propagated else -1) }

and clone_sdfg (g : sdfg) : sdfg =
  let states = Hashtbl.copy g.g_states in
  Hashtbl.filter_map_inplace (fun _ st -> Some (clone st ())) states;
  { g with g_states = states }

(* --- node labels for display ------------------------------------------- *)

let node_label (s : t) nid =
  match node s nid with
  | Access d -> d
  | Tasklet t -> t.t_name
  | Map_entry m ->
    "["
    ^ String.concat ", "
        (List.map2
           (fun p r -> p ^ "=" ^ Subset.range_to_string r)
           m.mp_params m.mp_ranges)
    ^ "]"
  | Map_exit -> "map_exit"
  | Consume_entry c ->
    "[" ^ c.cs_pe_param ^ "=0:" ^ Expr.to_string c.cs_num_pes ^ "]"
  | Consume_exit -> "consume_exit"
  | Reduce r -> "reduce(" ^ Wcr.name r.r_wcr ^ ")"
  | Nested_sdfg n -> "invoke(" ^ n.n_sdfg.g_name ^ ")"
