(* Memlet propagation — the data-dependency inference of §4.3 step ❶:
   "memlet ranges are propagated from tasklets and containers outwards
   (through scopes) to obtain the overall data dependencies of each scope,
   using the image of the scope function (e.g., Map range) on the union of
   the internal memlet subsets".

   The propagated outer memlets are what makes exact accelerator copies
   possible, and what the performance model charges for data movement. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Defs

(* Scope parameters of an entry node, as (param, range) pairs. *)
let scope_params (st : state) entry =
  match State.node st entry with
  | Map_entry m -> List.combine m.mp_params m.mp_ranges
  | Consume_entry c ->
    [ (c.cs_pe_param,
       Subset.range Expr.zero (Expr.sub c.cs_num_pes Expr.one)) ]
  | _ -> invalid "propagate: node %d is not a scope entry" entry

(* Number of executions of the scope body = product of range extents. *)
let scope_executions (st : state) entry =
  scope_params st entry
  |> List.map (fun (_, r) -> Subset.num_elements r)
  |> Expr.product

(* Propagate one memlet out of a scope: image of the subset over all scope
   parameters; access count multiplied by the number of executions. *)
let propagate_memlet ~params ~executions (m : memlet) : memlet =
  let subset = Subset.propagate_params params m.m_subset in
  let accesses =
    if m.m_dynamic then Expr.zero else Expr.mul executions m.m_accesses
  in
  { m with m_subset = subset; m_other = None; m_accesses = accesses }

(* Group edges adjacent to a scope node by connector base name. *)
let base_of prefix conn =
  match conn with
  | Some c
    when String.length c > String.length prefix
         && String.sub c 0 (String.length prefix) = prefix ->
    Some
      (String.sub c (String.length prefix)
         (String.length c - String.length prefix))
  | _ -> None

(* Innermost-first list of scope entries. *)
let entries_by_depth (st : state) =
  let parents = State.scope_parents st in
  let rec depth nid =
    match Hashtbl.find_opt parents nid with
    | Some (Some p) -> 1 + depth p
    | _ -> 0
  in
  State.nodes st
  |> List.filter_map (fun (nid, n) ->
         match n with
         | Map_entry _ | Consume_entry _ -> Some (nid, depth nid)
         | _ -> None)
  |> List.sort (fun (_, d1) (_, d2) -> Int.compare d2 d1)
  |> List.map fst

let propagate_scope (st : state) entry =
  let exit_ = State.exit_of st entry in
  let params = scope_params st entry in
  let executions = scope_executions st entry in
  let update_outer ~inner_edges ~outer_edge =
    let inner_memlets =
      List.filter_map (fun (e : edge) -> e.e_memlet) inner_edges
    in
    match inner_memlets with
    | [] -> ()
    | m0 :: rest ->
      let dynamic = List.exists (fun m -> m.m_dynamic) inner_memlets in
      let subset =
        List.fold_left (fun acc m -> Subset.union acc m.m_subset)
          m0.m_subset rest
      in
      let accesses =
        List.fold_left (fun acc m -> Expr.add acc m.m_accesses) Expr.zero
          inner_memlets
      in
      let combined =
        { m0 with m_subset = subset; m_accesses = accesses;
          m_dynamic = dynamic }
      in
      let prop = propagate_memlet ~params ~executions combined in
      (* Keep WCR from the inner memlets on outgoing propagation. *)
      let wcr =
        List.fold_left
          (fun acc m -> match acc with Some _ -> acc | None -> m.m_wcr)
          None inner_memlets
      in
      State.set_memlet st outer_edge { prop with m_wcr = wcr }
  in
  (* Entry: inner edges leave from OUT_<x>; outer edge arrives at IN_<x>. *)
  let entry_outer = State.in_edges st entry in
  List.iter
    (fun (outer : edge) ->
      match base_of "IN_" outer.e_dst_conn with
      | None -> ()
      | Some base ->
        let inner =
          List.filter
            (fun (e : edge) -> base_of "OUT_" e.e_src_conn = Some base)
            (State.out_edges st entry)
        in
        update_outer ~inner_edges:inner ~outer_edge:outer)
    entry_outer;
  (* Exit: inner edges arrive at IN_<x>; outer edge leaves from OUT_<x>. *)
  let exit_outer = State.out_edges st exit_ in
  List.iter
    (fun (outer : edge) ->
      match base_of "OUT_" outer.e_src_conn with
      | None -> ()
      | Some base ->
        let inner =
          List.filter
            (fun (e : edge) -> base_of "IN_" e.e_dst_conn = Some base)
            (State.in_edges st exit_)
        in
        update_outer ~inner_edges:inner ~outer_edge:outer)
    exit_outer

(* Propagation reads nothing but the state, so the result holds for as
   long as the content stamp does. *)
let propagate_state (st : state) =
  List.iter (propagate_scope st) (entries_by_depth st);
  st.st_propagated <- st.st_stamp

(* Propagate all memlets in all states (and nested SDFGs) of [g].  A
   state whose stamp has not moved since its last propagation is left
   alone; one holding a nested SDFG is always redone, because its stamp
   does not see edits inside the nested graph. *)
let rec propagate (g : sdfg) =
  List.iter
    (fun st ->
      let nested =
        List.fold_left
          (fun nested (_, n) ->
            match n with
            | Nested_sdfg nest -> propagate nest.n_sdfg; true
            | _ -> nested)
          false (State.nodes st)
      in
      if nested || st.st_propagated <> st.st_stamp then propagate_state st)
    (Sdfg.states g)

(* Total data movement volume of a state in elements: the sum of memlet
   volumes of top-level edges (scope-internal edges are already accounted
   for by propagation).  Dynamic memlets contribute zero here and are
   reported separately. *)
let state_movement_volume (st : state) : Expr.t =
  let parents = State.scope_parents st in
  State.edges st
  |> List.filter (fun (e : edge) ->
         Hashtbl.find parents e.e_src = None
         || Hashtbl.find parents e.e_dst = None)
  |> List.filter_map (fun (e : edge) -> e.e_memlet)
  |> List.map (fun m -> if m.m_dynamic then Expr.zero else m.m_accesses)
  |> Expr.sum
