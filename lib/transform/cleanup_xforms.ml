(* Cleanup transformations — the small strict passes that keep SDFGs tidy
   after larger rewrites (DaCe ships these alongside Appendix B's
   library; they "can only improve performance" and run automatically
   after frontend processing, like RedundantArray in Appendix D). *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Sdfg_ir
open Defs
open Helpers

(* --- TrivialMapElimination ---------------------------------------------------- *)

(* A map whose every dimension has exactly one iteration is a glorified
   begin/end bracket: substitute the single parameter values into the
   body's memlets and splice the scope out. *)
let trivial_map_elimination =
  Xform.make ~name:"TrivialMapElimination"
    ~description:
      "Removes maps with single-iteration ranges, substituting the \
       parameter value into the enclosed memlets."
    ~find:(fun g ->
      Sdfg.states g
      |> List.concat_map (fun st ->
             State.map_entries st
             |> List.filter_map (fun (nid, m) ->
                    let trivial =
                      List.for_all
                        (fun (r : Subset.range) ->
                          Expr.equal r.start r.stop
                          && Expr.as_int r.tile = Some 1)
                        m.mp_ranges
                    in
                    if trivial then
                      Some
                        (Xform.candidate ~state:(State.id st)
                           ~note:(State.node_label st nid)
                           [ ("map", nid) ])
                    else None)))
    ~apply:(fun g c ->
      let st = state_of g c in
      let entry = role c "map" in
      let exit_ = State.exit_of st entry in
      let m = map_info st entry in
      (* bind each parameter to its single value in the scope's memlets *)
      let bindings =
        List.map2 (fun p (r : Subset.range) -> (p, r.start)) m.mp_params
          m.mp_ranges
      in
      let members = State.scope_nodes st entry in
      List.iter
        (fun (e : edge) ->
          if List.mem e.e_src (entry :: exit_ :: members)
             || List.mem e.e_dst (entry :: exit_ :: members)
          then
            match e.e_memlet with
            | Some mm -> State.set_memlet st e (Memlet.subst_list bindings mm)
            | None -> ())
        (State.edges st);
      (* splice: src -> entry(IN_x) + entry(OUT_x) -> X  ==>  src -> X *)
      let splice scope_node =
        List.iter
          (fun (e_in : edge) ->
            match e_in.e_dst_conn with
            | Some cin
              when String.length cin > 3 && String.sub cin 0 3 = "IN_" ->
              let base = String.sub cin 3 (String.length cin - 3) in
              List.iter
                (fun (e_out : edge) ->
                  if e_out.e_src_conn = Some ("OUT_" ^ base) then
                    ignore
                      (State.add_edge st ~src:e_in.e_src
                         ?src_conn:e_in.e_src_conn
                         ?dst_conn:e_out.e_dst_conn ?memlet:e_out.e_memlet
                         ~dst:e_out.e_dst ()))
                (State.out_edges st scope_node)
            | _ -> ())
          (State.in_edges st scope_node)
      in
      splice entry;
      splice exit_;
      State.remove_node st entry;
      State.remove_node st exit_)

(* --- StateElimination ------------------------------------------------------------- *)

(* An empty state with one unconditional, assignment-free outgoing
   transition is pure overhead: route its predecessors directly to its
   successor. *)
let state_elimination =
  Xform.make ~name:"StateElimination"
    ~description:"Removes empty pass-through states from the state machine."
    ~find:(fun g ->
      Sdfg.states g
      |> List.filter_map (fun st ->
             let sid = State.id st in
             match Sdfg.out_transitions g sid with
             | [ t ]
               when State.num_nodes st = 0 && t.is_cond = Btrue
                    && t.is_assign = [] && t.is_dst <> sid
                    && Sdfg.num_states g > 1 ->
               Some
                 (Xform.candidate ~state:sid ~note:(State.label st)
                    [ ("next", t.is_dst) ])
             | _ -> None))
    ~apply:(fun g c ->
      let sid = c.Xform.c_state in
      let next = role c "next" in
      List.iter
        (fun (t : istate_edge) ->
          if t.is_dst = sid then
            Sdfg.replace_transition g t { t with is_dst = next })
        (Sdfg.transitions g);
      if State.id (Sdfg.start_state g) = sid then Sdfg.set_start g next;
      Sdfg.remove_state g sid)

(* --- PruneConnectors ----------------------------------------------------------------- *)

(* Scope connectors whose OUT_ side has no consumers are dead weight left
   behind by fusions: remove the dangling IN_ edges. *)
let prune_connectors =
  Xform.make ~name:"PruneConnectors"
    ~description:
      "Removes scope-entry connectors whose data is never consumed inside \
       the scope."
    ~find:(fun g ->
      Sdfg.states g
      |> List.concat_map (fun st ->
             State.map_entries st
             |> List.filter_map (fun (nid, _) ->
                    let dead =
                      State.in_edges st nid
                      |> List.exists (fun (e : edge) ->
                             match e.e_dst_conn with
                             | Some c
                               when String.length c > 3
                                    && String.sub c 0 3 = "IN_" ->
                               let base =
                                 String.sub c 3 (String.length c - 3)
                               in
                               not
                                 (List.exists
                                    (fun (e' : edge) ->
                                      e'.e_src_conn = Some ("OUT_" ^ base))
                                    (State.out_edges st nid))
                             | _ -> false)
                    in
                    if dead then
                      Some
                        (Xform.candidate ~state:(State.id st)
                           ~note:(State.node_label st nid)
                           [ ("map", nid) ])
                    else None)))
    ~apply:(fun g c ->
      let st = state_of g c in
      let nid = role c "map" in
      List.iter
        (fun (e : edge) ->
          match e.e_dst_conn with
          | Some cn when String.length cn > 3 && String.sub cn 0 3 = "IN_" ->
            let base = String.sub cn 3 (String.length cn - 3) in
            if
              not
                (List.exists
                   (fun (e' : edge) ->
                     e'.e_src_conn = Some ("OUT_" ^ base))
                   (State.out_edges st nid))
            then State.remove_edge st e.e_id
          | _ -> ())
        (State.in_edges st nid))

(* --- MapUnroll ---------------------------------------------------------------------- *)

(* Mark a constant-extent map for unrolling — on FPGAs this replicates
   processing elements (Fig. 7); on CPUs the code generator emits
   "#pragma unroll". *)
let map_unroll =
  Xform.make ~name:"MapUnroll"
    ~description:
      "Marks a constant-extent map unrolled (PE replication on FPGAs)."
    ~find:(fun g ->
      Sdfg.states g
      |> List.concat_map (fun st ->
             State.map_entries st
             |> List.filter_map (fun (nid, m) ->
                    let constant =
                      List.for_all
                        (fun (r : Subset.range) ->
                          Expr.is_constant r.start && Expr.is_constant r.stop)
                        m.mp_ranges
                    in
                    if constant && not m.mp_unroll then
                      Some
                        (Xform.candidate ~state:(State.id st)
                           ~note:(State.node_label st nid)
                           [ ("map", nid) ])
                    else None)))
    ~apply:(fun g c ->
      let st = state_of g c in
      let nid = role c "map" in
      let m = map_info st nid in
      set_map_info st nid { m with mp_unroll = true })

let all = [ trivial_map_elimination; state_elimination; prune_connectors;
            map_unroll ]
