(* Fusion transformations (paper Appendix B):
   MapFusion, MapReduceFusion (Fig. 11a), StateFusion. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Sdfg_ir
open Defs
open Helpers

let conn_in_base (e : edge) =
  match e.e_dst_conn with
  | Some c when String.length c > 3 && String.sub c 0 3 = "IN_" ->
    Some (String.sub c 3 (String.length c - 3))
  | _ -> None

let conn_out_base (e : edge) =
  match e.e_src_conn with
  | Some c when String.length c > 4 && String.sub c 0 4 = "OUT_" ->
    Some (String.sub c 4 (String.length c - 4))
  | _ -> None

(* Substitute map parameters in all memlets inside a scope. *)
let subst_scope_params st entry (bindings : (string * Expr.t) list) =
  let members = entry :: State.exit_of st entry :: State.scope_nodes st entry in
  List.iter
    (fun (e : edge) ->
      if List.mem e.e_src members && List.mem e.e_dst members then
        match e.e_memlet with
        | Some m -> State.set_memlet st e (Memlet.subst_list bindings m)
        | None -> ())
    (State.edges st)

(* --- MapFusion ------------------------------------------------------------ *)

(* Pattern (strict): map_exit --T[..]--> access T --T[..]--> map_entry,
   where T is transient, written and read element-wise with identical
   index functions (after renaming the second map's parameters), both maps
   have identical ranges, and T occurs nowhere else. *)
let map_fusion =
  Xform.make ~name:"MapFusion"
    ~description:
      "Fuses two consecutive maps that have the same dimensions and range."
    ~find:(fun g ->
      Sdfg.states g
      |> List.concat_map (fun st ->
             State.access_nodes st
             |> List.filter_map (fun (t_nid, t_name) ->
                    match
                      State.in_edges st t_nid, State.out_edges st t_nid
                    with
                    | [ e_in ], [ e_out ]
                      when State.is_scope_exit st e_in.e_src
                           && State.is_scope_entry st e_out.e_dst ->
                      let exit1 = e_in.e_src and entry2 = e_out.e_dst in
                      let entry1 = State.entry_of st exit1 in
                      (match
                         State.node st entry1, State.node st entry2
                       with
                      | Map_entry m1, Map_entry m2
                        when List.length m1.mp_params
                             = List.length m2.mp_params
                             && List.for_all2
                                  (fun (a : Subset.range) (b : Subset.range) ->
                                    Subset.equal_range a b)
                                  m1.mp_ranges m2.mp_ranges
                             && ddesc_transient (Sdfg.desc g t_name)
                             && occurrence_count g t_name = 1 ->
                        (* single producer edge into exit1 for T *)
                        let producers =
                          State.in_edges st exit1
                          |> List.filter (fun e ->
                                 conn_in_base e = Some t_name)
                        in
                        if List.length producers = 1 then
                          Some
                            (Xform.candidate ~state:(State.id st)
                               ~note:t_name
                               [ ("entry1", entry1); ("exit1", exit1);
                                 ("array", t_nid); ("entry2", entry2);
                                 ("exit2", State.exit_of st entry2) ])
                        else None
                      | _ -> None)
                    | _ -> None)))
    ~apply:(fun g c ->
      let st = state_of g c in
      let entry1 = role c "entry1" and exit1 = role c "exit1" in
      let entry2 = role c "entry2" and exit2 = role c "exit2" in
      let t_nid = role c "array" in
      let t_name =
        match State.node st t_nid with Access d -> d | _ -> assert false
      in
      let m1 = map_info st entry1 and m2 = map_info st entry2 in
      (* 1. rename second map's parameters to the first map's *)
      let renaming =
        List.map2 (fun p2 p1 -> (p2, Expr.sym p1)) m2.mp_params m1.mp_params
      in
      subst_scope_params st entry2 renaming;
      (* 2. producer -> scalar transient -> consumers *)
      let producer =
        State.in_edges st exit1
        |> List.find (fun e -> conn_in_base e = Some t_name)
      in
      let sname = Sdfg.fresh_name g ("fused_" ^ t_name) in
      Sdfg.add_array g sname ~transient:true ~shape:[]
        ~dtype:(ddesc_dtype (Sdfg.desc g t_name));
      let snode = State.add_node st (Access sname) in
      ignore
        (reconnect st producer ~src:producer.e_src
           ~src_conn:producer.e_src_conn ~dst:snode ~dst_conn:None
           ~memlet:(Some (Memlet.simple sname [ Subset.index Expr.zero ])));
      List.iter
        (fun (e : edge) ->
          match conn_out_base e with
          | Some b when b = t_name ->
            ignore
              (reconnect st e ~src:snode ~src_conn:None ~dst:e.e_dst
                 ~dst_conn:e.e_dst_conn
                 ~memlet:
                   (Some (Memlet.simple sname [ Subset.index Expr.zero ])))
          | _ -> ())
        (State.out_edges st entry2);
      (* 3. other inputs of map2 enter through entry1 *)
      List.iter
        (fun (e : edge) ->
          match conn_in_base e with
          | Some b when b <> t_name ->
            ignore
              (reconnect st e ~src:e.e_src ~src_conn:e.e_src_conn ~dst:entry1
                 ~dst_conn:e.e_dst_conn ~memlet:e.e_memlet)
          | _ -> ())
        (State.in_edges st entry2);
      List.iter
        (fun (e : edge) ->
          match conn_out_base e with
          | Some b when b <> t_name ->
            ignore
              (reconnect st e ~src:entry1 ~src_conn:e.e_src_conn ~dst:e.e_dst
                 ~dst_conn:e.e_dst_conn ~memlet:e.e_memlet)
          | _ -> ())
        (State.out_edges st entry2);
      (* 4. outputs of map1 other than T leave through exit2 *)
      List.iter
        (fun (e : edge) ->
          match conn_in_base e with
          | Some b when b <> t_name ->
            ignore
              (reconnect st e ~src:e.e_src ~src_conn:e.e_src_conn ~dst:exit2
                 ~dst_conn:e.e_dst_conn ~memlet:e.e_memlet)
          | _ -> ())
        (State.in_edges st exit1);
      List.iter
        (fun (e : edge) ->
          match conn_out_base e with
          | Some b when b <> t_name ->
            ignore
              (reconnect st e ~src:exit2 ~src_conn:e.e_src_conn ~dst:e.e_dst
                 ~dst_conn:e.e_dst_conn ~memlet:e.e_memlet)
          | _ -> ())
        (State.out_edges st exit1);
      (* 5. the fused scope pairs entry1 with exit2 *)
      State.remove_node st exit1;
      State.remove_node st entry2;
      State.remove_node st t_nid;
      State.set_scope st ~entry:entry1 ~exit_:exit2;
      Sdfg.remove_desc g t_name)

(* --- MapReduceFusion (Fig. 11a) -------------------------------------------- *)

let map_reduce_fusion =
  Xform.make ~name:"MapReduceFusion"
    ~description:
      "Fuses a map and a reduction node with the same dimensions, using \
       conflict resolution."
    ~find:(fun g ->
      Sdfg.states g
      |> List.concat_map (fun st ->
             State.nodes st
             |> List.filter_map (fun (rid, n) ->
                    match n with
                    | Reduce r -> (
                      match
                        State.in_edges st rid, State.out_edges st rid
                      with
                      | [ e_in ], [ e_out ] -> (
                        let t_nid = e_in.e_src in
                        match State.node st t_nid with
                        | Access t_name
                          when ddesc_transient (Sdfg.desc g t_name)
                               && occurrence_count g t_name = 1
                               && State.in_degree st t_nid = 1
                               && State.out_degree st t_nid = 1
                               && State.is_scope_exit st
                                    (List.hd (State.in_edges st t_nid)).e_src
                               && Wcr.identity r.r_wcr
                                    (ddesc_dtype (Sdfg.desc g t_name))
                                  <> None ->
                          let exit_ =
                            (List.hd (State.in_edges st t_nid)).e_src
                          in
                          Some
                            (Xform.candidate ~state:(State.id st)
                               ~note:t_name
                               [ ("exit", exit_); ("array", t_nid);
                                 ("reduce", rid); ("out", e_out.e_dst) ])
                        | _ -> None)
                      | _ -> None)
                    | _ -> None)))
    ~apply:(fun g c ->
      let st = state_of g c in
      let exit_ = role c "exit" and t_nid = role c "array" in
      let rid = role c "reduce" and out_nid = role c "out" in
      let t_name =
        match State.node st t_nid with Access d -> d | _ -> assert false
      in
      let r_wcr, r_axes =
        match State.node st rid with
        | Reduce r -> (r.r_wcr, r.r_axes)
        | _ -> assert false
      in
      let out_edge = only_out_edge st rid in
      let out_m = Option.get out_edge.e_memlet in
      let out_name = out_m.m_data in
      let in_rank = ddesc_rank (Sdfg.desc g t_name) in
      let axes =
        match r_axes with
        | Some a -> a
        | None -> List.init in_rank Fun.id
      in
      let kept = List.filter (fun d -> not (List.mem d axes))
          (List.init in_rank Fun.id)
      in
      (* producer edges into the map exit switch to writing [out] with CR *)
      List.iter
        (fun (e : edge) ->
          match conn_in_base e, e.e_memlet with
          | Some b, Some m when b = t_name ->
            let new_subset =
              if kept = [] then [ Subset.index Expr.zero ]
              else List.map (fun d -> List.nth m.m_subset d) kept
            in
            ignore
              (reconnect st e ~src:e.e_src ~src_conn:e.e_src_conn ~dst:exit_
                 ~dst_conn:(Some ("IN_" ^ out_name))
                 ~memlet:
                   (Some
                      { m with
                        m_data = out_name;
                        m_subset = new_subset;
                        m_wcr = Some r_wcr }))
          | _ -> ())
        (State.in_edges st exit_);
      (* the exit now feeds the output container directly *)
      List.iter
        (fun (e : edge) ->
          match conn_out_base e with
          | Some b when b = t_name ->
            let shape = ddesc_shape (Sdfg.desc g out_name) in
            let outer =
              if shape = [] then
                Memlet.simple out_name [ Subset.index Expr.zero ]
              else Memlet.full out_name shape
            in
            ignore
              (reconnect st e ~src:exit_ ~src_conn:(Some ("OUT_" ^ out_name))
                 ~dst:out_nid ~dst_conn:None
                 ~memlet:(Some { outer with m_wcr = Some r_wcr }))
          | _ -> ())
        (State.out_edges st exit_);
      State.remove_node st t_nid;
      State.remove_node st rid;
      Sdfg.remove_desc g t_name;
      (* initialize the output with the reduction identity in a state
         executed beforehand *)
      let dt = ddesc_dtype (Sdfg.desc g out_name) in
      let identity = Option.get (Wcr.identity r_wcr dt) in
      let init_state =
        insert_state_before g ~sid:(State.id st)
          ~label:(Fmt.str "init_%s" out_name)
      in
      add_init_map g init_state ~data:out_name ~value:identity)

(* --- StateFusion ------------------------------------------------------------ *)

let state_fusion =
  Xform.make ~name:"StateFusion"
    ~description:"Fuses two states into one."
    ~find:(fun g ->
      Sdfg.transitions g
      |> List.filter_map (fun (t : istate_edge) ->
             if
               t.is_cond = Btrue && t.is_assign = []
               && t.is_src <> t.is_dst
               && List.length (Sdfg.out_transitions g t.is_src) = 1
               && List.length (Sdfg.in_transitions g t.is_dst) = 1
               && State.id (Sdfg.start_state g) <> t.is_dst
             then
               Some
                 (Xform.candidate ~state:t.is_src
                    ~note:(Fmt.str "%d+%d" t.is_src t.is_dst)
                    [ ("second", t.is_dst) ])
             else None))
    ~apply:(fun g c ->
      let s1 = state_of g c in
      let s2 = Sdfg.state g (role c "second") in
      (* sinks of s1 per container: access nodes that are written *)
      let writes1 = Hashtbl.create 8 in
      List.iter
        (fun (nid, d) ->
          if State.in_degree s1 nid > 0 then Hashtbl.replace writes1 d nid)
        (State.access_nodes s1);
      (* all of s1's access nodes per container, snapshotted before the
         merge brings s2's nodes in *)
      let all1 = Hashtbl.create 8 in
      List.iter
        (fun (nid, d) ->
          Hashtbl.replace all1 d
            (nid :: Option.value ~default:[] (Hashtbl.find_opt all1 d)))
        (State.access_nodes s1);
      (* copy s2's nodes and edges into s1 *)
      let remap = Hashtbl.create 16 in
      List.iter
        (fun (nid, n) ->
          let nid' = State.add_node s1 (State.clone_node n) in
          Hashtbl.replace remap nid nid')
        (State.nodes s2);
      List.iter
        (fun (e : edge) ->
          ignore
            (State.add_edge s1 ?src_conn:e.e_src_conn ?dst_conn:e.e_dst_conn
               ?memlet:e.e_memlet
               ~src:(Hashtbl.find remap e.e_src)
               ~dst:(Hashtbl.find remap e.e_dst)
               ()))
        (State.edges s2);
      List.iter
        (fun (nid, _) ->
          match Hashtbl.find_opt s2.st_scope_exit nid with
          | Some x ->
            State.set_scope s1 ~entry:(Hashtbl.find remap nid)
              ~exit_:(Hashtbl.find remap x)
          | None -> ())
        (State.nodes s2);
      (* serialize across the fusion seam: s1's accesses of a container
         happen-before anything in s2 that writes it (WAW/WAR), and s1's
         writers happen-before s2's readers (RAW).  Writes happen inside
         scopes, so ordering edges target the scope entry that produces
         the write, not the sink access node. *)
      List.iter
        (fun (nid, d) ->
          let nid' = Hashtbl.find remap nid in
          (* RAW: s1 writer -> s2 reader *)
          (match Hashtbl.find_opt writes1 d with
          | Some w
            when State.out_degree s1 nid' > 0 && State.in_degree s1 nid' = 0
            ->
            ignore (State.add_edge s1 ~src:w ~dst:nid' ())
          | _ -> ());
          (* WAW/WAR: any s1 access of d -> the producers feeding s2's
             writes of d.  Only in-edges originating on the s2 side count;
             serialization edges added above must not be re-processed. *)
          let from_s2 n =
            Hashtbl.fold (fun _ v acc -> acc || v = n) remap false
          in
          if State.in_degree s1 nid' > 0 then
            List.iter
              (fun (e : edge) ->
                if from_s2 e.e_src then begin
                  let target =
                    if State.is_scope_exit s1 e.e_src then
                      State.entry_of s1 e.e_src
                    else e.e_src
                  in
                  List.iter
                    (fun a1 ->
                      if
                        a1 <> nid' && a1 <> target
                        && not (List.mem target (State.successors s1 a1))
                      then ignore (State.add_edge s1 ~src:a1 ~dst:target ()))
                    (Option.value ~default:[] (Hashtbl.find_opt all1 d))
                end)
              (State.in_edges s1 nid'))
        (State.access_nodes s2);
      (* rewire the state machine: s2's outgoing transitions now leave s1 *)
      List.iter
        (fun (t : istate_edge) ->
          if t.is_src = State.id s2 then
            Sdfg.replace_transition g t { t with is_src = State.id s1 })
        (Sdfg.transitions g);
      Sdfg.remove_state g (State.id s2))
