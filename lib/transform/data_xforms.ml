(* Data(-layout) transformations (paper Appendix B):
   LocalStorage, AccumulateTransient (output-side local storage),
   LocalStream, DoubleBuffering, RedundantArray (Appendix D). *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Sdfg_ir
open Defs
open Helpers

(* --- LocalStorage (Fig. 11b) ---------------------------------------------- *)

(* Introduce a transient caching the data of one scope-entry connector:

     entry --A[r_out]--> X        becomes
     entry --A[r_out]--> tmp_A --tmp_A[:]--> X

   with all downstream memlets on A rebased to tmp_A[r_in - r_out]. *)
let local_storage_find (g : Sdfg.t) =
  Sdfg.states g
  |> List.concat_map (fun st ->
         State.edges st
         |> List.filter_map (fun (e : edge) ->
                match e.e_memlet with
                | Some m
                  when State.is_scope_entry st e.e_src
                       && (match e.e_src_conn with
                          | Some c ->
                            String.length c > 4 && String.sub c 0 4 = "OUT_"
                          | None -> false)
                       && (not (ddesc_is_stream (Sdfg.desc g m.m_data)))
                       && not (Subset.is_index m.m_subset) ->
                  Some
                    (Xform.candidate ~state:(State.id st)
                       ~note:(Memlet.to_string m)
                       [ ("entry", e.e_src); ("target", e.e_dst);
                         ("edge", e.e_id) ])
                | _ -> None))

let local_storage =
  Xform.make ~name:"LocalStorage"
    ~description:"Introduces a transient for caching data."
    ~find:local_storage_find
    ~apply:(fun g c ->
      let st = state_of g c in
      let e = State.edge st (role c "edge") in
      let m = Option.get e.e_memlet in
      let origin = m.m_subset in
      let dname = Sdfg.fresh_name g ("tmp_" ^ m.m_data) in
      let dt = ddesc_dtype (Sdfg.desc g m.m_data) in
      Sdfg.add_array g dname ~transient:true
        ~shape:(bounded_extents st origin) ~dtype:dt;
      let tnode = State.add_node st (Access dname) in
      (* Rewrite downstream memlets referencing the original container. *)
      let base =
        match e.e_src_conn with
        | Some c -> String.sub c 4 (String.length c - 4)
        | None -> assert false
      in
      let downstream =
        downstream_path_edges st (role c "entry") base
        |> List.filter (fun (d : edge) -> d.e_id <> e.e_id)
      in
      retarget_memlets ~st ~edges:downstream ~from_:m.m_data ~to_:dname ~origin;
      (* If the target is itself a scope entry, its connector base must be
         renamed to the new container. *)
      if State.is_scope_entry st e.e_dst then
        rename_scope_connectors st e.e_dst ~from_:m.m_data ~to_:dname;
      (* Copy edge entry -> tmp, then tmp -> original target. *)
      let full_tmp = Subset.of_shape (bounded_extents st origin) in
      let window = Subset.offset_by origin ~origin in
      ignore
        (reconnect st e ~src:e.e_src ~src_conn:e.e_src_conn ~dst:tnode
           ~dst_conn:None
           ~memlet:(Some { m with m_other = Some window }));
      let dst_conn =
        match e.e_dst_conn with
        | Some cnn when String.length cnn > 3 && String.sub cnn 0 3 = "IN_" ->
          Some ("IN_" ^ dname)
        | other -> other
      in
      ignore
        (State.add_edge st ~src:tnode ?dst_conn
           ~memlet:(Memlet.simple dname full_tmp) ~dst:e.e_dst ()))

(* --- AccumulateTransient (output-side LocalStorage) ------------------------ *)

let accumulate_transient =
  Xform.make ~name:"AccumulateTransient"
    ~description:
      "Accumulates writes into a local transient before committing them \
       through the scope exit (output-side LocalStorage)."
    ~find:(fun g ->
      Sdfg.states g
      |> List.concat_map (fun st ->
             State.edges st
             |> List.filter_map (fun (e : edge) ->
                    match e.e_memlet with
                    | Some m
                      when State.is_scope_exit st e.e_dst
                           && (match e.e_dst_conn with
                              | Some c ->
                                String.length c > 3
                                && String.sub c 0 3 = "IN_"
                              | None -> false)
                           && (not (ddesc_is_stream (Sdfg.desc g m.m_data)))
                           (* the local accumulator starts zero-allocated
                              and is only drained to the WCR identity
                              after each commit, so the first pass is
                              only correct when the identity IS zero —
                              i.e. for sum *)
                           && m.m_wcr = Some Wcr.sum
                           (* commit edges from already-privatized access
                              nodes must not be re-accumulated *)
                           && not (State.is_scope_entry st e.e_src)
                           && (match State.node st e.e_src with
                              | Access _ -> false
                              | _ -> true) ->
                      Some
                        (Xform.candidate ~state:(State.id st)
                           ~note:(Memlet.to_string m)
                           [ ("source", e.e_src); ("exit", e.e_dst);
                             ("edge", e.e_id) ])
                    | _ -> None)))
    ~apply:(fun g c ->
      let st = state_of g c in
      let e = State.edge st (role c "edge") in
      let m = Option.get e.e_memlet in
      let dname = Sdfg.fresh_name g ("acc_" ^ m.m_data) in
      let dt = ddesc_dtype (Sdfg.desc g m.m_data) in
      let origin = m.m_subset in
      Sdfg.add_array g dname ~transient:true
        ~shape:(bounded_extents st origin) ~dtype:dt;
      let tnode = State.add_node st (Access dname) in
      let full_tmp = Subset.offset_by origin ~origin in
      (* source writes (with WCR) into the local accumulator... *)
      ignore
        (reconnect st e ~src:e.e_src ~src_conn:e.e_src_conn ~dst:tnode
           ~dst_conn:None
           ~memlet:
             (Some
                { m with
                  m_data = dname;
                  m_subset = Subset.offset_by m.m_subset ~origin }));
      (* ...and the accumulator commits through the exit with the WCR. *)
      ignore
        (State.add_edge st ~src:tnode ?dst_conn:e.e_dst_conn
           ~memlet:
             { m with
               m_other = Some full_tmp;
               m_accesses = Subset.volume origin }
           ~dst:e.e_dst ()))

(* --- LocalStream ------------------------------------------------------------ *)

let local_stream =
  Xform.make ~name:"LocalStream"
    ~description:"Accumulates data to a local transient stream."
    ~find:(fun g ->
      Sdfg.states g
      |> List.concat_map (fun st ->
             State.edges st
             |> List.filter_map (fun (e : edge) ->
                    match e.e_memlet with
                    | Some m
                      when State.is_scope_exit st e.e_dst
                           && ddesc_is_stream (Sdfg.desc g m.m_data) ->
                      Some
                        (Xform.candidate ~state:(State.id st)
                           ~note:(Memlet.to_string m)
                           [ ("source", e.e_src); ("exit", e.e_dst);
                             ("edge", e.e_id) ])
                    | _ -> None)))
    ~apply:(fun g c ->
      let st = state_of g c in
      let e = State.edge st (role c "edge") in
      let m = Option.get e.e_memlet in
      let dname = Sdfg.fresh_name g ("L" ^ m.m_data) in
      let dt = ddesc_dtype (Sdfg.desc g m.m_data) in
      Sdfg.add_stream g dname ~dtype:dt;
      let snode = State.add_node st (Access dname) in
      ignore
        (reconnect st e ~src:e.e_src ~src_conn:e.e_src_conn ~dst:snode
           ~dst_conn:None
           ~memlet:(Some { m with m_data = dname }));
      ignore
        (State.add_edge st ~src:snode ?dst_conn:e.e_dst_conn ~memlet:m
           ~dst:e.e_dst ()))

(* --- DoubleBuffering ---------------------------------------------------------- *)

(* Pipelines writing to and processing from a transient using two buffers.
   The transient gains a leading dimension of size 2 and all its memlets
   are indexed by [iter mod 2]; the plan generator recognizes the pattern
   and overlaps the copy into buffer (i+1) mod 2 with compute on buffer
   i mod 2 (semantics under the sequential interpreter are unchanged). *)
let double_buffering_on ~iter_symbol =
  (* Reshaping the transient shifts every later axis by one, so it must
     not feed axis-sensitive consumers (Reduce) or rank-checked nested
     SDFG connectors — anywhere in the graph, since the rewrite below is
     global. *)
  let feeds_shape_sensitive g d =
    List.exists
      (fun st ->
        List.exists
          (fun (nid, d') ->
            String.equal d' d
            && List.exists
                 (fun n ->
                   match State.node st n with
                   | Reduce _ | Nested_sdfg _ -> true
                   | _ -> false)
                 (State.predecessors st nid @ State.successors st nid))
          (State.access_nodes st))
      (Sdfg.states g)
  in
  Xform.make ~name:"DoubleBuffering"
    ~description:
      "Pipelines writing to and processing from a transient using two \
       buffers."
    ~find:(fun g ->
      Sdfg.states g
      |> List.concat_map (fun st ->
             State.access_nodes st
             |> List.filter_map (fun (nid, d) ->
                    let desc = Sdfg.desc g d in
                    if
                      ddesc_transient desc
                      && (not (ddesc_is_stream desc))
                      && ddesc_rank desc > 0
                      && State.in_degree st nid > 0
                      && State.out_degree st nid > 0
                      && not (feeds_shape_sensitive g d)
                    then
                      Some
                        (Xform.candidate ~state:(State.id st) ~note:d
                           [ ("transient", nid) ])
                    else None)))
    ~apply:(fun g c ->
      let st = state_of g c in
      let nid = role c "transient" in
      let dname =
        match State.node st nid with Access d -> d | _ -> assert false
      in
      let desc = Sdfg.desc g dname in
      let old_shape =
        match desc with
        | Array a ->
          Sdfg.replace_desc g dname
            (Array { a with a_shape = Expr.int 2 :: a.a_shape });
          a.a_shape
        | Stream _ -> Xform.not_applicable "DoubleBuffering: stream"
      in
      let parity =
        Subset.index (Expr.modulo (Expr.sym iter_symbol) (Expr.int 2))
      in
      (* Prefix every memlet on this container with the parity index.
         Conservatively rewrite across the whole SDFG (the transient has a
         single logical use site by the match condition).  The container
         can sit on either side of a memlet: as [m_data] its subset is
         [m_subset], but on copy edges whose [m_data] is the opposite
         container it is addressed by [m_other] — with [None] meaning
         "the whole container", which must now be pinned to one buffer
         explicitly. *)
      List.iter
        (fun stx ->
          List.iter
            (fun (e : edge) ->
              let is_dname n =
                match State.node stx n with
                | Access d -> String.equal d dname
                | _ -> false
              in
              match e.e_memlet with
              | Some m when String.equal m.m_data dname ->
                State.set_memlet stx e { m with m_subset = parity :: m.m_subset }
              | Some m when is_dname e.e_src || is_dname e.e_dst ->
                let other =
                  match m.m_other with
                  | Some s -> s
                  | None -> Subset.of_shape old_shape
                in
                State.set_memlet stx e { m with m_other = Some (parity :: other) }
              | Some _ | None -> ())
            (State.edges stx))
        (Sdfg.states g);
      Sdfg.declare_symbol g iter_symbol)

let double_buffering = double_buffering_on ~iter_symbol:"t"

(* --- RedundantArray (Appendix D) ---------------------------------------------- *)

let redundant_array =
  Xform.make ~name:"RedundantArray"
    ~description:
      "Removes a transient array that is copied to another array and used \
       nowhere else, making the copy redundant."
    ~find:(fun g ->
      let pat =
        Pattern.path_graph
          [ Pattern.node ~pred:Pattern.is_access "in_array";
            Pattern.node ~pred:Pattern.is_access "out_array" ]
      in
      Pattern.match_sdfg pat g
      |> List.filter_map (fun (sid, assign) ->
             let st = Sdfg.state g sid in
             let in_a = List.assoc "in_array" assign in
             let out_a = List.assoc "out_array" assign in
             let in_name =
               match State.node st in_a with Access d -> d | _ -> assert false
             in
             let out_name =
               match State.node st out_a with
               | Access d -> d
               | _ -> assert false
             in
             let in_desc = Sdfg.desc g in_name in
             let out_desc = Sdfg.desc g out_name in
             (* The copy must move the whole array onto the whole array:
                a windowed copy (partial subset, or an m_other reindex)
                is not redundant — dropping it would redirect writers
                past the windowing. *)
             let full_copy =
               match State.out_edges st in_a with
               | [ e ] -> (
                 match e.e_memlet with
                 | Some m ->
                   let full d = Subset.of_shape (ddesc_shape d) in
                   m.m_wcr = None
                   && Subset.equal m.m_subset
                        (full (if String.equal m.m_data in_name then in_desc
                               else out_desc))
                   && (match m.m_other with
                      | None -> true
                      | Some s ->
                        Subset.equal s
                          (full
                             (if String.equal m.m_data in_name then out_desc
                              else in_desc)))
                 | None -> false)
               | _ -> false
             in
             (* can_be_applied (Appendix D lines 16-58).  A writer must
                exist: copying a never-written transient zero-fills the
                destination (transients allocate zeroed), which the
                rewrite would silently drop. *)
             if
               State.out_degree st in_a = 1
               && State.in_degree st in_a > 0
               && ddesc_transient in_desc
               && ddesc_storage in_desc = ddesc_storage out_desc
               && occurrence_count g in_name = 1
               && ddesc_shape in_desc = ddesc_shape out_desc
               && (not (String.equal in_name out_name))
               && full_copy
             then
               Some
                 (Xform.candidate ~state:sid
                    ~note:(Fmt.str "%s -> %s" in_name out_name)
                    [ ("in_array", in_a); ("out_array", out_a) ])
             else None))
    ~apply:(fun g c ->
      let st = state_of g c in
      let in_a = role c "in_array" and out_a = role c "out_array" in
      let in_name =
        match State.node st in_a with Access d -> d | _ -> assert false
      in
      let out_name =
        match State.node st out_a with Access d -> d | _ -> assert false
      in
      (* Modify all incoming memlet paths to point to out_array. *)
      List.iter
        (fun (e : edge) ->
          let path = State.memlet_path st e in
          List.iter
            (fun (pe : edge) ->
              match pe.e_memlet with
              | Some m when String.equal m.m_data in_name ->
                State.set_memlet st pe { m with m_data = out_name }
              | _ -> ())
            path;
          ignore
            (reconnect st e ~src:e.e_src ~src_conn:e.e_src_conn ~dst:out_a
               ~dst_conn:e.e_dst_conn ~memlet:e.e_memlet))
        (State.in_edges st in_a);
      State.remove_node st in_a;
      Sdfg.remove_desc g in_name)
