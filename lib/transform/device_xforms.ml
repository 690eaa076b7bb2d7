(* Hardware-mapping transformations (paper Appendix B):
   GPUTransform, FPGATransform, MPITransform.

   GPU/FPGA transforms offload a CPU SDFG wholesale to the accelerator
   (§5: "we apply the FPGATransform automatic transformation to offload
   each Polybench application to the FPGA"): every non-transient array
   gains a device-resident transient twin, copy-in/copy-out states are
   added around the computation, all access nodes and memlets are
   retargeted to the device twins, and top-level map schedules switch to
   the device schedule. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Sdfg_ir
open Defs
open Helpers

let whole_sdfg_candidate (g : Sdfg.t) ~already =
  (* applicable once: no container already carries the device storage *)
  if
    List.exists (fun (_, d) -> ddesc_storage d = already) (Sdfg.descs g)
  then []
  else
    [ Xform.candidate ~state:(State.id (Sdfg.start_state g))
        ~note:(Sdfg.name g) [] ]

let retarget_all_states g ~mapping =
  List.iter
    (fun st ->
      List.iter
        (fun (nid, n) ->
          match n with
          | Access d -> (
            match List.assoc_opt d mapping with
            | Some d' -> State.replace_node st nid (Access d')
            | None -> ())
          | _ -> ())
        (State.nodes st);
      List.iter
        (fun (e : edge) ->
          (match e.e_memlet with
          | Some m -> (
            match List.assoc_opt m.m_data mapping with
            | Some d' -> State.set_memlet st e { m with m_data = d' }
            | None -> ())
          | None -> ());
          (* scope connectors follow container names *)
          let fix conn =
            match conn with
            | Some c when String.length c > 3 && String.sub c 0 3 = "IN_" -> (
              let b = String.sub c 3 (String.length c - 3) in
              match List.assoc_opt b mapping with
              | Some b' -> Some ("IN_" ^ b')
              | None -> conn)
            | Some c when String.length c > 4 && String.sub c 0 4 = "OUT_" -> (
              let b = String.sub c 4 (String.length c - 4) in
              match List.assoc_opt b mapping with
              | Some b' -> Some ("OUT_" ^ b')
              | None -> conn)
            | other -> other
          in
          let src_conn = fix e.e_src_conn and dst_conn = fix e.e_dst_conn in
          if src_conn <> e.e_src_conn || dst_conn <> e.e_dst_conn then
            ignore
              (reconnect st e ~src:e.e_src ~src_conn ~dst:e.e_dst ~dst_conn
                 ~memlet:e.e_memlet))
        (State.edges st))
    (Sdfg.states g)

(* Containers with at least one write anywhere in the SDFG. *)
let written_containers g =
  Sdfg.states g
  |> List.concat_map (fun st ->
         State.access_nodes st
         |> List.filter_map (fun (nid, d) ->
                if State.in_degree st nid > 0 then Some d else None))
  |> List.sort_uniq String.compare

let read_containers g =
  Sdfg.states g
  |> List.concat_map (fun st ->
         State.access_nodes st
         |> List.filter_map (fun (nid, d) ->
                if State.out_degree st nid > 0 then Some d else None))
  |> List.sort_uniq String.compare

let device_transform ~name ~description ~prefix ~storage ~schedule
    ~top_schedule_from =
  Xform.make ~name ~description
    ~find:(fun g -> whole_sdfg_candidate g ~already:storage)
    ~apply:(fun g _c ->
      let host_arrays =
        Sdfg.descs g
        |> List.filter (fun (_, d) ->
               (not (ddesc_transient d)) && not (ddesc_is_stream d))
        |> List.map fst
      in
      let written = written_containers g and read = read_containers g in
      let orig_states = Sdfg.states g in
      let first_sid = State.id (Sdfg.start_state g) in
      (* device twins *)
      let mapping =
        List.map
          (fun a ->
            let d = Sdfg.desc g a in
            let dname = Sdfg.fresh_name g (prefix ^ a) in
            Sdfg.add_desc g dname (with_storage storage (with_transient true d));
            (a, dname))
          host_arrays
      in
      retarget_all_states g ~mapping;
      (* transient arrays also live on the device now *)
      List.iter
        (fun (dn, d) ->
          if
            ddesc_transient d
            && (not (ddesc_is_stream d))
            && (not (List.exists (fun (_, twin) -> String.equal twin dn) mapping))
            && ddesc_storage d = Default
          then Sdfg.replace_desc g dn (with_storage storage d))
        (Sdfg.descs g);
      (* schedules: top-level maps run on the device *)
      List.iter
        (fun st ->
          let parents = State.scope_parents st in
          List.iter
            (fun (nid, n) ->
              match n, Hashtbl.find parents nid with
              | Map_entry m, None when m.mp_schedule = Sequential
                                       || m.mp_schedule = Cpu_multicore ->
                State.replace_node st nid
                  (Map_entry { m with mp_schedule = schedule })
              | Map_entry m, Some _ when top_schedule_from m.mp_schedule ->
                State.replace_node st nid
                  (Map_entry { m with mp_schedule = Sequential })
              | Consume_entry cinfo, None ->
                State.replace_node st nid
                  (Consume_entry { cinfo with cs_schedule = schedule })
              | _ -> ())
            (State.nodes st))
        orig_states;
      (* Copy-in becomes the new start state (other transitions into the
         old start — e.g. loop back-edges — must NOT pass through it, or
         device results would be clobbered every iteration). *)
      let copy_in = Sdfg.add_state g ~label:"copy_in" () in
      ignore
        (Sdfg.add_transition g ~src:(State.id copy_in) ~dst:first_sid ());
      Sdfg.set_start g (State.id copy_in);
      (* Copy in every argument array: outputs may be accumulated into or
         partially written, so their prior contents must reach the device
         (conservative, as in DaCe's GPUTransformSDFG). *)
      ignore read;
      List.iter
        (fun (a, twin) ->
          if true then begin
            let src = State.add_node copy_in (Access a) in
            let dst = State.add_node copy_in (Access twin) in
            let shape = ddesc_shape (Sdfg.desc g a) in
            let sub =
              if shape = [] then [ Subset.index Expr.zero ]
              else Subset.of_shape shape
            in
            ignore
              (State.add_edge copy_in
                 ~memlet:{ (Memlet.simple a sub) with m_other = Some sub }
                 ~src ~dst ())
          end)
        mapping;
      (* Copy-out runs exactly when the original program would terminate:
         from every state, under the negation of all its outgoing
         conditions. *)
      let copy_out = Sdfg.add_state g ~label:"copy_out" () in
      List.iter
        (fun st ->
          if st.st_id <> State.id copy_out then begin
            let conds =
              Sdfg.out_transitions g st.st_id
              |> List.map (fun (t : istate_edge) -> t.is_cond)
            in
            if not (List.mem Btrue conds) then begin
              let none_taken =
                List.fold_left
                  (fun acc c -> Bexp.and_ acc (Bexp.negate c))
                  Bexp.true_ conds
              in
              ignore
                (Sdfg.add_transition g ~src:st.st_id ~dst:(State.id copy_out)
                   ~cond:none_taken ())
            end
          end)
        (Sdfg.states g);
      List.iter
        (fun (a, twin) ->
          if List.mem a written then begin
            let src = State.add_node copy_out (Access twin) in
            let dst = State.add_node copy_out (Access a) in
            let shape = ddesc_shape (Sdfg.desc g a) in
            let sub =
              if shape = [] then [ Subset.index Expr.zero ]
              else Subset.of_shape shape
            in
            ignore
              (State.add_edge copy_out
                 ~memlet:{ (Memlet.simple twin sub) with m_other = Some sub }
                 ~src ~dst ())
          end)
        mapping)

let gpu_transform =
  device_transform ~name:"GPUTransform"
    ~description:
      "Converts a CPU SDFG to run on a GPU, copying memory to it and \
       executing kernels."
    ~prefix:"gpu_" ~storage:Gpu_global ~schedule:Gpu_device
    ~top_schedule_from:(fun s -> s = Cpu_multicore)

let fpga_transform =
  device_transform ~name:"FPGATransform"
    ~description:
      "Converts a CPU SDFG to be fully invoked on an FPGA, copying memory \
       to the device."
    ~prefix:"fpga_" ~storage:Fpga_global ~schedule:Fpga_device
    ~top_schedule_from:(fun s -> s = Cpu_multicore)

(* MPITransform only changes schedules: each top-level map partitions its
   range across ranks. *)
let mpi_transform =
  Xform.make ~name:"MPITransform"
    ~description:
      "Converts a CPU Map to run using MPI, assigning work to ranks."
    ~find:(fun g ->
      Sdfg.states g
      |> List.concat_map (fun st ->
             let parents = State.scope_parents st in
             State.map_entries st
             |> List.filter_map (fun (nid, m) ->
                    if
                      Hashtbl.find parents nid = None
                      && m.mp_schedule <> Mpi
                    then
                      Some
                        (Xform.candidate ~state:(State.id st)
                           ~note:(State.node_label st nid)
                           [ ("map", nid) ])
                    else None)))
    ~apply:(fun g c ->
      let st = state_of g c in
      let entry = role c "map" in
      let m = map_info st entry in
      set_map_info st entry { m with mp_schedule = Mpi };
      ignore g)
