(* Shared graph-surgery utilities for transformations. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Sdfg_ir
open Defs

let role (c : Xform.candidate) name =
  match List.assoc_opt name c.c_nodes with
  | Some nid -> nid
  | None -> Xform.not_applicable "internal: role %S missing from candidate" name

let state_of g (c : Xform.candidate) = Sdfg.state g c.c_state

let map_info st nid =
  match State.node st nid with
  | Map_entry m -> m
  | _ -> Xform.not_applicable "node %d is not a map entry" nid

let set_map_info st nid info = State.replace_node st nid (Map_entry info)

let only_out_edge st nid =
  match State.out_edges st nid with
  | [ e ] -> e
  | es ->
    Xform.not_applicable "node %d has %d out-edges, expected 1" nid
      (List.length es)

let only_in_edge st nid =
  match State.in_edges st nid with
  | [ e ] -> e
  | es ->
    Xform.not_applicable "node %d has %d in-edges, expected 1" nid
      (List.length es)

(* Recreate an edge with new endpoints/connectors/memlet. *)
let reconnect st (e : edge) ~src ~src_conn ~dst ~dst_conn ~memlet =
  State.remove_edge st e.e_id;
  State.add_edge st ?src_conn ?dst_conn ?memlet ~src ~dst ()

(* Number of access nodes referring to [data] across all states. *)
let occurrence_count g data =
  Sdfg.states g
  |> List.map (fun st -> List.length (State.access_nodes_of st data))
  |> List.fold_left ( + ) 0

(* Rewrite every memlet in [st] that references container [from_] so that
   it references [to_], with subsets rebased by [origin] (the subset of
   [from_] that [to_] now holds; pass the whole-array subset for a pure
   rename).  Applied along full memlet paths so scope connectors stay
   consistent is the caller's job. *)
let retarget_memlets ~st ~edges ~from_ ~to_ ~origin =
  List.iter
    (fun (e : edge) ->
      match e.e_memlet with
      | Some m when String.equal m.m_data from_ ->
        let subset = Subset.offset_by m.m_subset ~origin in
        State.set_memlet st e { m with m_data = to_; m_subset = subset }
      | _ -> ())
    edges

(* Rename scope connectors IN_<from>/OUT_<from> on an entry or exit node's
   adjacent edges. *)
let rename_scope_connectors st nid ~from_ ~to_ =
  let fix conn =
    match conn with
    | Some c when c = "IN_" ^ from_ -> Some ("IN_" ^ to_)
    | Some c when c = "OUT_" ^ from_ -> Some ("OUT_" ^ to_)
    | other -> other
  in
  List.iter
    (fun (e : edge) ->
      let src_conn = if e.e_src = nid then fix e.e_src_conn else e.e_src_conn in
      let dst_conn = if e.e_dst = nid then fix e.e_dst_conn else e.e_dst_conn in
      if src_conn <> e.e_src_conn || dst_conn <> e.e_dst_conn then
        ignore
          (reconnect st e ~src:e.e_src ~src_conn ~dst:e.e_dst ~dst_conn
             ~memlet:e.e_memlet))
    (State.in_edges st nid @ State.out_edges st nid)

(* Fresh interstate symbol name for [g]. *)
let fresh_symbol g prefix =
  let used = Sdfg.symbols g @ List.map fst (Sdfg.descs g) in
  if not (List.mem prefix used) then prefix
  else
    let rec go i =
      let cand = Fmt.str "%s_%d" prefix i in
      if List.mem cand used then go (i + 1) else cand
    in
    go 0

(* Shape (extents) of a subset: one symbolic extent per dimension. *)
let subset_extents (s : Subset.t) =
  List.map Subset.num_elements s

(* All map/consume parameters of a state, with their ranges. *)
let state_params st =
  State.nodes st
  |> List.concat_map (fun (_, n) ->
         match n with
         | Map_entry m -> List.combine m.mp_params m.mp_ranges
         | Consume_entry c ->
           [ (c.cs_pe_param,
              Subset.range Expr.zero (Expr.sub c.cs_num_pes Expr.one)) ]
         | _ -> [])

(* Parameter-free upper bounds of subset extents, used to size transients
   introduced inside scopes (LocalStorage's tmp must have an allocatable
   shape even though the cached window slides with the map parameter).
   The min-clipped ranges that MapTiling produces
   ([t_i : min(stop, t_i + T - 1)]) bound tightly to the tile size T;
   other parametric ranges fall back to interval analysis over the
   parameter ranges. *)
let bounded_extents st (s : Subset.t) =
  let params = state_params st in
  let param_names = List.map fst params in
  let is_param_free e =
    List.for_all (fun sym -> not (List.mem sym param_names)) (Expr.free_syms e)
  in
  let benv name =
    match List.assoc_opt name params with
    | Some (r : Subset.range) -> Some { Expr.lo = r.start; hi = r.stop }
    | None -> None
  in
  let rec bound_hi e fuel =
    if is_param_free e then e
    else if fuel = 0 then
      Xform.not_applicable
        "cannot bound extent %s independently of map parameters"
        (Expr.to_string e)
    else bound_hi (Expr.bounds benv e).Expr.hi (fuel - 1)
  in
  List.map
    (fun (r : Subset.range) ->
      let plain = Subset.num_elements r in
      if is_param_free plain then plain
      else
        (* min-clipped tile range: extent <= (y - start)/stride + 1 for
           either arm y of the Min *)
        let candidates =
          match r.stop with
          | Expr.Min (x, y) ->
            List.filter_map
              (fun arm ->
                let ext =
                  Expr.add
                    (Expr.div (Expr.sub arm r.start) r.stride)
                    Expr.one
                in
                if is_param_free ext then Some ext else None)
              [ x; y ]
          | _ -> []
        in
        match candidates with
        | ext :: _ -> ext
        | [] -> bound_hi plain 4)
    s

(* Insert a new state between [src] and every outgoing transition... no —
   insert [fresh] before state [sid] in the state machine: all transitions
   into [sid] are redirected to [fresh], and an unconditional transition
   [fresh] -> [sid] is added.  If [sid] was the start state, [fresh]
   becomes the start state. *)
let insert_state_before g ~sid ~label =
  let fresh = Sdfg.add_state g ~label () in
  let fid = State.id fresh in
  List.iter
    (fun (t : istate_edge) ->
      if t.is_dst = sid then
        Sdfg.replace_transition g t { t with is_dst = fid })
    (Sdfg.transitions g);
  ignore (Sdfg.add_transition g ~src:fid ~dst:sid ());
  if Sdfg.start_state g |> State.id = sid then Sdfg.set_start g fid;
  fresh

(* All edges on the memlet paths downstream of a scope-entry connector
   base [x]: the OUT_x edges of [entry] and, transitively, edges reached
   through further scope nodes. *)
let rec downstream_path_edges st entry base =
  State.out_edges st entry
  |> List.filter (fun (e : edge) -> e.e_src_conn = Some ("OUT_" ^ base))
  |> List.concat_map (fun (e : edge) ->
         e
         ::
         (if State.is_scope_entry st e.e_dst then
            match e.e_dst_conn with
            | Some c when String.length c > 3 && String.sub c 0 3 = "IN_" ->
              downstream_path_edges st e.e_dst
                (String.sub c 3 (String.length c - 3))
            | _ -> []
          else []))

(* Build a map-identity tasklet writing [value] to every element of
   [data]; used by transformations that must initialize a container with a
   reduction identity. *)
let add_init_map g st ~data ~value =
  let d = Sdfg.desc g data in
  let shape = ddesc_shape d in
  if shape = [] then begin
    let tk =
      Builder.Build.simple_tasklet g st ~name:("init_" ^ data) ~ins:[]
        ~outs:[ Builder.Build.out_elem "o" data [ Expr.zero ] ]
        ~code:(`Src (Fmt.str "o = %s" (Fmt.str "%a" Tasklang.Types.pp_value value)))
        ()
    in
    ignore tk
  end
  else begin
    let params = List.mapi (fun i _ -> Fmt.str "_ii%d" i) shape in
    let ranges = List.map Subset.full shape in
    let idxs = List.map Expr.sym params in
    ignore
      (Builder.Build.mapped_tasklet g st ~name:("init_" ^ data) ~params
         ~ranges ~ins:[]
         ~outs:[ Builder.Build.out_elem "o" data idxs ]
         ~code:
           (`Src (Fmt.str "o = %s" (Fmt.str "%a" Tasklang.Types.pp_value value)))
         ())
  end
