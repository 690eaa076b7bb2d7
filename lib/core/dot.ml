(* Graphviz export of SDFGs, mirroring the visual language of the paper's
   figures: ellipses for access nodes, octagons for tasklets, trapezoids
   for map entry/exit, dashed edges for write-conflict-resolution memlets,
   and one cluster per state with inter-state transition edges between
   clusters. *)

open Defs

(* The argument itself when nothing in it needs escaping, which is the
   common case. *)
let escape s =
  if not (String.exists (function '"' | '\\' | '\n' -> true | _ -> false) s)
  then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let add_node buf prefix st (nid, n) =
  let labelled shape =
    Printf.bprintf buf "label=\"%s\", shape=%s"
      (escape (State.node_label st nid)) shape
  in
  Printf.bprintf buf "    %s_n%d [" prefix nid;
  (match n with
  | Access _ -> labelled "ellipse"
  | Tasklet _ -> labelled "octagon"
  | Map_entry _ -> labelled "trapezium"
  | Map_exit -> Buffer.add_string buf "label=\"\", shape=invtrapezium"
  | Consume_entry _ -> labelled "trapezium, style=dotted"
  | Consume_exit ->
    Buffer.add_string buf "label=\"\", shape=invtrapezium, style=dotted"
  | Reduce _ -> labelled "invtriangle"
  | Nested_sdfg _ -> labelled "doubleoctagon");
  Buffer.add_string buf "];\n"

let add_edge buf prefix (e : edge) =
  Printf.bprintf buf "    %s_n%d -> %s_n%d [" prefix e.e_src prefix e.e_dst;
  (match e.e_memlet with
  | None -> Buffer.add_string buf "style=dotted, label=\"\""
  | Some m ->
    Printf.bprintf buf "label=\"%s\"%s"
      (escape (Memlet.to_string m))
      (if m.m_wcr <> None then ", style=dashed" else ""));
  Buffer.add_string buf "];\n"

let state_body buf prefix st =
  List.iter (add_node buf prefix st) (State.nodes st);
  List.iter (add_edge buf prefix) (State.edges st)

let of_state (st : state) : string =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "digraph %S {\n" st.st_label;
  state_body buf "s" st;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* One state's cluster.  It reads nothing but the state. *)
let add_cluster buf st =
  Printf.bprintf buf "  subgraph cluster_s%d {\n    label=\"%s\";\n" st.st_id
    (escape st.st_label);
  state_body buf ("s" ^ string_of_int st.st_id) st;
  (* Anchor node for inter-state edges on empty states. *)
  if State.num_nodes st = 0 then
    Printf.bprintf buf "    s%d_anchor [label=\"\", shape=point];\n" st.st_id;
  Buffer.add_string buf "  }\n"

(* A cluster's text is kept the second time its stamp is seen: most
   states a search prints belong to one successor only, and keeping
   their text costs more than printing it. *)
let signer () =
  let clusters : (int, string option) Hashtbl.t = Hashtbl.create 64 in
  fun (g : sdfg) ->
    let buf = Buffer.create 4096 in
    Printf.bprintf buf "digraph %S {\n  compound=true;\n" g.g_name;
    List.iter
      (fun st ->
        match Hashtbl.find_opt clusters st.st_stamp with
        | Some (Some text) -> Buffer.add_string buf text
        | Some None ->
          let start = Buffer.length buf in
          add_cluster buf st;
          Hashtbl.replace clusters st.st_stamp
            (Some (Buffer.sub buf start (Buffer.length buf - start)))
        | None ->
          add_cluster buf st;
          Hashtbl.replace clusters st.st_stamp None)
      (Sdfg.states g);
    let anchor st =
      match State.nodes st with
      | (nid, _) :: _ -> Printf.sprintf "s%d_n%d" st.st_id nid
      | [] -> Printf.sprintf "s%d_anchor" st.st_id
    in
    List.iter
      (fun (e : istate_edge) ->
        let src = Sdfg.state g e.is_src and dst = Sdfg.state g e.is_dst in
        let lbl =
          let cond =
            match e.is_cond with Btrue -> "" | c -> Bexp.to_string c
          in
          let asn =
            String.concat "; "
              (List.map
                 (fun (s, ex) -> s ^ "=" ^ Symbolic.Expr.to_string ex)
                 e.is_assign)
          in
          match cond, asn with
          | "", "" -> ""
          | c, "" -> c
          | "", a -> a
          | c, a -> c ^ "; " ^ a
        in
        Printf.bprintf buf
          "  %s -> %s [ltail=cluster_s%d, lhead=cluster_s%d, label=\"%s\", \
           color=blue];\n"
          (anchor src) (anchor dst) e.is_src e.is_dst (escape lbl))
      (Sdfg.transitions g);
    Buffer.add_string buf "}\n";
    Buffer.contents buf

let of_sdfg g = signer () g

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let save_sdfg g path = write_file path (of_sdfg g)
