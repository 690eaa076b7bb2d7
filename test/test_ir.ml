(* IR-level tests: state graph operations, scope computation, memlet
   paths, validation errors, propagation, and Graphviz export. *)

module E = Symbolic.Expr
module S = Symbolic.Subset
module T = Tasklang.Types
open Sdfg_ir
open Builder

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let test_graph_ops () =
  let st = State.create 0 in
  let a = State.add_node st (Defs.Access "A") in
  let b = State.add_node st (Defs.Access "B") in
  let c = State.add_node st (Defs.Access "C") in
  let e1 = State.add_edge st ~src:a ~dst:b () in
  ignore (State.add_edge st ~src:b ~dst:c ());
  Alcotest.(check int) "nodes" 3 (State.num_nodes st);
  Alcotest.(check int) "edges" 2 (State.num_edges st);
  Alcotest.(check (list int)) "topo" [ a; b; c ] (State.topological_order st);
  Alcotest.(check (list int)) "succ of a" [ b ] (State.successors st a);
  Alcotest.(check (list int)) "pred of c" [ b ] (State.predecessors st c);
  State.remove_edge st e1.Defs.e_id;
  Alcotest.(check int) "edge removed" 1 (State.num_edges st);
  State.remove_node st b;
  Alcotest.(check int) "node removal drops incident edges" 0
    (State.num_edges st);
  (* cycles are rejected *)
  let st2 = State.create 1 in
  let x = State.add_node st2 (Defs.Access "X") in
  let y = State.add_node st2 (Defs.Access "Y") in
  ignore (State.add_edge st2 ~src:x ~dst:y ());
  ignore (State.add_edge st2 ~src:y ~dst:x ());
  Alcotest.check_raises "cycle detected"
    (Defs.Invalid_sdfg "state \"state\": dataflow graph has a cycle")
    (fun () -> ignore (State.topological_order st2))

let test_scopes () =
  let g = Fixtures.vector_add () in
  let st = Sdfg.start_state g in
  let entry, _ = List.hd (State.map_entries st) in
  let parents = State.scope_parents st in
  let body = State.scope_nodes st entry in
  Alcotest.(check int) "one node inside the map scope" 1 (List.length body);
  List.iter
    (fun nid ->
      Alcotest.(check (option int)) "body parent is the entry" (Some entry)
        (Hashtbl.find parents nid))
    body;
  (* connected components: one component *)
  Alcotest.(check int) "one component" 1
    (List.length (State.connected_components st))

let test_memlet_path () =
  let g = Fixtures.vector_add () in
  let st = Sdfg.start_state g in
  (* the edge A-access -> map entry continues to the tasklet *)
  let edge =
    State.edges st
    |> List.find (fun (e : Defs.edge) ->
           match State.node st e.Defs.e_src with
           | Defs.Access "A" -> true
           | _ -> false)
  in
  let path = State.memlet_path st edge in
  Alcotest.(check int) "path spans entry" 2 (List.length path);
  (match State.node st (List.nth path 1).Defs.e_dst with
  | Defs.Tasklet t -> Alcotest.(check string) "ends at tasklet" "add" t.t_name
  | _ -> Alcotest.fail "path should end at the tasklet")

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_sdfg" name
  | exception Defs.Invalid_sdfg _ -> ()

let test_validation_errors () =
  (* memlet referencing an unknown container *)
  expect_invalid "unknown container" (fun () ->
      let g, st = Build.single_state "bad" in
      Sdfg.add_array g "A" ~shape:[ E.int 4 ] ~dtype:T.F64;
      let a = Build.access st "A" in
      let b = State.add_node st (Defs.Access "GHOST") in
      Build.edge st ~memlet:(Memlet.element "GHOST" [ E.zero ]) ~src:a ~dst:b
        ();
      Validate.check g);
  (* dimensionality mismatch *)
  expect_invalid "rank mismatch" (fun () ->
      let g, st = Build.single_state "bad2" in
      Sdfg.add_array g "A" ~shape:[ E.int 4; E.int 4 ] ~dtype:T.F64;
      ignore
        (Build.simple_tasklet g st ~name:"t"
           ~ins:[ Build.in_elem "a" "A" [ E.zero ] ]
           ~outs:[] ~code:(`Src "x = a") ());
      Validate.check g);
  (* tasklet reading a name that is neither connector nor local *)
  expect_invalid "tasklet external access" (fun () ->
      let g, st = Build.single_state "bad3" in
      Sdfg.add_array g "A" ~shape:[ E.int 4 ] ~dtype:T.F64;
      ignore
        (Build.simple_tasklet g st ~name:"t" ~ins:[]
           ~outs:[ Build.out_elem "o" "A" [ E.zero ] ]
           ~code:(`Src "o = hidden_global") ());
      Validate.check g);
  (* duplicate map parameters *)
  expect_invalid "duplicate params" (fun () ->
      let g, st = Build.single_state ~symbols:[ "N" ] "bad4" in
      Sdfg.add_array g "A" ~shape:[ E.sym "N" ] ~dtype:T.F64;
      ignore
        (Build.mapped_tasklet g st ~name:"t" ~params:[ "i"; "i" ]
           ~ranges:[ S.full (E.sym "N"); S.full (E.sym "N") ]
           ~ins:[]
           ~outs:[ Build.out_elem "o" "A" [ E.sym "i" ] ]
           ~code:(`Src "o = 1.0") ());
      Validate.check g);
  (* GPU thread-block schedule outside a GPU device map *)
  expect_invalid "schedule nesting" (fun () ->
      let g, st = Build.single_state ~symbols:[ "N" ] "bad5" in
      Sdfg.add_array g "A" ~shape:[ E.sym "N" ] ~dtype:T.F64;
      ignore
        (Build.mapped_tasklet g st ~name:"t" ~params:[ "i" ]
           ~schedule:Defs.Gpu_threadblock
           ~ranges:[ S.full (E.sym "N") ]
           ~ins:[]
           ~outs:[ Build.out_elem "o" "A" [ E.sym "i" ] ]
           ~code:(`Src "o = 1.0") ());
      Validate.check g)

let test_propagation () =
  let g = Fixtures.vector_add () in
  let st = Sdfg.start_state g in
  (* the outer edge into the map entry must carry the propagated subset *)
  let entry, _ = List.hd (State.map_entries st) in
  let outer = List.hd (State.in_edges st entry) in
  let m = Option.get outer.Defs.e_memlet in
  Alcotest.(check string) "propagated image" "[0:N]"
    (S.to_string m.Defs.m_subset);
  (* access count = one per iteration *)
  Alcotest.(check string) "access count" "N"
    (E.to_string m.Defs.m_accesses)

let test_free_symbols () =
  let g = Fixtures.vector_add () in
  Alcotest.(check (list string)) "free symbols" [ "N" ] (Sdfg.free_symbols g);
  let g2 = Fixtures.laplace () in
  Alcotest.(check (list string)) "laplace symbols" [ "N"; "T" ]
    (Sdfg.free_symbols g2)

let test_dot_export () =
  let g = Fixtures.matmul_mapreduce () in
  let dot = Dot.of_sdfg g in
  Alcotest.(check bool) "has digraph" true (contains dot "digraph");
  Alcotest.(check bool) "access ellipse" true (contains dot "shape=ellipse");
  Alcotest.(check bool) "map trapezium" true (contains dot "shape=trapezium");
  Alcotest.(check bool) "reduce triangle" true
    (contains dot "shape=invtriangle");
  (* WCR memlets render dashed, as in the paper's figures *)
  let g3 = Fixtures.matmul_wcr () in
  Alcotest.(check bool) "WCR dashed" true
    (contains (Dot.of_sdfg g3) "style=dashed")

(* The Graphviz text of every CLI program and corpus graph, pinned by
   digest. *)
let test_dot_golden () =
  Test_report.check_golden "dot.digests.golden"
    (String.concat ""
       (List.map
          (fun (name, build) ->
            Fmt.str "%s %s\n" name
              (Digest.to_hex (Digest.string (Dot.of_sdfg (build ())))))
          (Test_polybench.programs ())))

(* A graph whose labels need every escape, alone and together, pinned
   whole. *)
let test_dot_escape () =
  let g = Sdfg.create "say \"dot\"" in
  let st = Sdfg.add_state g ~label:"a \"quoted\" \\ label\nsecond line" () in
  List.iter
    (fun name -> ignore (State.add_node st (Defs.Access name)))
    [ "A\\\"\n"; "only \"quotes\""; "only \\ backslash"; "only\nnewline" ];
  let empty = Sdfg.add_state g ~label:"empty" () in
  ignore
    (Sdfg.add_transition g ~src:(State.id st) ~dst:(State.id empty) ());
  Test_report.check_golden "dot.escape.golden" (Dot.of_sdfg g)

let test_clone_independence () =
  let g = Fixtures.vector_add () in
  let g' = Sdfg.clone g in
  let st' = Sdfg.start_state g' in
  (* mutate the clone; the original must be unaffected *)
  let n = State.num_nodes (Sdfg.start_state g) in
  State.remove_node st' (fst (List.hd (State.map_entries st')));
  Alcotest.(check int) "original intact" n
    (State.num_nodes (Sdfg.start_state g))

(* --- the adjacency index answers as a fold over the tables does --------- *)

(* Reference answers, recomputed from the node and edge tables on every
   call. *)
let ref_nodes (s : Defs.state) =
  Hashtbl.fold (fun nid n acc -> (nid, n) :: acc) s.st_nodes []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let ref_edges (s : Defs.state) =
  Hashtbl.fold (fun _ e acc -> e :: acc) s.st_edges []
  |> List.sort (fun (a : Defs.edge) b -> Int.compare a.e_id b.e_id)

let ref_in s nid = List.filter (fun (e : Defs.edge) -> e.e_dst = nid) (ref_edges s)
let ref_out s nid = List.filter (fun (e : Defs.edge) -> e.e_src = nid) (ref_edges s)

(* lowest ready id first: a node is ready once all its sources are out *)
let ref_topo s =
  let rec go out left =
    let ready =
      List.filter
        (fun n ->
          List.for_all (fun (e : Defs.edge) -> List.mem e.e_src out) (ref_in s n))
        left
    in
    match ready with
    | [] -> List.rev out
    | r :: rs ->
      let n = List.fold_left min r rs in
      go (n :: out) (List.filter (fun m -> m <> n) left)
  in
  go [] (List.map fst (ref_nodes s))

(* Same records, in the same order: the index must hand out this state's
   own edges and the current node payloads. *)
let same_records what a b =
  if not (List.length a = List.length b && List.for_all2 ( == ) a b) then
    Alcotest.failf "%s: the index disagrees with the tables" what

let check_queries what (s : Defs.state) =
  let nodes = State.nodes s and want = ref_nodes s in
  Alcotest.(check (list int)) (what ^ ": node ids") (List.map fst want)
    (List.map fst nodes);
  same_records (what ^ ": node payloads") (List.map snd want)
    (List.map snd nodes);
  same_records (what ^ ": edges") (ref_edges s) (State.edges s);
  for nid = -1 to s.st_next_node do
    let at q = Printf.sprintf "%s: %s %d" what q nid in
    same_records (at "in_edges") (ref_in s nid) (State.in_edges s nid);
    same_records (at "out_edges") (ref_out s nid) (State.out_edges s nid);
    Alcotest.(check int) (at "in_degree") (List.length (ref_in s nid))
      (State.in_degree s nid);
    Alcotest.(check int) (at "out_degree") (List.length (ref_out s nid))
      (State.out_degree s nid);
    Alcotest.(check (list int)) (at "predecessors")
      (List.sort_uniq compare
         (List.map (fun (e : Defs.edge) -> e.e_src) (ref_in s nid)))
      (State.predecessors s nid);
    Alcotest.(check (list int)) (at "successors")
      (List.sort_uniq compare
         (List.map (fun (e : Defs.edge) -> e.e_dst) (ref_out s nid)))
      (State.successors s nid)
  done;
  Alcotest.(check (list int)) (what ^ ": topological order") (ref_topo s)
    (State.topological_order s)

(* One seeded random edit: edges run from lower to higher ids, so the
   graph stays acyclic; node payloads are fresh on every replacement. *)
let random_edit rng (s : Defs.state) fresh =
  let module R = Fuzz.Rand in
  let node_ids = List.map fst (ref_nodes s) in
  let edge_ids = List.map (fun (e : Defs.edge) -> e.e_id) (ref_edges s) in
  let access () = incr fresh; Defs.Access (Printf.sprintf "A%d" !fresh) in
  let pair () =
    let a = R.choose rng node_ids and b = R.choose rng node_ids in
    (min a b, max a b)
  in
  match R.int rng 10 with
  | 0 | 1 | 2 -> ignore (State.add_node s (access ()))
  | 3 | 4 | 5 when List.length node_ids >= 2 ->
    let src, dst = pair () in
    if src <> dst then ignore (State.add_edge s ~src ~dst ())
  | 6 when edge_ids <> [] -> State.remove_edge s (R.choose rng edge_ids)
  | 7 when node_ids <> [] -> State.remove_node s (R.choose rng node_ids)
  | 8 when node_ids <> [] ->
    State.replace_node s (R.choose rng node_ids) (access ())
  | 9 when List.length node_ids >= 2 ->
    let entry, exit_ = pair () in
    if entry <> exit_ then State.set_scope s ~entry ~exit_
  | _ -> ()

let test_index_matches_tables () =
  for seed = 0 to 99 do
    let rng = Fuzz.Rand.create seed and fresh = ref 0 in
    let s = State.create seed in
    for step = 1 to 40 do
      random_edit rng s fresh;
      check_queries (Printf.sprintf "seed %d step %d" seed step) s
    done
  done

let test_index_clone_independence () =
  let memlet = Memlet.element "A" [ E.zero ] in
  for seed = 0 to 19 do
    let rng = Fuzz.Rand.create seed and fresh = ref 0 in
    let s = State.create seed in
    for _ = 1 to 30 do random_edit rng s fresh done;
    (* both indexes are built before either side is edited *)
    check_queries "original" s;
    let c = State.clone s () in
    check_queries "clone" c;
    let memlets (st : Defs.state) =
      List.map (fun (e : Defs.edge) -> e.e_memlet) (ref_edges st)
    in
    (* edit [a]; [b] must answer and hold memlets as before *)
    let edit_leaves_alone what (a : Defs.state) (b : Defs.state) =
      match State.edges a, List.rev (State.edges a) with
      | first :: _, last :: _ ->
        let before = memlets b and edges_before = ref_edges b in
        State.set_memlet a first memlet;
        State.remove_edge a last.e_id;
        check_queries (what ^ " edited") a;
        check_queries (what ^ "'s twin") b;
        same_records (what ^ ": twin's edges") edges_before (ref_edges b);
        if not (List.for_all2 ( == ) before (memlets b)) then
          Alcotest.failf "seed %d: editing the %s moved its twin's memlets"
            seed what
      | _ -> ()
    in
    edit_leaves_alone "clone" c s;
    edit_leaves_alone "original" s c
  done

(* --- the content stamp ---------------------------------------------------- *)

(* Every mutator takes a stamp no state has had; a query takes none. *)
let test_stamp_moves () =
  let st = State.create 0 in
  let seen = ref [ State.stamp st ] in
  let moved what =
    let s = State.stamp st in
    if List.mem s !seen then Alcotest.failf "%s kept the content stamp" what;
    seen := s :: !seen
  in
  let a = State.add_node st (Defs.Access "A") in
  moved "add_node";
  let b = State.add_node st (Defs.Access "B") in
  moved "add_node";
  let e =
    State.add_edge st ~memlet:(Memlet.element "A" [ E.zero ]) ~src:a ~dst:b ()
  in
  moved "add_edge";
  let before = State.stamp st in
  ignore (State.nodes st, State.edges st, State.topological_order st);
  ignore (State.in_edges st b, State.scope_parents st, State.label st);
  Alcotest.(check int) "queries keep the stamp" before (State.stamp st);
  State.set_memlet st e (Memlet.element "A" [ E.one ]);
  moved "set_memlet";
  State.set_label st "renamed";
  moved "set_label";
  State.replace_node st b (Defs.Access "C");
  moved "replace_node";
  State.set_scope st ~entry:a ~exit_:b;
  moved "set_scope";
  State.remove_edge st e.e_id;
  moved "remove_edge";
  State.remove_node st b;
  moved "remove_node"

(* A clone keeps the stamp, and the propagation mark, only where it is
   the same content: the same id and no nested SDFG. *)
let test_stamp_clone () =
  let g = Fixtures.matmul_mapreduce () in
  let st = Sdfg.start_state g in
  Propagate.propagate g;
  let same = State.clone st () in
  Alcotest.(check int) "same id keeps the stamp" (State.stamp st)
    (State.stamp same);
  Alcotest.(check int) "and the propagation mark" st.st_propagated
    same.st_propagated;
  let moved = State.clone st ~id:(State.id st + 1) () in
  Alcotest.(check bool) "another id takes a fresh stamp" true
    (State.stamp moved <> State.stamp st);
  Alcotest.(check bool) "which is not propagated" true
    (moved.st_propagated <> State.stamp moved);
  let inner = Sdfg.create "inner" in
  ignore
    (State.add_node st
       (Defs.Nested_sdfg
          { n_sdfg = inner; n_inputs = []; n_outputs = []; n_symbol_map = [] }));
  Alcotest.(check bool) "a nested SDFG takes a fresh stamp" true
    (State.stamp (State.clone st ()) <> State.stamp st);
  (* a whole-graph clone keeps every stamp of a graph without nesting *)
  let g = Fixtures.laplace () in
  List.iter2
    (fun a b ->
      Alcotest.(check int) "Sdfg.clone keeps stamps" (State.stamp a)
        (State.stamp b))
    (Sdfg.states g)
    (Sdfg.states (Sdfg.clone g))

let test_wcr_semantics () =
  let check_id wcr dt expect =
    match Wcr.identity wcr dt with
    | Some v -> Alcotest.(check (float 0.)) "identity" expect (T.to_float v)
    | None -> Alcotest.fail "expected identity"
  in
  check_id Wcr.sum T.F64 0.;
  check_id Wcr.prod T.F64 1.;
  let v =
    Wcr.apply (Wcr.of_code "old + 2 * new") ~old_v:(T.F 1.) ~new_v:(T.F 3.)
  in
  Alcotest.(check (float 1e-12)) "custom combiner" 7. (T.to_float v)

(* property: WCR sum application is order-insensitive over a batch *)
let prop_wcr_commutes =
  QCheck2.Test.make ~count:200 ~name:"WCR sum is order-insensitive"
    QCheck2.Gen.(list_size (int_range 1 12) (int_range (-50) 50))
    (fun xs ->
      let fold order =
        List.fold_left
          (fun acc v -> Wcr.apply Wcr.sum ~old_v:acc ~new_v:(T.I v))
          (T.I 0) order
      in
      T.to_int (fold xs) = T.to_int (fold (List.rev xs)))

let suite =
  [ ("state graph operations", `Quick, test_graph_ops);
    ("scope computation", `Quick, test_scopes);
    ("memlet paths", `Quick, test_memlet_path);
    ("validation rejects malformed SDFGs", `Quick, test_validation_errors);
    ("memlet propagation on the IR", `Quick, test_propagation);
    ("free symbol inference", `Quick, test_free_symbols);
    ("Graphviz export", `Quick, test_dot_export);
    ("Graphviz text is pinned", `Quick, test_dot_golden);
    ("Graphviz labels are escaped", `Quick, test_dot_escape);
    ("clone independence", `Quick, test_clone_independence);
    ("edge queries answer from the index", `Quick, test_index_matches_tables);
    ("a clone's index is its own", `Quick, test_index_clone_independence);
    ("every State mutator moves the content stamp", `Quick, test_stamp_moves);
    ("a clone keeps the stamp only for the same content", `Quick,
      test_stamp_clone);
    ("WCR semantics", `Quick, test_wcr_semantics) ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_wcr_commutes ]
