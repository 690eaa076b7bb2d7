(* Serialization round-trip tests: save/load must preserve structure AND
   behaviour (interpreter results identical). *)

module T = Tasklang.Types
open Sdfg_ir
open Interp

let roundtrip g = Serialize.of_string (Serialize.to_string g)

let test_structural_roundtrip () =
  List.iter
    (fun (name, build) ->
      let g = build () in
      let g' = roundtrip g in
      Validate.check g';
      Alcotest.(check int) (name ^ ": states") (Sdfg.num_states g)
        (Sdfg.num_states g');
      Alcotest.(check int)
        (name ^ ": containers")
        (List.length (Sdfg.descs g))
        (List.length (Sdfg.descs g'));
      Alcotest.(check int)
        (name ^ ": transitions")
        (List.length (Sdfg.transitions g))
        (List.length (Sdfg.transitions g'));
      List.iter2
        (fun st st' ->
          Alcotest.(check int)
            (name ^ ": nodes of " ^ State.label st)
            (State.num_nodes st) (State.num_nodes st');
          Alcotest.(check int)
            (name ^ ": edges of " ^ State.label st)
            (State.num_edges st) (State.num_edges st'))
        (Sdfg.states g) (Sdfg.states g');
      (* second roundtrip is a fixpoint *)
      Alcotest.(check string)
        (name ^ ": serialization fixpoint")
        (Serialize.to_string g')
        (Serialize.to_string (roundtrip g')))
    [ ("vadd", Fixtures.vector_add);
      ("mapreduce mm", Fixtures.matmul_mapreduce);
      ("laplace", Fixtures.laplace);
      ("fibonacci (streams+consume)", Fixtures.fibonacci);
      ("nested sdfg", Fixtures.nested_loop);
      ("spmv", Fixtures.spmv);
      ("bfs", Workloads.Graphs.bfs) ]

let test_behavioural_roundtrip () =
  let run g =
    let a =
      Tensor.init T.F64 [| 7 |] (fun i -> T.F (cos (float_of_int (List.hd i))))
    in
    let b =
      Tensor.init T.F64 [| 7 |] (fun i -> T.F (float_of_int (List.hd i * 2)))
    in
    let c = Tensor.create T.F64 [| 7 |] in
    ignore
      (Exec.run g ~symbols:[ ("N", 7) ]
         ~args:[ ("A", a); ("B", b); ("C", c) ]);
    Tensor.to_float_list c
  in
  Alcotest.(check (list (float 1e-12)))
    "loaded SDFG computes identically"
    (run (Fixtures.vector_add ()))
    (run (roundtrip (Fixtures.vector_add ())))

let test_transformed_roundtrip () =
  (* transformations survive a save/load cycle (optimization version
     control, §4.2) *)
  let g = Fixtures.matmul_wcr () in
  Transform.Xform.apply_first_exn g
    (Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ 3 ]);
  Transform.Xform.apply_first_exn g Transform.Device_xforms.gpu_transform;
  let g' = roundtrip g in
  Validate.check g';
  let run g =
    let m, n, k = (5, 4, 6) in
    let a = Tensor.init T.F64 [| m; k |] (fun idx -> T.F (float_of_int (List.fold_left ( + ) 1 idx))) in
    let b = Tensor.init T.F64 [| k; n |] (fun idx -> T.F (float_of_int (List.fold_left ( + ) 2 idx))) in
    let c = Tensor.create T.F64 [| m; n |] in
    ignore
      (Exec.run g
         ~symbols:[ ("M", m); ("N", n); ("K", k) ]
         ~args:[ ("A", a); ("B", b); ("C", c) ]);
    Tensor.to_float_list c
  in
  Alcotest.(check (list (float 1e-9))) "transformed+loaded identical" (run g)
    (run g')

let test_parse_errors () =
  let fails s =
    match Serialize.of_string s with
    | exception Serialize.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected Parse_error for %S" s
  in
  fails "";
  fails "(sdfg)";
  fails "(sdfg \"x\" (symbols) (containers) (states) (transitions";
  fails "(not-an-sdfg)"

(* Quoted strings read back as written: every byte value, alone and all
   together, and a malformed escape is a parse error. *)
let test_string_escapes () =
  let back s =
    match Serialize.parse_sexp (Serialize.sexp_to_string (Serialize.Str s)) with
    | Serialize.Str s' -> s'
    | _ -> Alcotest.failf "%S did not read back as a string" s
  in
  for c = 0 to 255 do
    let s = String.make 1 (Char.chr c) in
    Alcotest.(check string) (Fmt.str "byte %d" c) s (back s);
    Alcotest.(check string) (Fmt.str "byte %d in text" c) ("a" ^ s ^ "1")
      (back ("a" ^ s ^ "1"))
  done;
  let all = String.init 256 Char.chr in
  Alcotest.(check string) "every byte" all (back all);
  List.iter
    (fun text ->
      match Serialize.parse_sexp text with
      | exception Serialize.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected Parse_error for %s" text)
    [ {|"\q"|}; {|"\999"|}; {|"\x4"|}; {|"\|}; {|"ab\"|}; {|(a "\c" b)|} ]

(* Names, labels and external code outside printable ASCII keep the
   content hash across a save and load. *)
let test_unicode_hash () =
  let g = Sdfg.create "unicode" in
  let st = Sdfg.add_state g ~label:"état ✓" () in
  ignore
    (State.add_node st
       (Defs.Tasklet
          { t_name = "café";
            t_inputs = [];
            t_outputs = [];
            t_code =
              External { language = "C++"; code = "bell\007; back\bspace\r" };
            t_instrument = false }));
  let g' = roundtrip g in
  Alcotest.(check string) "hash" (Sdfg.hash g) (Sdfg.hash g');
  Alcotest.(check string) "state label" "état ✓"
    (State.label (Sdfg.start_state g'));
  match State.nodes (Sdfg.start_state g') with
  | [ (_, Defs.Tasklet { t_name; t_code = External { code; _ }; _ }) ] ->
    Alcotest.(check string) "tasklet name" "café" t_name;
    Alcotest.(check string) "external code" "bell\007; back\bspace\r" code
  | _ -> Alcotest.fail "expected the one external tasklet"

(* --- the printed layout, pinned against Format ------------------------ *)

(* The oracle: Format's layout, which [Serialize.sexp_to_string] must
   reproduce byte for byte — each list a [hov 1] box with space breaks,
   at Format's default margin. *)
let rec oracle_pp ppf = function
  | Serialize.Atom a -> Fmt.string ppf a
  | Serialize.Str s -> Fmt.pf ppf "%S" s
  | Serialize.List xs ->
    Fmt.pf ppf "(@[<hov 1>%a@])" Fmt.(list ~sep:sp oracle_pp) xs

let oracle s = Fmt.str "%a" oracle_pp s

(* lines of [text] that end in a bare "(": a list opened past column 68
   that Format moved to the next line *)
let open_paren_lines text =
  List.length
    (List.filter
       (fun l -> String.ends_with ~suffix:"(" l)
       (String.split_on_char '\n' text))

(* Every graph the layout is checked on: the CLI programs and corpus
   graphs, the fixtures, the engine and streaming builders, and fuzz
   seeds 0-499, each raw and after propagation. *)
let layout_graphs () =
  let fuzz =
    List.init 500 (fun seed ->
        (Fmt.str "fuzz seed %d" seed, fun () -> Fuzz.Gen.generate seed))
  in
  let named =
    Test_polybench.programs ()
    @ [ ("jacobi", Workloads.Kernels.jacobi);
        ("fixture vector_add", Fixtures.vector_add);
        ("fixture matmul_mapreduce", Fixtures.matmul_mapreduce);
        ("fixture matmul_wcr", Fixtures.matmul_wcr);
        ("fixture laplace", Fixtures.laplace);
        ("fixture spmv", Fixtures.spmv);
        ("fixture fibonacci", Fixtures.fibonacci);
        ("fixture branching", Fixtures.branching);
        ("fixture histogram", Fixtures.histogram);
        ("fixture nested_loop", Fixtures.nested_loop);
        ("stream query_window", Workloads.Streaming.query_window);
        ("stream query_filter", Workloads.Streaming.query_filter);
        ("stream query_topk", Workloads.Streaming.query_topk) ]
    @ fuzz
  in
  List.concat_map
    (fun (name, build) ->
      [ (name, build);
        ( name ^ " propagated",
          fun () ->
            let g = build () in
            Propagate.propagate g;
            g ) ])
    named

let test_layout_graphs () =
  List.iter
    (fun (name, build) ->
      let text = Serialize.to_string (build ()) in
      let sx = Serialize.parse_sexp text in
      Alcotest.(check string) (name ^ ": Format's layout") (oracle sx) text)
    (layout_graphs ())

(* Random s-expressions with long atoms, strings of arbitrary bytes and
   narrow nesting deep enough to open lists past column 68. *)
let random_sexp rng =
  let int = Random.State.int rng in
  let word = "abcdefghijklmnopqrstuvwxyz0123456789_+-*/<=>.:" in
  let leaf () =
    if int 5 = 0 then
      let len = if int 6 = 0 then int 60 else int 8 in
      Serialize.Str
        (String.init len (fun _ ->
             if int 4 = 0 then Char.chr (int 256)
             else word.[int (String.length word)]))
    else
      let len = if int 6 = 0 then 1 + int 40 else 1 + int 6 in
      Serialize.Atom
        (String.init len (fun _ -> word.[int (String.length word)]))
  in
  let rec go depth =
    if depth > 24 || int 100 < 30 + (3 * depth) then leaf ()
    else
      let n = if int 5 = 0 then 0 else 1 + int (if depth < 3 then 5 else 2) in
      Serialize.List (List.init n (fun _ -> go (depth + 1)))
  in
  Serialize.List (List.init (1 + int 5) (fun _ -> go 0))

let test_layout_random () =
  let rng = Random.State.make [| 25 |] in
  let bare = ref 0 in
  for i = 1 to 20_000 do
    let sx = random_sexp rng in
    let want = oracle sx in
    bare := !bare + open_paren_lines want;
    let got = Serialize.sexp_to_string sx in
    if not (String.equal want got) then
      Alcotest.failf "s-expression %d: Format printed@.%s@.and the printer@.%s"
        i want got;
    if Serialize.parse_sexp got <> sx then
      Alcotest.failf "s-expression %d does not read back:@.%s" i got
  done;
  Alcotest.(check bool) "the column-68 rule is exercised" true (!bare > 0)

(* [Sdfg.hash] of every CLI program and corpus graph, pinned: persisted
   serve caches and the keys clients hold depend on these values. *)
let test_hash_golden () =
  Test_report.check_golden "serialize.hashes.golden"
    (String.concat ""
       (List.map
          (fun (name, build) -> Fmt.str "%s %s\n" name (Sdfg.hash (build ())))
          (Test_polybench.programs ())))

let suite =
  [ ("structural roundtrip", `Quick, test_structural_roundtrip);
    ("behavioural roundtrip", `Quick, test_behavioural_roundtrip);
    ("transformed SDFGs roundtrip", `Quick, test_transformed_roundtrip);
    ("parse errors", `Quick, test_parse_errors);
    ("quoted strings read back byte for byte", `Quick, test_string_escapes);
    ("unicode names keep the hash", `Quick, test_unicode_hash);
    ("hash values are pinned", `Quick, test_hash_golden);
    ("layout matches Format on every graph", `Quick, test_layout_graphs);
    ("layout matches Format on random s-expressions", `Quick,
      test_layout_random) ]
