(* Tests for the tasklet mini-language: parser, type inference, evaluator
   and C emission. *)

open Tasklang

let eval_f code scalars =
  let result = ref Types.(F nan) in
  let bindings =
    List.map (fun (n, v) -> (n, Eval.Scalar (Types.F v))) scalars
    @ [ ("out",
         Eval.Buffer
           ((fun _ -> !result), fun _ v -> result := v)) ]
  in
  Eval.run ~bindings (Parse.program code);
  Types.to_float !result

let test_arith () =
  Alcotest.(check (float 1e-12)) "add" 5. (eval_f "out = a + b" [ ("a", 2.); ("b", 3.) ]);
  Alcotest.(check (float 1e-12)) "prec" 7. (eval_f "out = 1 + 2 * 3" []);
  Alcotest.(check (float 1e-12)) "paren" 9. (eval_f "out = (1 + 2) * 3" []);
  Alcotest.(check (float 1e-12)) "pow" 8. (eval_f "out = 2 ** 3" []);
  Alcotest.(check (float 1e-12)) "unary" (-3.) (eval_f "out = -3" []);
  Alcotest.(check (float 1e-12)) "fdiv" 2.5 (eval_f "out = 5.0 / 2" [])

let test_intrinsics () =
  Alcotest.(check (float 1e-12)) "sqrt" 3. (eval_f "out = sqrt(9.0)" []);
  Alcotest.(check (float 1e-12)) "min" 2. (eval_f "out = min(2, 7)" []);
  Alcotest.(check (float 1e-12)) "max" 7. (eval_f "out = max(2, 7)" []);
  Alcotest.(check (float 1e-12)) "abs" 4. (eval_f "out = abs(-4)" []);
  Alcotest.(check (float 1e-9)) "exp(0)" 1. (eval_f "out = exp(0.0)" [])

let test_locals_and_if () =
  Alcotest.(check (float 1e-12)) "local"
    14.
    (eval_f "t = a * 2\nout = t + 4" [ ("a", 5.) ]);
  Alcotest.(check (float 1e-12)) "if taken"
    1.
    (eval_f "if a > 0 { out = 1 } else { out = 2 }" [ ("a", 5.) ]);
  Alcotest.(check (float 1e-12)) "else taken"
    2.
    (eval_f "if a > 0 { out = 1 } else { out = 2 }" [ ("a", -5.) ]);
  Alcotest.(check (float 1e-12)) "ternary"
    10.
    (eval_f "out = 10 if a > 1 else 20" [ ("a", 2.) ])

let test_int_semantics () =
  let eval_i code scalars =
    let result = ref Types.(I 0) in
    let bindings =
      List.map (fun (n, v) -> (n, Eval.Scalar (Types.I v))) scalars
      @ [ ("out", Eval.Buffer ((fun _ -> !result), fun _ v -> result := v)) ]
    in
    Eval.run ~bindings (Parse.program code);
    Types.to_int !result
  in
  Alcotest.(check int) "int floor div" (-4) (eval_i "out = a / 2" [ ("a", -7) ]);
  Alcotest.(check int) "int mod" 1 (eval_i "out = a % 2" [ ("a", -7) ]);
  Alcotest.(check int) "int pow" 81 (eval_i "out = 3 ** 4" [])

let test_buffer_access () =
  let data = [| 10.; 20.; 30.; 40. |] in
  let out = ref 0. in
  let bindings =
    [ ("a",
       Eval.Buffer
         ((fun idx -> Types.F data.(List.hd idx)), fun _ _ -> assert false));
      ("i", Eval.Scalar (Types.I 2));
      ("out",
       Eval.Buffer
         ((fun _ -> Types.F !out), fun _ v -> out := Types.to_float v)) ]
  in
  Eval.run ~bindings (Parse.program "out = a[i] + a[i + 1]");
  Alcotest.(check (float 1e-12)) "indexed" 70. !out

let test_parse_errors () =
  let fails s =
    match Parse.program s with
    | exception Parse.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  fails "out = ";
  fails "= 3";
  fails "out = foo(1, 2, 3)";
  fails "out = (1 + 2";
  fails "if a { out = 1"

let test_reads_writes () =
  let code = Parse.program "t = a * b\nout = t + c[i]" in
  Alcotest.(check (list string)) "writes" [ "out"; "t" ] (Ast.writes code);
  Alcotest.(check (list string))
    "reads" [ "a"; "b"; "c"; "i"; "t" ] (Ast.reads code)

let conns =
  [ { Typecheck.c_name = "a"; c_dtype = Types.F64; c_rank = 0 };
    { Typecheck.c_name = "v"; c_dtype = Types.F32; c_rank = 1 };
    { Typecheck.c_name = "n"; c_dtype = Types.I64; c_rank = 0 };
    { Typecheck.c_name = "out"; c_dtype = Types.F64; c_rank = 0 } ]

let test_typecheck () =
  let locals = Typecheck.check ~connectors:conns (Parse.program "t = n + 1\nout = a * t") in
  Alcotest.(check bool) "t is int" true
    (List.assoc "t" locals = Types.I64);
  let fails code =
    match Typecheck.check ~connectors:conns (Parse.program code) with
    | exception Types.Type_error _ -> ()
    | _ -> Alcotest.failf "expected type error for %S" code
  in
  fails "out = q + 1";           (* unbound *)
  fails "out = v[1, 2]";         (* rank mismatch *)
  fails "out = v[a]"             (* non-integer index *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let test_emit_c () =
  let c = Emit.to_c ~connectors:conns (Parse.program "t = n + 1\nout = a * t") in
  Alcotest.(check bool) "declares local" true (contains c "long long t = ");
  Alcotest.(check bool) "assignment" true (contains c "out = (a * t);")

let eval_f_ast code a =
  let result = ref Types.(F nan) in
  let bindings =
    [ ("a", Eval.Scalar (Types.F a));
      ("out", Eval.Buffer ((fun _ -> !result), fun _ v -> result := v)) ]
  in
  Eval.run ~bindings code;
  Types.to_float !result

let test_roundtrip () =
  (* pretty-printed code re-parses to the same evaluation *)
  let code = Parse.program "t = a * 2.0 + 1.0\nout = max(t, a) if a > 0 else -t" in
  let printed = Ast.to_string code in
  let reparsed = Parse.program printed in
  List.iter
    (fun a ->
      let v1 = eval_f_ast code a and v2 = eval_f_ast reparsed a in
      Alcotest.(check (float 1e-12)) "roundtrip value" v1 v2)
    [ -3.; 0.; 2.5 ]

(* The oracle: the Format printer [Ast.to_string] replaced, whose bytes
   the serialized text and every hash of it are taken of. *)
let rec oracle_expr ppf (e : Ast.expr) =
  match e with
  | Float_lit x ->
    if Float.is_integer x && Float.abs x < 1e15 then Fmt.pf ppf "%.1f" x
    else Fmt.pf ppf "%.17g" x
  | Int_lit n -> Fmt.int ppf n
  | Bool_lit b -> Fmt.string ppf (if b then "true" else "false")
  | Var x -> Fmt.string ppf x
  | Index (x, es) ->
    Fmt.pf ppf "%s[%a]" x Fmt.(list ~sep:(any ", ") oracle_expr) es
  | Unop (Neg, Float_lit x) -> oracle_expr ppf (Float_lit (-.x))
  | Unop (Neg, Int_lit n) -> oracle_expr ppf (Int_lit (-n))
  | Unop (Neg, Unop (Neg, e)) -> oracle_expr ppf e
  | Unop (Neg, e) -> Fmt.pf ppf "(-%a)" oracle_expr e
  | Unop (Not, e) -> Fmt.pf ppf "(not %a)" oracle_expr e
  | Unop (op, e) -> Fmt.pf ppf "%s(%a)" (Ast.unop_name op) oracle_expr e
  | Binop ((Min | Max) as op, a, b) ->
    Fmt.pf ppf "%s(%a, %a)" (Ast.binop_name op) oracle_expr a oracle_expr b
  | Binop (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" oracle_expr a (Ast.binop_name op) oracle_expr b
  | Cond (c, t, f) ->
    Fmt.pf ppf "(%a if %a else %a)" oracle_expr t oracle_expr c oracle_expr f

let rec oracle_stmt ppf (s : Ast.stmt) =
  let block = Fmt.(list ~sep:(any "; ") oracle_stmt) in
  match s with
  | Assign (Lvar x, e) -> Fmt.pf ppf "%s = %a" x oracle_expr e
  | Assign (Lindex (x, es), e) ->
    Fmt.pf ppf "%s[%a] = %a" x Fmt.(list ~sep:(any ", ") oracle_expr) es
      oracle_expr e
  | If (c, t, []) -> Fmt.pf ppf "if %a { %a }" oracle_expr c block t
  | If (c, t, f) ->
    Fmt.pf ppf "if %a { %a } else { %a }" oracle_expr c block t block f
  | For (v, lo, hi, body) ->
    Fmt.pf ppf "for %s in %a:%a { %a }" v oracle_expr lo oracle_expr hi block
      body

let oracle code = Fmt.str "%a" Fmt.(list ~sep:(any "; ") oracle_stmt) code

(* Random programs over every constructor, with literals at the edges of
   the two float formats. *)
let random_code rng =
  let int n = Random.State.int rng n in
  let pick l = List.nth l (int (List.length l)) in
  let float () =
    pick [ 0.; -0.; 1.; -2.5; 0.1; 1e15; -1e15; 1e-300; 123456789.125;
           Float.of_int (int 1000) /. 7.; Float.infinity; Float.nan ]
  in
  let rec expr d : Ast.expr =
    match if d = 0 then int 4 else int 9 with
    | 0 -> Float_lit (float ())
    | 1 -> Int_lit (int 200 - 100)
    | 2 -> Bool_lit (int 2 = 0)
    | 3 -> Var (pick [ "a"; "b"; "t" ])
    | 4 -> Index ("x", List.init (int 3) (fun _ -> expr (d - 1)))
    | 5 ->
      Unop (pick Ast.[ Neg; Not; Sqrt; Exp; Log; Abs; Sin; Cos; Floor ], expr (d - 1))
    | 6 ->
      Unop
        ( Neg,
          pick
            Ast.[ Float_lit (float ()); Int_lit (int 9); Unop (Neg, expr (d - 1)) ]
        )
    | 7 ->
      Binop
        ( pick Ast.[ Add; Sub; Mul; Div; Mod; Pow; Min; Max; Lt; Le; Gt; Ge; Eq;
                 Ne; And; Or ],
          expr (d - 1), expr (d - 1) )
    | _ -> Cond (expr (d - 1), expr (d - 1), expr (d - 1))
  in
  let rec stmt d : Ast.stmt =
    let block () = List.init (int 3) (fun _ -> stmt (d - 1)) in
    match if d = 0 then int 2 else int 4 with
    | 0 -> Assign (Lvar "o", expr 3)
    | 1 -> Assign (Lindex ("y", List.init (1 + int 2) (fun _ -> expr 1)), expr 3)
    | 2 -> If (expr 2, block (), if int 2 = 0 then [] else block ())
    | _ -> For ("k", expr 1, expr 1, block ())
  in
  List.init (int 4) (fun _ -> stmt 2)

let test_printer_matches_format () =
  let rng = Random.State.make [| 26 |] in
  for i = 1 to 2000 do
    let code = random_code rng in
    let want = oracle code and got = Ast.to_string code in
    if not (String.equal want got) then
      Alcotest.failf "program %d: Format printed@.%s@.and the printer@.%s" i
        want got
  done

let suite =
  [ ("arithmetic", `Quick, test_arith);
    ("intrinsics", `Quick, test_intrinsics);
    ("locals and control flow", `Quick, test_locals_and_if);
    ("integer semantics", `Quick, test_int_semantics);
    ("buffer access", `Quick, test_buffer_access);
    ("parse errors", `Quick, test_parse_errors);
    ("reads/writes analysis", `Quick, test_reads_writes);
    ("type inference", `Quick, test_typecheck);
    ("C emission", `Quick, test_emit_c);
    ("print/parse roundtrip", `Quick, test_roundtrip);
    ("printer matches Format", `Quick, test_printer_matches_format) ]
