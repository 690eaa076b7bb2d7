(* Abstract syntax of the tasklet mini-language.

   Tasklets are stateless, fine-grained computational functions (paper
   §3.2): straight-line code with local variables, conditionals and calls
   to a fixed set of math intrinsics.  They may only touch data that was
   moved in or out through connectors — there is no way to name external
   memory from inside a tasklet, which is what makes the dataflow
   analysis of the enclosing SDFG sound. *)

type unop = Neg | Not | Sqrt | Exp | Log | Abs | Sin | Cos | Floor

type binop =
  | Add | Sub | Mul | Div | Mod | Pow
  | Min | Max
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type expr =
  | Float_lit of float
  | Int_lit of int
  | Bool_lit of bool
  | Var of string
  | Index of string * expr list  (* connector element access: a[i, j] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cond of expr * expr * expr   (* c ? t : f  /  "t if c else f" *)

type lhs =
  | Lvar of string
  | Lindex of string * expr list

type stmt =
  | Assign of lhs * expr
  | If of expr * stmt list * stmt list
  | For of string * expr * expr * stmt list
    (* sequential loop [for v in lo:hi { ... }], hi exclusive — the
       tasklet-level equivalent of a MapToForLoop'd sequential map, used
       for data-dependent iteration counts (e.g. CSR neighbor lists) *)

type t = stmt list

(* --- traversals ------------------------------------------------------ *)

let rec expr_names acc = function
  | Float_lit _ | Int_lit _ | Bool_lit _ -> acc
  | Var x -> x :: acc
  | Index (x, es) -> List.fold_left expr_names (x :: acc) es
  | Unop (_, e) -> expr_names acc e
  | Binop (_, a, b) -> expr_names (expr_names acc a) b
  | Cond (c, a, b) -> expr_names (expr_names (expr_names acc c) a) b

let rec stmt_reads acc = function
  | Assign (lhs, e) ->
    let acc = expr_names acc e in
    (match lhs with
    | Lvar _ -> acc
    | Lindex (_, es) -> List.fold_left expr_names acc es)
  | If (c, t, f) ->
    let acc = expr_names acc c in
    let acc = List.fold_left stmt_reads acc t in
    List.fold_left stmt_reads acc f
  | For (_, lo, hi, body) ->
    let acc = expr_names (expr_names acc lo) hi in
    List.fold_left stmt_reads acc body

let rec stmt_writes acc = function
  | Assign (Lvar x, _) | Assign (Lindex (x, _), _) -> x :: acc
  | If (_, t, f) ->
    let acc = List.fold_left stmt_writes acc t in
    List.fold_left stmt_writes acc f
  | For (v, _, _, body) -> List.fold_left stmt_writes (v :: acc) body

let reads (code : t) =
  List.sort_uniq String.compare (List.fold_left stmt_reads [] code)

let writes (code : t) =
  List.sort_uniq String.compare (List.fold_left stmt_writes [] code)

(* --- printing (round-trips through the parser) ----------------------- *)

(* The text is part of every serialized graph and so of every hash of
   one: it is written straight into a buffer, and its bytes must not
   change. *)

let unop_name = function
  | Neg -> "-" | Not -> "not " | Sqrt -> "sqrt" | Exp -> "exp"
  | Log -> "log" | Abs -> "abs" | Sin -> "sin" | Cos -> "cos"
  | Floor -> "floor"

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Pow -> "**" | Min -> "min" | Max -> "max"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | And -> "and" | Or -> "or"

let add_list b add sep = function
  | [] -> ()
  | x :: rest ->
    add b x;
    List.iter
      (fun x ->
        Buffer.add_string b sep;
        add b x)
      rest

let rec add_expr b = function
  | Float_lit x ->
    Buffer.add_string b
      (if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
       else Printf.sprintf "%.17g" x)
  | Int_lit n -> Buffer.add_string b (string_of_int n)
  | Bool_lit v -> Buffer.add_string b (if v then "true" else "false")
  | Var x -> Buffer.add_string b x
  | Index (x, es) -> add_index b x es
  | Unop (Neg, Float_lit x) -> add_expr b (Float_lit (-.x))
  | Unop (Neg, Int_lit n) -> add_expr b (Int_lit (-n))
  | Unop (Neg, Unop (Neg, e)) -> add_expr b e
  | Unop (op, e) ->
    Buffer.add_string b
      (match op with Neg -> "(-" | Not -> "(not " | _ -> unop_name op ^ "(");
    add_expr b e;
    Buffer.add_char b ')'
  | Binop ((Min | Max) as op, x, y) ->
    Buffer.add_string b (binop_name op);
    Buffer.add_char b '(';
    add_expr b x;
    Buffer.add_string b ", ";
    add_expr b y;
    Buffer.add_char b ')'
  | Binop (op, x, y) ->
    Buffer.add_char b '(';
    add_expr b x;
    Buffer.add_char b ' ';
    Buffer.add_string b (binop_name op);
    Buffer.add_char b ' ';
    add_expr b y;
    Buffer.add_char b ')'
  | Cond (c, t, f) ->
    Buffer.add_char b '(';
    add_expr b t;
    Buffer.add_string b " if ";
    add_expr b c;
    Buffer.add_string b " else ";
    add_expr b f;
    Buffer.add_char b ')'

and add_index b x es =
  Buffer.add_string b x;
  Buffer.add_char b '[';
  add_list b add_expr ", " es;
  Buffer.add_char b ']'

let rec add_stmt b = function
  | Assign (lhs, e) ->
    (match lhs with
    | Lvar x -> Buffer.add_string b x
    | Lindex (x, es) -> add_index b x es);
    Buffer.add_string b " = ";
    add_expr b e
  | If (c, t, f) ->
    Buffer.add_string b "if ";
    add_expr b c;
    add_block b t;
    (match f with
    | [] -> ()
    | _ ->
      Buffer.add_string b " else";
      add_block b f)
  | For (v, lo, hi, body) ->
    Buffer.add_string b "for ";
    Buffer.add_string b v;
    Buffer.add_string b " in ";
    add_expr b lo;
    Buffer.add_char b ':';
    add_expr b hi;
    add_block b body

and add_block b stmts =
  Buffer.add_string b " { ";
  add_list b add_stmt "; " stmts;
  Buffer.add_string b " }"

let to_string (code : t) =
  let b = Buffer.create 64 in
  add_list b add_stmt "; " code;
  Buffer.contents b

let pp ppf (code : t) = Format.pp_print_string ppf (to_string code)
