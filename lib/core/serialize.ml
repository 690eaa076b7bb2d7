(* SDFG (de)serialization — the equivalent of DaCe's .sdfg files.

   The format is s-expressions: human-diffable, and everything the IR
   carries round-trips — containers, states, nodes, connectors, memlets
   (with WCR and dynamic flags), scope pairings, inter-state transitions,
   symbols, and nested SDFGs.  Symbolic expressions print in prefix form;
   tasklet code embeds as source text and re-parses through the tasklet
   parser. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Defs

exception Parse_error of string

let parse_error fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* --- s-expressions ------------------------------------------------------- *)

type sexp = Atom of string | Str of string | List of sexp list

(* Printing.  The layout is the one Format gives every list as
   "(@[<hov 1>...@])" with space breaks, at margin 78 and maximum indent
   68, byte for byte: [Sdfg.hash] and persisted .sdfg files are this
   text.  Three rules make it:
   - a list is flat when its inner width is less than the space left
     after its "(";
   - otherwise each later child starts a new line when 1 + its flat width
     is at least the space left, indented one column past the "(" (at
     most to column 68);
   - a list whose "(" leaves the column past 68, inside a list that is
     not flat and past that list's indentation, first breaks the line to
     that list's indentation, leaving the "(" at the end of a line.
   A first pass records every node's flat width in pre-order, one byte
   each and saturated at 255, since a decision only ever compares a
   width with at most the margin; the second pass lays the text out in
   the same order. *)

let margin = 78
let max_indent = 68
let blanks = String.make max_indent ' '

(* the width of [s] as [%S] prints it: quotes plus String.escaped's text *)
let str_width s =
  let w = ref 2 in
  for i = 0 to String.length s - 1 do
    w :=
      !w
      + (match String.unsafe_get s i with
        | '"' | '\\' | '\n' | '\t' | '\r' | '\b' -> 2
        | ' ' .. '~' -> 1
        | _ -> 4)
  done;
  !w

let set_width widths i w =
  Bytes.unsafe_set widths i (Char.unsafe_chr (min w 255))

let width_at widths i = Char.code (Bytes.unsafe_get widths i)

(* records the widths of [x] and the nodes below it from index [i] on;
   returns the index after them *)
let rec measure widths i x =
  if i >= Bytes.length !widths then
    widths := Bytes.extend !widths 0 (Bytes.length !widths);
  match x with
  | Atom a ->
    set_width !widths i (String.length a);
    i + 1
  | Str s ->
    set_width !widths i (str_width s);
    i + 1
  | List [] ->
    set_width !widths i 2;
    i + 1
  | List (x :: xs) ->
    let next = measure widths (i + 1) x in
    measure_rest widths i next (1 + width_at !widths (i + 1)) xs

(* [w] is the width so far of the list at [i], from its "(" *)
and measure_rest widths i next w = function
  | [] ->
    set_width !widths i (w + 1);
    next
  | x :: xs ->
    let next' = measure widths next x in
    measure_rest widths i next' (w + 1 + width_at !widths next) xs

let sexp_to_string (s : sexp) =
  let widths = ref (Bytes.create 1024) in
  let nodes = measure widths 0 s in
  let widths = !widths in
  let b = Buffer.create ((4 * nodes) + 64) in
  let col = ref 0 and node = ref 0 in
  let newline indent =
    Buffer.add_char b '\n';
    Buffer.add_substring b blanks 0 indent;
    col := indent
  in
  let rec flat = function
    | Atom a ->
      incr node;
      Buffer.add_string b a
    | Str s ->
      incr node;
      Buffer.add_char b '"';
      Buffer.add_string b (String.escaped s);
      Buffer.add_char b '"'
    | List xs ->
      incr node;
      Buffer.add_char b '(';
      flat_items xs;
      Buffer.add_char b ')'
  and flat_items = function
    | [] -> ()
    | x :: xs ->
      flat x;
      List.iter
        (fun x ->
          Buffer.add_char b ' ';
          flat x)
        xs
  in
  (* [encl] is the width of the enclosing list's box (the margin less
     its indentation); that list is never flat here *)
  let rec emit encl x =
    match x with
    | List xs ->
      let width = width_at widths !node in
      incr node;
      Buffer.add_char b '(';
      incr col;
      if !col > max_indent && encl > margin - !col then
        newline (min max_indent (margin - encl));
      let space = margin - !col in
      if width - 2 < space then begin
        flat_items xs;
        col := !col + width - 1
      end
      else begin
        let box = space - 1 in
        let indent = min max_indent (margin - box) in
        (match xs with
        | [] -> ()
        | x :: xs ->
          emit box x;
          List.iter
            (fun x ->
              if 1 + width_at widths !node >= margin - !col then newline indent
              else begin
                Buffer.add_char b ' ';
                incr col
              end;
              emit box x)
            xs);
        incr col
      end;
      Buffer.add_char b ')'
    | Atom _ | Str _ ->
      let start = Buffer.length b in
      flat x;
      col := !col + Buffer.length b - start
  in
  emit margin s;
  Buffer.contents b

(* Reading: one scan over the text.  Atoms and quoted strings are sliced
   out whole; a string holding a backslash is unescaped by OCaml's own
   lexical rules, the inverse of the [String.escaped] the printer uses. *)
let parse_sexp (src : string) : sexp =
  let n = String.length src in
  let pos = ref 0 in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get src !pos with
      | ' ' | '\n' | '\t' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let rec atom_end i =
    if i = n then i
    else
      match String.unsafe_get src i with
      | ' ' | '\n' | '\t' | '\r' | '(' | ')' | '"' -> i
      | _ -> atom_end (i + 1)
  in
  (* index of the closing quote, and whether a backslash came before it *)
  let rec string_end i escaped =
    if i >= n then parse_error "unterminated string"
    else
      match String.unsafe_get src i with
      | '"' -> (i, escaped)
      | '\\' -> string_end (i + 2) true
      | _ -> string_end (i + 1) escaped
  in
  let rec parse () =
    skip_ws ();
    if !pos >= n then parse_error "unexpected end of input";
    match String.unsafe_get src !pos with
    | '(' ->
      incr pos;
      List (items [])
    | ')' -> parse_error "unexpected ')'"
    | '"' ->
      let start = !pos + 1 in
      let stop, escaped = string_end start false in
      pos := stop + 1;
      let raw = String.sub src start (stop - start) in
      if not escaped then Str raw
      else (
        match Scanf.unescaped raw with
        | s -> Str s
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
          parse_error "bad escape in string \"%s\"" raw)
    | _ ->
      let start = !pos in
      pos := atom_end start;
      Atom (String.sub src start (!pos - start))
  and items acc =
    skip_ws ();
    if !pos >= n then parse_error "unclosed parenthesis"
    else if String.unsafe_get src !pos = ')' then begin
      incr pos;
      List.rev acc
    end
    else items (parse () :: acc)
  in
  let result = parse () in
  skip_ws ();
  if !pos <> n then parse_error "trailing input after s-expression";
  result

(* --- symbolic expressions -------------------------------------------------- *)

let rec expr_to_sexp (e : Expr.t) : sexp =
  match e with
  | Expr.Int n -> Atom (string_of_int n)
  | Expr.Sym s -> Atom s
  | Expr.Add xs -> List (Atom "+" :: List.map expr_to_sexp xs)
  | Expr.Mul xs -> List (Atom "*" :: List.map expr_to_sexp xs)
  | Expr.Div (a, b) -> List [ Atom "/"; expr_to_sexp a; expr_to_sexp b ]
  | Expr.Mod (a, b) -> List [ Atom "%"; expr_to_sexp a; expr_to_sexp b ]
  | Expr.Min (a, b) -> List [ Atom "min"; expr_to_sexp a; expr_to_sexp b ]
  | Expr.Max (a, b) -> List [ Atom "max"; expr_to_sexp a; expr_to_sexp b ]

let rec expr_of_sexp (s : sexp) : Expr.t =
  match s with
  | Atom a -> (
    match int_of_string_opt a with
    | Some n -> Expr.Int n
    | None -> Expr.Sym a)
  | List (Atom "+" :: xs) -> Expr.Add (List.map expr_of_sexp xs)
  | List (Atom "*" :: xs) -> Expr.Mul (List.map expr_of_sexp xs)
  | List [ Atom "/"; a; b ] -> Expr.Div (expr_of_sexp a, expr_of_sexp b)
  | List [ Atom "%"; a; b ] -> Expr.Mod (expr_of_sexp a, expr_of_sexp b)
  | List [ Atom "min"; a; b ] -> Expr.Min (expr_of_sexp a, expr_of_sexp b)
  | List [ Atom "max"; a; b ] -> Expr.Max (expr_of_sexp a, expr_of_sexp b)
  | s -> parse_error "bad expression %s" (sexp_to_string s)

let range_to_sexp (r : Subset.range) =
  List
    [ expr_to_sexp r.start; expr_to_sexp r.stop; expr_to_sexp r.stride;
      expr_to_sexp r.tile ]

let range_of_sexp = function
  | List [ a; b; c; d ] ->
    { Subset.start = expr_of_sexp a; stop = expr_of_sexp b;
      stride = expr_of_sexp c; tile = expr_of_sexp d }
  | s -> parse_error "bad range %s" (sexp_to_string s)

let subset_to_sexp (s : Subset.t) = List (List.map range_to_sexp s)

let subset_of_sexp = function
  | List rs -> List.map range_of_sexp rs
  | s -> parse_error "bad subset %s" (sexp_to_string s)

(* --- scalar pieces ----------------------------------------------------------- *)

let dtype_to_atom dt = Atom (Tasklang.Types.dtype_name dt)

let dtype_of_sexp = function
  | Atom "float32" -> Tasklang.Types.F32
  | Atom "float64" -> Tasklang.Types.F64
  | Atom "int32" -> Tasklang.Types.I32
  | Atom "int64" -> Tasklang.Types.I64
  | Atom "bool" -> Tasklang.Types.Bool
  | s -> parse_error "bad dtype %s" (sexp_to_string s)

let storage_to_atom st = Atom (storage_name st)

let storage_of_sexp = function
  | Atom "Default" -> Default
  | Atom "Register" -> Register
  | Atom "CPU_Heap" -> Cpu_heap
  | Atom "CPU_Stack" -> Cpu_stack
  | Atom "GPU_Global" -> Gpu_global
  | Atom "GPU_Shared" -> Gpu_shared
  | Atom "FPGA_Global" -> Fpga_global
  | Atom "FPGA_Local" -> Fpga_local
  | s -> parse_error "bad storage %s" (sexp_to_string s)

let schedule_to_atom s = Atom (schedule_name s)

let schedule_of_sexp = function
  | Atom "Sequential" -> Sequential
  | Atom "CPU_Multicore" -> Cpu_multicore
  | Atom "GPU_Device" -> Gpu_device
  | Atom "GPU_ThreadBlock" -> Gpu_threadblock
  | Atom "FPGA_Device" -> Fpga_device
  | Atom "FPGA_Unrolled" -> Fpga_unrolled
  | Atom "MPI" -> Mpi
  | s -> parse_error "bad schedule %s" (sexp_to_string s)

let wcr_to_sexp = function
  | Wcr_sum -> Atom "Sum"
  | Wcr_prod -> Atom "Prod"
  | Wcr_min -> Atom "Min"
  | Wcr_max -> Atom "Max"
  | Wcr_custom e -> List [ Atom "Custom"; Str (Tasklang.Emit.expr_to_c e) ]

let wcr_of_sexp = function
  | Atom "Sum" -> Wcr_sum
  | Atom "Prod" -> Wcr_prod
  | Atom "Min" -> Wcr_min
  | Atom "Max" -> Wcr_max
  | List [ Atom "Custom"; Str src ] ->
    Wcr_custom (Tasklang.Parse.expression src)
  | s -> parse_error "bad wcr %s" (sexp_to_string s)

let value_to_sexp (v : Tasklang.Types.value) =
  match v with
  | Tasklang.Types.F x -> List [ Atom "f"; Atom (Printf.sprintf "%h" x) ]
  | Tasklang.Types.I n -> List [ Atom "i"; Atom (string_of_int n) ]
  | Tasklang.Types.B b -> List [ Atom "b"; Atom (string_of_bool b) ]

let value_of_sexp = function
  | List [ Atom "f"; Atom x ] -> Tasklang.Types.F (float_of_string x)
  | List [ Atom "i"; Atom n ] -> Tasklang.Types.I (int_of_string n)
  | List [ Atom "b"; Atom b ] -> Tasklang.Types.B (bool_of_string b)
  | s -> parse_error "bad value %s" (sexp_to_string s)

let conn_to_sexp (c : conn) =
  List [ Atom c.k_name; dtype_to_atom c.k_dtype; Atom (string_of_int c.k_rank) ]

let conn_of_sexp = function
  | List [ Atom name; dt; Atom rank ] ->
    { k_name = name; k_dtype = dtype_of_sexp dt; k_rank = int_of_string rank }
  | s -> parse_error "bad connector %s" (sexp_to_string s)

let memlet_to_sexp (m : memlet) =
  List
    ([ Atom "memlet"; Atom m.m_data; subset_to_sexp m.m_subset;
       expr_to_sexp m.m_accesses; Atom (string_of_bool m.m_dynamic) ]
    @ (match m.m_other with
      | None -> [ Atom "_" ]
      | Some o -> [ subset_to_sexp o ])
    @ match m.m_wcr with None -> [] | Some w -> [ wcr_to_sexp w ])

let memlet_of_sexp = function
  | List (Atom "memlet" :: Atom data :: subset :: accesses :: Atom dyn :: rest)
    ->
    let other, wcr =
      match rest with
      | [ Atom "_" ] -> (None, None)
      | [ Atom "_"; w ] -> (None, Some (wcr_of_sexp w))
      | [ o ] -> (Some (subset_of_sexp o), None)
      | [ o; w ] -> (Some (subset_of_sexp o), Some (wcr_of_sexp w))
      | _ -> parse_error "bad memlet tail"
    in
    { m_data = data;
      m_subset = subset_of_sexp subset;
      m_other = other;
      m_wcr = wcr;
      m_accesses = expr_of_sexp accesses;
      m_dynamic = bool_of_string dyn }
  | s -> parse_error "bad memlet %s" (sexp_to_string s)

(* --- conditions ----------------------------------------------------------------- *)

let rec bexp_to_sexp = function
  | Btrue -> Atom "true"
  | Bfalse -> Atom "false"
  | Bnot b -> List [ Atom "not"; bexp_to_sexp b ]
  | Band (a, b) -> List [ Atom "and"; bexp_to_sexp a; bexp_to_sexp b ]
  | Bor (a, b) -> List [ Atom "or"; bexp_to_sexp a; bexp_to_sexp b ]
  | Bcmp (op, a, b) ->
    let o =
      match op with
      | Ceq -> "==" | Cne -> "!=" | Clt -> "<" | Cle -> "<=" | Cgt -> ">"
      | Cge -> ">="
    in
    List [ Atom o; expr_to_sexp a; expr_to_sexp b ]

let rec bexp_of_sexp = function
  | Atom "true" -> Btrue
  | Atom "false" -> Bfalse
  | List [ Atom "not"; b ] -> Bnot (bexp_of_sexp b)
  | List [ Atom "and"; a; b ] -> Band (bexp_of_sexp a, bexp_of_sexp b)
  | List [ Atom "or"; a; b ] -> Bor (bexp_of_sexp a, bexp_of_sexp b)
  | List [ Atom op; a; b ] ->
    let o =
      match op with
      | "==" -> Ceq | "!=" -> Cne | "<" -> Clt | "<=" -> Cle | ">" -> Cgt
      | ">=" -> Cge
      | _ -> parse_error "bad comparison %s" op
    in
    Bcmp (o, expr_of_sexp a, expr_of_sexp b)
  | s -> parse_error "bad condition %s" (sexp_to_string s)

(* --- nodes ------------------------------------------------------------------------ *)

(* optional trailing [instrument] marker on tasklet / map_entry / state
   forms; absent in files written before the instrumentation layer *)
let instrument_of_tail = function
  | [] -> false
  | [ Atom "instrument" ] -> true
  | s :: _ -> parse_error "bad trailing field %s" (sexp_to_string s)

let rec node_to_sexp (n : node) : sexp =
  match n with
  | Access d -> List [ Atom "access"; Atom d ]
  | Tasklet t ->
    List
      ([ Atom "tasklet"; Str t.t_name;
         List (List.map conn_to_sexp t.t_inputs);
         List (List.map conn_to_sexp t.t_outputs);
         (match t.t_code with
         | Code code -> List [ Atom "code"; Str (Tasklang.Ast.to_string code) ]
         | External { language; code } ->
           List [ Atom "external"; Str language; Str code ]) ]
      (* trailing marker keeps pre-instrumentation files parseable *)
      @ if t.t_instrument then [ Atom "instrument" ] else [])
  | Map_entry m ->
    List
      ([ Atom "map_entry";
         List (List.map (fun p -> Atom p) m.mp_params);
         List (List.map range_to_sexp m.mp_ranges);
         schedule_to_atom m.mp_schedule;
         Atom (string_of_bool m.mp_unroll) ]
      @ if m.mp_instrument then [ Atom "instrument" ] else [])
  | Map_exit -> Atom "map_exit"
  | Consume_entry c ->
    List
      ([ Atom "consume_entry"; Atom c.cs_pe_param; expr_to_sexp c.cs_num_pes;
         Atom c.cs_stream; schedule_to_atom c.cs_schedule ]
      @ if c.cs_instrument then [ Atom "instrument" ] else [])
  | Consume_exit -> Atom "consume_exit"
  | Reduce r ->
    List
      ([ Atom "reduce"; wcr_to_sexp r.r_wcr ]
      @ (match r.r_axes with
        | None -> [ Atom "_" ]
        | Some axes ->
          [ List (List.map (fun a -> Atom (string_of_int a)) axes) ])
      @
      match r.r_identity with
      | None -> []
      | Some v -> [ value_to_sexp v ])
  | Nested_sdfg nest ->
    List
      [ Atom "nested"; sdfg_to_sexp nest.n_sdfg;
        List (List.map (fun s -> Atom s) nest.n_inputs);
        List (List.map (fun s -> Atom s) nest.n_outputs);
        List
          (List.map
             (fun (s, e) -> List [ Atom s; expr_to_sexp e ])
             nest.n_symbol_map) ]

and node_of_sexp (s : sexp) : node =
  match s with
  | List [ Atom "access"; Atom d ] -> Access d
  | List (Atom "tasklet" :: Str name :: List ins :: List outs :: code :: rest)
    ->
    let t_code =
      match code with
      | List [ Atom "code"; Str src ] -> Code (Tasklang.Parse.program src)
      | List [ Atom "external"; Str language; Str code ] ->
        External { language; code }
      | s -> parse_error "bad tasklet code %s" (sexp_to_string s)
    in
    Tasklet
      { t_name = name;
        t_inputs = List.map conn_of_sexp ins;
        t_outputs = List.map conn_of_sexp outs;
        t_code;
        t_instrument = instrument_of_tail rest }
  | List
      (Atom "map_entry" :: List params :: List ranges :: sched :: Atom unroll
      :: rest) ->
    Map_entry
      { mp_params =
          List.map
            (function Atom p -> p | s -> parse_error "bad param %s" (sexp_to_string s))
            params;
        mp_ranges = List.map range_of_sexp ranges;
        mp_schedule = schedule_of_sexp sched;
        mp_unroll = bool_of_string unroll;
        mp_instrument = instrument_of_tail rest }
  | Atom "map_exit" -> Map_exit
  | List (Atom "consume_entry" :: Atom pe :: num :: Atom stream :: sched :: rest)
    ->
    Consume_entry
      { cs_pe_param = pe; cs_num_pes = expr_of_sexp num; cs_stream = stream;
        cs_schedule = schedule_of_sexp sched;
        cs_instrument = instrument_of_tail rest }
  | Atom "consume_exit" -> Consume_exit
  | List (Atom "reduce" :: wcr :: rest) ->
    let axes, identity =
      match rest with
      | [ Atom "_" ] -> (None, None)
      | [ Atom "_"; v ] -> (None, Some (value_of_sexp v))
      | [ List axes ] ->
        ( Some
            (List.map
               (function
                 | Atom a -> int_of_string a
                 | s -> parse_error "bad axis %s" (sexp_to_string s))
               axes),
          None )
      | [ List axes; v ] ->
        ( Some
            (List.map
               (function
                 | Atom a -> int_of_string a
                 | s -> parse_error "bad axis %s" (sexp_to_string s))
               axes),
          Some (value_of_sexp v) )
      | _ -> parse_error "bad reduce tail"
    in
    Reduce { r_wcr = wcr_of_sexp wcr; r_axes = axes; r_identity = identity }
  | List [ Atom "nested"; inner; List ins; List outs; List syms ] ->
    Nested_sdfg
      { n_sdfg = sdfg_of_sexp inner;
        n_inputs =
          List.map
            (function Atom a -> a | s -> parse_error "bad input %s" (sexp_to_string s))
            ins;
        n_outputs =
          List.map
            (function Atom a -> a | s -> parse_error "bad output %s" (sexp_to_string s))
            outs;
        n_symbol_map =
          List.map
            (function
              | List [ Atom s; e ] -> (s, expr_of_sexp e)
              | s -> parse_error "bad symbol map %s" (sexp_to_string s))
            syms }
  | s -> parse_error "bad node %s" (sexp_to_string s)

(* --- states and the SDFG -------------------------------------------------------------- *)

and state_to_sexp (st : state) : sexp =
  let nodes =
    State.nodes st
    |> List.map (fun (nid, n) ->
           List [ Atom (string_of_int nid); node_to_sexp n ])
  in
  let edges =
    State.edges st
    |> List.map (fun (e : edge) ->
           let conn = function None -> Atom "_" | Some c -> Str c in
           List
             [ Atom (string_of_int e.e_src); conn e.e_src_conn;
               Atom (string_of_int e.e_dst); conn e.e_dst_conn;
               (match e.e_memlet with
               | None -> Atom "_"
               | Some m -> memlet_to_sexp m) ])
  in
  let scopes =
    Hashtbl.fold
      (fun en ex acc ->
        List [ Atom (string_of_int en); Atom (string_of_int ex) ] :: acc)
      st.st_scope_exit []
  in
  List
    ([ Atom "state"; Atom (string_of_int st.st_id); Str st.st_label;
       List (Atom "nodes" :: nodes);
       List (Atom "edges" :: edges);
       List (Atom "scopes" :: scopes) ]
    @ if st.st_instrument then [ Atom "instrument" ] else [])

and state_of_sexp g (s : sexp) : int * int =
  match s with
  | List
      (Atom "state" :: Atom sid :: Str label :: List (Atom "nodes" :: nodes)
      :: List (Atom "edges" :: edges) :: List (Atom "scopes" :: scopes)
      :: rest) ->
    let st = Sdfg.add_state g ~label () in
    st.st_instrument <- instrument_of_tail rest;
    let remap = Hashtbl.create 16 in
    List.iter
      (fun ns ->
        match ns with
        | List [ Atom nid; n ] ->
          Hashtbl.replace remap (int_of_string nid)
            (State.add_node st (node_of_sexp n))
        | s -> parse_error "bad node entry %s" (sexp_to_string s))
      nodes;
    List.iter
      (fun es ->
        match es with
        | List [ Atom src; sconn; Atom dst; dconn; m ] ->
          let conn = function
            | Atom "_" -> None
            | Str c -> Some c
            | s -> parse_error "bad connector %s" (sexp_to_string s)
          in
          let memlet =
            match m with Atom "_" -> None | m -> Some (memlet_of_sexp m)
          in
          ignore
            (State.add_edge st ?src_conn:(conn sconn) ?dst_conn:(conn dconn)
               ?memlet
               ~src:(Hashtbl.find remap (int_of_string src))
               ~dst:(Hashtbl.find remap (int_of_string dst))
               ())
        | s -> parse_error "bad edge entry %s" (sexp_to_string s))
      edges;
    List.iter
      (fun sc ->
        match sc with
        | List [ Atom en; Atom ex ] ->
          State.set_scope st
            ~entry:(Hashtbl.find remap (int_of_string en))
            ~exit_:(Hashtbl.find remap (int_of_string ex))
        | s -> parse_error "bad scope entry %s" (sexp_to_string s))
      scopes;
    (int_of_string sid, State.id st)
  | s -> parse_error "bad state %s" (sexp_to_string s)

and sdfg_to_sexp (g : sdfg) : sexp =
  let descs =
    Sdfg.descs g
    |> List.map (fun (name, d) ->
           match d with
           | Array a ->
             List
               [ Atom "array"; Atom name;
                 List (List.map expr_to_sexp a.a_shape);
                 dtype_to_atom a.a_dtype;
                 Atom (string_of_bool a.a_transient);
                 storage_to_atom a.a_storage ]
           | Stream s ->
             List
               [ Atom "stream"; Atom name;
                 List (List.map expr_to_sexp s.s_shape);
                 dtype_to_atom s.s_dtype; expr_to_sexp s.s_buffer;
                 Atom (string_of_bool s.s_transient);
                 storage_to_atom s.s_storage ])
  in
  let transitions =
    Sdfg.transitions g
    |> List.map (fun (t : istate_edge) ->
           List
             [ Atom (string_of_int t.is_src); Atom (string_of_int t.is_dst);
               bexp_to_sexp t.is_cond;
               List
                 (List.map
                    (fun (s, e) -> List [ Atom s; expr_to_sexp e ])
                    t.is_assign) ])
  in
  List
    [ Atom "sdfg"; Str (Sdfg.name g);
      List (Atom "symbols" :: List.map (fun s -> Atom s) (Sdfg.symbols g));
      List (Atom "containers" :: descs);
      List (Atom "states" :: List.map state_to_sexp (Sdfg.states g));
      List (Atom "transitions" :: transitions);
      List [ Atom "start"; Atom (string_of_int (State.id (Sdfg.start_state g))) ] ]

and sdfg_of_sexp (s : sexp) : sdfg =
  match s with
  | List
      [ Atom "sdfg"; Str name; List (Atom "symbols" :: syms);
        List (Atom "containers" :: descs);
        List (Atom "states" :: states);
        List (Atom "transitions" :: transitions);
        List [ Atom "start"; Atom start ] ] ->
    let g =
      Sdfg.create
        ~symbols:
          (List.map
             (function
               | Atom a -> a
               | s -> parse_error "bad symbol %s" (sexp_to_string s))
             syms)
        name
    in
    List.iter
      (fun d ->
        match d with
        | List
            [ Atom "array"; Atom dn; List shape; dt; Atom transient; storage ]
          ->
          Sdfg.add_desc g dn
            (Array
               { a_shape = List.map expr_of_sexp shape;
                 a_dtype = dtype_of_sexp dt;
                 a_transient = bool_of_string transient;
                 a_storage = storage_of_sexp storage })
        | List
            [ Atom "stream"; Atom dn; List shape; dt; buffer; Atom transient;
              storage ] ->
          Sdfg.add_desc g dn
            (Stream
               { s_shape = List.map expr_of_sexp shape;
                 s_dtype = dtype_of_sexp dt;
                 s_buffer = expr_of_sexp buffer;
                 s_transient = bool_of_string transient;
                 s_storage = storage_of_sexp storage })
        | s -> parse_error "bad container %s" (sexp_to_string s))
      descs;
    (* state ids may have gaps after transformations; remap them *)
    let smap = List.map (state_of_sexp g) states in
    let rid old =
      match List.assoc_opt old smap with
      | Some nid -> nid
      | None -> parse_error "transition references unknown state %d" old
    in
    List.iter
      (fun t ->
        match t with
        | List [ Atom src; Atom dst; cond; List assigns ] ->
          ignore
            (Sdfg.add_transition g ~src:(rid (int_of_string src))
               ~dst:(rid (int_of_string dst)) ~cond:(bexp_of_sexp cond)
               ~assign:
                 (List.map
                    (function
                      | List [ Atom s; e ] -> (s, expr_of_sexp e)
                      | s -> parse_error "bad assign %s" (sexp_to_string s))
                    assigns)
               ())
        | s -> parse_error "bad transition %s" (sexp_to_string s))
      transitions;
    Sdfg.set_start g (rid (int_of_string start));
    g
  | s -> parse_error "bad sdfg %s" (sexp_to_string s)

(* --- public API ------------------------------------------------------------------------ *)

let to_string (g : sdfg) : string = sexp_to_string (sdfg_to_sexp g)

let of_string (src : string) : sdfg = sdfg_of_sexp (parse_sexp src)

let save (g : sdfg) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let load path : sdfg =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let hash (g : sdfg) : string = Digest.to_hex (Digest.string (to_string g))

(* Register the content hash with {!Sdfg} (which cannot depend on this
   module); see [Sdfg.hash]. *)
let () = Sdfg.set_hash_impl hash
