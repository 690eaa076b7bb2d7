(* Symbolic integer expressions.

   This is the substrate that replaces SymPy in the original DaCe
   implementation (paper §2.1, "Parametric Dimensions").  Expressions are
   kept in a normal form: [Add] and [Mul] are flattened n-ary nodes with
   constants folded and like terms collected, so structural equality after
   [simplify] is a useful (sound, incomplete) semantic equality. *)

type t =
  | Int of int
  | Sym of string
  | Add of t list            (* n-ary sum, flattened, constants folded *)
  | Mul of t list            (* n-ary product, flattened *)
  | Div of t * t             (* floor division *)
  | Mod of t * t
  | Min of t * t
  | Max of t * t

exception Non_constant of t
exception Unbound_symbol of string

let zero = Int 0
let one = Int 1
let int n = Int n
let sym s = Sym s

let rec compare_t a b =
  let rank = function
    | Int _ -> 0 | Sym _ -> 1 | Add _ -> 2 | Mul _ -> 3
    | Div _ -> 4 | Mod _ -> 5 | Min _ -> 6 | Max _ -> 7
  in
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Sym x, Sym y -> String.compare x y
  | Add xs, Add ys | Mul xs, Mul ys -> List.compare compare_t xs ys
  | Div (x1, y1), Div (x2, y2)
  | Mod (x1, y1), Mod (x2, y2)
  | Min (x1, y1), Min (x2, y2)
  | Max (x1, y1), Max (x2, y2) ->
    let c = compare_t x1 x2 in
    if c <> 0 then c else compare_t y1 y2
  | _ -> Int.compare (rank a) (rank b)

let compare = compare_t
let equal a b = compare_t a b = 0

(* --- simplification ------------------------------------------------- *)

(* Split a product into (constant coefficient, sorted non-constant factors). *)
let rec coeff_of = function
  | Int n -> (n, [])
  | Mul fs ->
    List.fold_left
      (fun (c, acc) f ->
        let c', fs' = coeff_of f in
        (c * c', acc @ fs'))
      (1, []) fs
  | e -> (1, [ e ])

let mk_mul coeff factors =
  let factors = List.sort compare_t factors in
  match coeff, factors with
  | 0, _ -> Int 0
  | c, [] -> Int c
  | 1, [ f ] -> f
  | c, fs -> Mul (if c = 1 then fs else Int c :: fs)

(* Collect like terms of a flattened sum: map from factor-list key to
   accumulated integer coefficient. *)
let mk_add terms =
  let tbl = Hashtbl.create 8 in
  let const = ref 0 in
  let order = ref [] in
  List.iter
    (fun t ->
      let c, fs = coeff_of t in
      if fs = [] then const := !const + c
      else begin
        let key = List.sort compare_t fs in
        (match Hashtbl.find_opt tbl key with
        | None ->
          order := key :: !order;
          Hashtbl.add tbl key c
        | Some c0 -> Hashtbl.replace tbl key (c0 + c))
      end)
    terms;
  let terms =
    List.rev !order
    |> List.filter_map (fun key ->
           let c = Hashtbl.find tbl key in
           if c = 0 then None else Some (mk_mul c key))
  in
  let terms = List.sort compare_t terms in
  match terms, !const with
  | [], c -> Int c
  | [ t ], 0 -> t
  | ts, 0 -> Add ts
  | ts, c -> Add (Int c :: ts)

let floordiv a b =
  (* Floor division that matches the mathematical convention for negative
     operands (as in Python and the DaCe symbolic engine). *)
  if b = 0 then invalid_arg "Expr: division by zero"
  else
    let q = a / b and r = a mod b in
    if (r <> 0) && ((r < 0) <> (b < 0)) then q - 1 else q

let floormod a b =
  if b = 0 then invalid_arg "Expr: modulo by zero"
  else
    let r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then r + b else r

(* Simplification is called on every memlet/range manipulation and is
   pure, so results are memoized.  Keys are whole expression trees;
   structural equality backs up the (depth-limited) generic hash.  The
   table is reset when it grows past a bound so pathological workloads
   cannot leak memory.  One table per domain (domain-local storage):
   the serve layer parses, validates and plans graphs from concurrent
   OCaml domains, and a shared table would race. *)
let simplify_tbl_key : (t, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let simplify_tbl_max = 1 lsl 16

let rec simplify e =
  match e with
  | Int _ | Sym _ -> e
  | _ -> (
    let simplify_tbl = Domain.DLS.get simplify_tbl_key in
    match Hashtbl.find_opt simplify_tbl e with
    | Some r -> r
    | None ->
      let r = simplify_step e in
      if Hashtbl.length simplify_tbl >= simplify_tbl_max then
        Hashtbl.reset simplify_tbl;
      Hashtbl.add simplify_tbl e r;
      r)

and simplify_step e =
  match e with
  | Int _ | Sym _ -> e
  | Add ts ->
    let ts =
      List.concat_map
        (fun t -> match simplify t with Add ts' -> ts' | t' -> [ t' ])
        ts
    in
    mk_add ts
  | Mul fs ->
    let fs =
      List.concat_map
        (fun f -> match simplify f with Mul fs' -> fs' | f' -> [ f' ])
        fs
    in
    (* Distribute a product over a single sum factor so that terms like
       2*(N+1) normalize to 2N+2 and can cancel. *)
    let c, nonconst = coeff_of (Mul fs) in
    (match List.partition (function Add _ -> true | _ -> false) nonconst with
    | Add ts :: rest_sums, others ->
      let rest = rest_sums @ others in
      simplify (Add (List.map (fun t -> Mul (Int c :: t :: rest)) ts))
    | _, _ -> mk_mul c nonconst)
  | Div (a, b) -> (
    match simplify a, simplify b with
    | Int x, Int y when y <> 0 -> Int (floordiv x y)
    | a', Int 1 -> a'
    | Int 0, _ -> Int 0
    | a', b' when equal a' b' -> Int 1
    | a', b' -> (
      (* (c*x) / c = x when the constant divides the coefficient exactly. *)
      match coeff_of a', b' with
      | (c, fs), Int d when d <> 0 && c mod d = 0 -> mk_mul (c / d) fs
      | _ -> Div (a', b')))
  | Mod (a, b) -> (
    match simplify a, simplify b with
    | Int x, Int y when y <> 0 -> Int (floormod x y)
    | _, Int 1 -> Int 0
    | a', b' when equal a' b' -> Int 0
    | a', b' -> Mod (a', b'))
  | Min (a, b) -> (
    match simplify a, simplify b with
    | Int x, Int y -> Int (min x y)
    | a', b' when equal a' b' -> a'
    | a', b' -> if compare_t a' b' <= 0 then Min (a', b') else Min (b', a'))
  | Max (a, b) -> (
    match simplify a, simplify b with
    | Int x, Int y -> Int (max x y)
    | a', b' when equal a' b' -> a'
    | a', b' -> if compare_t a' b' <= 0 then Max (a', b') else Max (b', a'))

(* --- smart constructors --------------------------------------------- *)

let add a b = simplify (Add [ a; b ])
let sub a b = simplify (Add [ a; Mul [ Int (-1); b ] ])
let mul a b = simplify (Mul [ a; b ])
let neg a = simplify (Mul [ Int (-1); a ])
let div a b = simplify (Div (a, b))
let modulo a b = simplify (Mod (a, b))
let min_ a b = simplify (Min (a, b))
let max_ a b = simplify (Max (a, b))
let sum ts = simplify (Add ts)
let product fs = simplify (Mul fs)

(* Ceiling division expressed with floor division: ceil(a/b) = (a+b-1)/b
   for positive b. *)
let ceil_div a b = div (add a (sub b one)) b

(* --- queries --------------------------------------------------------- *)

let rec free_syms_acc acc = function
  | Int _ -> acc
  | Sym s -> s :: acc
  | Add xs | Mul xs -> List.fold_left free_syms_acc acc xs
  | Div (a, b) | Mod (a, b) | Min (a, b) | Max (a, b) ->
    free_syms_acc (free_syms_acc acc a) b

let free_syms e =
  List.sort_uniq String.compare (free_syms_acc [] e)

let is_constant e = free_syms_acc [] e = []

let as_int e =
  match simplify e with Int n -> Some n | _ -> None

let as_int_exn e =
  match simplify e with Int n -> n | e' -> raise (Non_constant e')

(* --- evaluation and substitution ------------------------------------ *)

let rec eval env e =
  match e with
  | Int n -> n
  | Sym s -> (
    match env s with
    | Some v -> v
    | None -> raise (Unbound_symbol s))
  | Add ts -> List.fold_left (fun acc t -> acc + eval env t) 0 ts
  | Mul fs -> List.fold_left (fun acc f -> acc * eval env f) 1 fs
  | Div (a, b) -> floordiv (eval env a) (eval env b)
  | Mod (a, b) -> floormod (eval env a) (eval env b)
  | Min (a, b) -> min (eval env a) (eval env b)
  | Max (a, b) -> max (eval env a) (eval env b)

let eval_list bindings e =
  eval (fun s -> List.assoc_opt s bindings) e

(* Compile to a closure over a flat symbol frame: [slot] resolves each
   free symbol to a frame index at compile time (raising there reports
   unbound symbols before any iteration runs), so repeated evaluation
   does no name lookups and allocates nothing. *)
let compile ~slot e =
  let rec go e =
    match e with
    | Int n -> fun _ -> n
    | Sym s ->
      let i = slot s in
      fun frame -> Array.unsafe_get frame i
    | Add ts -> (
      match List.map go ts with
      | [] -> fun _ -> 0
      | [ f ] -> f
      | [ f; g ] -> fun fr -> f fr + g fr
      | [ f; g; h ] -> fun fr -> f fr + g fr + h fr
      | fs -> fun fr -> List.fold_left (fun acc f -> acc + f fr) 0 fs)
    | Mul fs -> (
      match List.map go fs with
      | [] -> fun _ -> 1
      | [ f ] -> f
      | [ f; g ] -> fun fr -> f fr * g fr
      | [ f; g; h ] -> fun fr -> f fr * g fr * h fr
      | fs -> fun fr -> List.fold_left (fun acc f -> acc * f fr) 1 fs)
    | Div (a, b) ->
      let fa = go a and fb = go b in
      fun fr -> floordiv (fa fr) (fb fr)
    | Mod (a, b) ->
      let fa = go a and fb = go b in
      fun fr -> floormod (fa fr) (fb fr)
    | Min (a, b) ->
      let fa = go a and fb = go b in
      fun fr -> min (fa fr) (fb fr)
    | Max (a, b) ->
      let fa = go a and fb = go b in
      fun fr -> max (fa fr) (fb fr)
  in
  go (simplify e)

let rec subst_raw f e =
  match e with
  | Int _ -> e
  | Sym s -> ( match f s with Some e' -> e' | None -> e)
  | Add ts -> Add (List.map (subst_raw f) ts)
  | Mul fs -> Mul (List.map (subst_raw f) fs)
  | Div (a, b) -> Div (subst_raw f a, subst_raw f b)
  | Mod (a, b) -> Mod (subst_raw f a, subst_raw f b)
  | Min (a, b) -> Min (subst_raw f a, subst_raw f b)
  | Max (a, b) -> Max (subst_raw f a, subst_raw f b)

let subst f e = simplify (subst_raw f e)

let subst1 name value e =
  subst (fun s -> if String.equal s name then Some value else None) e

let subst_list bindings e =
  subst (fun s -> List.assoc_opt s bindings) e

let rename_syms renaming e =
  subst
    (fun s ->
      match List.assoc_opt s renaming with
      | Some s' -> Some (Sym s')
      | None -> None)
    e

(* --- printing -------------------------------------------------------- *)

(* Written straight into a buffer: the text has no break hints, so a
   formatter would only add cost. *)
let rec to_buffer b e =
  let atom e =
    match e with
    | Int n when n < 0 ->
      Buffer.add_char b '(';
      Buffer.add_string b (string_of_int n);
      Buffer.add_char b ')'
    | Int _ | Sym _ -> to_buffer b e
    | _ ->
      Buffer.add_char b '(';
      to_buffer b e;
      Buffer.add_char b ')'
  in
  let sep_list sep = function
    | [] -> ()
    | x :: xs ->
      atom x;
      List.iter
        (fun x ->
          Buffer.add_string b sep;
          atom x)
        xs
  in
  let binary op x y =
    atom x;
    Buffer.add_string b op;
    atom y
  in
  let call f x y =
    Buffer.add_string b f;
    to_buffer b x;
    Buffer.add_string b ", ";
    to_buffer b y;
    Buffer.add_char b ')'
  in
  match e with
  | Int n -> Buffer.add_string b (string_of_int n)
  | Sym s -> Buffer.add_string b s
  | Add ts -> sep_list " + " ts
  | Mul fs -> sep_list "*" fs
  | Div (x, y) -> binary "/" x y
  | Mod (x, y) -> binary "%" x y
  | Min (x, y) -> call "min(" x y
  | Max (x, y) -> call "max(" x y

let to_string = function
  | Int n -> string_of_int n
  | Sym s -> s
  | e ->
    let b = Buffer.create 32 in
    to_buffer b e;
    Buffer.contents b

let pp ppf e = Format.pp_print_string ppf (to_string e)

(* --- interval arithmetic --------------------------------------------- *)

(* A symbolic interval [lo, hi] (both inclusive).  Used by memlet
   propagation (§4.3 ❶) to compute the image of a subset expression over a
   map range. *)
type interval = { lo : t; hi : t }

let point e = { lo = e; hi = e }

let interval_add a b = { lo = add a.lo b.lo; hi = add a.hi b.hi }

let interval_mul a b =
  (* The four-products rule.  Constants fold away; for symbolic endpoints we
     conservatively keep Min/Max nodes. *)
  let p1 = mul a.lo b.lo and p2 = mul a.lo b.hi in
  let p3 = mul a.hi b.lo and p4 = mul a.hi b.hi in
  { lo = min_ (min_ p1 p2) (min_ p3 p4); hi = max_ (max_ p1 p2) (max_ p3 p4) }

let interval_div a b =
  match as_int b.lo, as_int b.hi with
  | Some blo, Some bhi when blo = bhi && blo > 0 ->
    { lo = div a.lo b.lo; hi = div a.hi b.lo }
  | _ -> interval_mul a { lo = Div (one, b.hi); hi = Div (one, b.lo) }

(* Bound [e] over the box [env]: symbols not in [env] are treated as
   opaque points (they stay symbolic in the result). *)
let rec bounds env e =
  match e with
  | Int _ -> point e
  | Sym s -> (
    match env s with Some iv -> iv | None -> point e)
  | Add ts ->
    List.fold_left
      (fun acc t -> interval_add acc (bounds env t))
      (point zero) ts
  | Mul fs ->
    List.fold_left
      (fun acc f -> interval_mul acc (bounds env f))
      (point one) fs
  | Div (a, b) -> interval_div (bounds env a) (bounds env b)
  | Mod (_, b) ->
    (* 0 <= a mod b <= b-1 for positive b; conservative. *)
    let bb = bounds env b in
    { lo = zero; hi = sub bb.hi one }
  | Min (a, b) ->
    let ia = bounds env a and ib = bounds env b in
    { lo = min_ ia.lo ib.lo; hi = min_ ia.hi ib.hi }
  | Max (a, b) ->
    let ia = bounds env a and ib = bounds env b in
    { lo = max_ ia.lo ib.lo; hi = max_ ia.hi ib.hi }
