(* Body classification of tasklet ASTs for the bulk-kernel recognizer
   (Engine v2).

   A map body is kernelizable when its tasklet reduces to an ordered
   list of stores [(output, value)].  Three shapes qualify:
   - scalar: straight-line assignments [x = expr], reading whole
     connectors, parameters, symbols and earlier locals only;
   - gather: one assignment [out = expr] where [expr] also reads input
     connectors through subscripts, [c[e, ...]];
   - scatter: one assignment [out[e, ...] = expr], writing through a
     subscript.
   A name the engines resolve (a connector, parameter or symbol: the
   caller's [bound]) is never a local, so an assignment to it is a store.
   Any other assigned name is a local: each read of it is replaced by its
   current value, uncoerced as both engines hold it, and a local read
   twice is duplicated, which is exact because row values are pure.
   This module performs that *shape* check; the kernel compiler in
   [lib/interp] layers type- and binding-dependent checks (stores
   against the connected outputs, dtype mixing, sign-dependent integer
   [Pow], connector ranks, windows) on top, because those need the
   memlet bindings the AST alone does not carry.

   Rejections return the reason code surfaced in plan coverage, so a
   profile can say *why* a map stayed on the closure path. *)

type t = {
  b_stores : (string * Ast.expr) list;
  b_write : Ast.expr list option;
  b_reads : string list;
  b_windows : string list;
}

(* Distinct names read whole ([Var]) and read through a subscript
   ([Index]), each in first-use order. *)
let names (es : Ast.expr list) =
  let reads = ref [] and windows = ref [] in
  let note acc x = if not (List.mem x !acc) then acc := x :: !acc in
  let rec walk = function
    | Ast.Float_lit _ | Ast.Int_lit _ | Ast.Bool_lit _ -> ()
    | Ast.Var x -> note reads x
    | Ast.Index (x, subs) ->
      note windows x;
      List.iter walk subs
    | Ast.Unop (_, a) -> walk a
    | Ast.Binop (_, a, b) ->
      walk a;
      walk b
    | Ast.Cond (c, a, b) ->
      walk c;
      walk a;
      walk b
  in
  List.iter walk es;
  (List.rev !reads, List.rev !windows)

let subscript_code b =
  match b.b_write, b.b_windows with
  | Some _, _ -> Some "indexed-write"
  | None, _ :: _ -> Some "indexed-read"
  | None, [] -> None

let make stores write =
  let reads, windows =
    names (List.map snd stores @ Option.value write ~default:[])
  in
  { b_stores = stores; b_write = write; b_reads = reads; b_windows = windows }

(* Node budget of an inlined value: substitution copies a local's tree
   into every read of it. *)
let max_nodes = 128

exception Refuse of string

(* Several assignments [x = e]: substitute each local's current value into
   the reads after it, in statement order.  A local must be read before
   it is redefined or the body ends — an unread value would be a store to
   an unconnected name, and its evaluation could raise. *)
let straight_line ~bound assigns =
  let locals = Hashtbl.create 8 in
  (* [e] with locals substituted, and its node count *)
  let rec subst (e : Ast.expr) =
    match e with
    | Ast.Var x -> (
      match Hashtbl.find_opt locals x with
      | Some (v, n, used) ->
        used := true;
        (v, n)
      | None -> (e, 1))
    | Ast.Unop (op, a) ->
      let a, n = subst a in
      (Ast.Unop (op, a), n + 1)
    | Ast.Binop (op, a, b) ->
      let (a, na), (b, nb) = (subst a, subst b) in
      (Ast.Binop (op, a, b), na + nb + 1)
    | Ast.Cond (c, a, b) ->
      let (c, nc), (a, na), (b, nb) = (subst c, subst a, subst b) in
      (Ast.Cond (c, a, b), nc + na + nb + 1)
    | Ast.Float_lit _ | Ast.Int_lit _ | Ast.Bool_lit _ | Ast.Index _ -> (e, 1)
  in
  let unread x = match Hashtbl.find_opt locals x with Some (_, _, u) -> not !u | None -> false in
  let stores =
    List.filter_map
      (fun (x, e) ->
        let v, n = subst e in
        if n > max_nodes then raise (Refuse "multi-stmt");
        if bound x then Some (x, v)
        else begin
          if unread x then raise (Refuse "out-mismatch");
          Hashtbl.replace locals x (v, n, ref false);
          None
        end)
      assigns
  in
  Hashtbl.iter (fun x _ -> if unread x then raise (Refuse "out-mismatch")) locals;
  make stores None

let classify ~bound (code : Ast.t) : (t, string) result =
  match code with
  | [] -> Error "empty-body"
  | [ Ast.If _ ] | [ Ast.For _ ] -> Error "control-flow"
  | [ Ast.Assign (lhs, e) ] ->
    let out, write =
      match lhs with
      | Ast.Lvar out -> (out, None)
      | Ast.Lindex (out, subs) -> (out, Some subs)
    in
    let b = make [ (out, e) ] write in
    (* a body reading its own output connector observes the previous
       buffer value through the write view — closure-path territory *)
    if List.mem out b.b_reads || List.mem out b.b_windows then
      Error
        (match subscript_code b with Some r -> r | None -> "reads-output")
    else Ok b
  | _ -> (
    (* several statements: scalar assignments only *)
    let assigns =
      List.filter_map
        (function Ast.Assign (Ast.Lvar x, e) -> Some (x, e) | _ -> None)
        code
    in
    let reads, windows = names (List.map snd assigns) in
    if List.compare_lengths assigns code <> 0 || windows <> [] then
      Error "multi-stmt"
    else if List.exists (fun (x, _) -> bound x && List.mem x reads) assigns
    then Error "reads-output"
    else
      match straight_line ~bound assigns with
      | b -> Ok b
      | exception Refuse r -> Error r)
