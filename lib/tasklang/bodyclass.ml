(* Body classification of tasklet ASTs for the bulk-kernel recognizer
   (Engine v2).

   A map body is kernelizable only when its single tasklet is one
   assignment to one connector: no control flow, no locals.  Three
   shapes qualify:
   - scalar: [out = expr], reading whole connectors, parameters and
     symbols only;
   - gather: [out = expr] where [expr] also reads input connectors
     through subscripts, [c[e, ...]];
   - scatter: [out[e, ...] = expr], writing through a subscript.
   This module performs that *shape* check; the kernel compiler in
   [lib/interp] layers type- and binding-dependent checks (dtype mixing,
   sign-dependent integer [Pow], connector ranks, windows) on top,
   because those need the memlet bindings the AST alone does not carry.

   Rejections return the reason code surfaced in plan coverage, so a
   profile can say *why* a map stayed on the closure path. *)

type t = {
  b_out : string;
  b_write : Ast.expr list option;
  b_expr : Ast.expr;
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

let classify (code : Ast.t) : (t, string) result =
  match code with
  | [] -> Error "empty-body"
  | _ :: _ :: _ -> Error "multi-stmt"
  | [ Ast.If _ ] | [ Ast.For _ ] -> Error "control-flow"
  | [ Ast.Assign (lhs, e) ] -> (
    let out, write, es =
      match lhs with
      | Ast.Lvar out -> (out, None, [ e ])
      | Ast.Lindex (out, subs) -> (out, Some subs, e :: subs)
    in
    let reads, windows = names es in
    let b =
      { b_out = out; b_write = write; b_expr = e; b_reads = reads;
        b_windows = windows }
    in
    (* a body reading its own output connector observes the previous
       buffer value through the write view — closure-path territory *)
    if List.mem out reads || List.mem out windows then
      Error
        (match subscript_code b with Some r -> r | None -> "reads-output")
    else Ok b)
