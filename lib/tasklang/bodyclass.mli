(** Body classification of tasklet ASTs for the bulk-kernel recognizer:
    detects bodies that are a single assignment to one connector ([out =
    expr] or [out\[e, ...\] = expr]) with no control flow or locals, and
    extracts the pieces the kernel compiler consumes.  Rejections carry
    the reason code reported in plan coverage. *)

type t = {
  b_out : string;                  (** the single written connector *)
  b_write : Ast.expr list option;
      (** [Some subs]: the body writes [b_out\[subs\]] (a scatter) *)
  b_expr : Ast.expr;               (** the assigned value *)
  b_reads : string list;
      (** distinct names read whole, in first-use order (the value, then
          any write subscripts) *)
  b_windows : string list;
      (** distinct connectors read through subscripts, [c\[e, ...\]], in
          first-use order (gathers) *)
}

val classify : Ast.t -> (t, string) result
(** [classify code] is [Ok] when [code] is exactly one assignment to a
    connector that does not read that connector.  Reason codes on
    rejection: ["empty-body"], ["multi-stmt"], ["control-flow"],
    ["reads-output"] (a scalar body reading its output),
    ["indexed-read"] / ["indexed-write"] (a subscripted body reading its
    output). *)

val subscript_code : t -> string option
(** The reason code of a subscripted body when the recognizer refuses it
    downstream: ["indexed-write"] for a scatter, ["indexed-read"] for a
    gather; [None] for a scalar body. *)
