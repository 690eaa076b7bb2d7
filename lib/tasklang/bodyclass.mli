(** Body classification of tasklet ASTs for the bulk-kernel recognizer:
    reduces a body to an ordered list of stores — straight-line scalar
    assignments with their locals substituted away, or a single gather
    ([out = f(c\[e, ...\])]) or scatter ([out\[e, ...\] = expr]) — and
    extracts the pieces the kernel compiler consumes.  Rejections carry
    the reason code reported in plan coverage. *)

type t = {
  b_stores : (string * Ast.expr) list;
      (** [(connector, value)] in statement order, each value with every
          local substituted (uncoerced); one store for a gather or
          scatter *)
  b_write : Ast.expr list option;
      (** [Some subs]: the single store writes [out\[subs\]] (a scatter) *)
  b_reads : string list;
      (** distinct names read whole, in first-use order (the values, then
          any write subscripts) *)
  b_windows : string list;
      (** distinct connectors read through subscripts, [c\[e, ...\]], in
          first-use order (gathers) *)
}

val max_nodes : int
(** Node budget of a straight-line body's inlined store values. *)

val classify : bound:(string -> bool) -> Ast.t -> (t, string) result
(** [classify ~bound code] is [Ok] when [code] is one assignment to a
    connector that does not read that connector, or several scalar
    assignments [x = e].  In the latter, [bound x] says that the engines
    resolve [x] (a connector, parameter or symbol): an assignment to it
    is a store, and any other assigned name is a local.  Reason codes on
    rejection: ["empty-body"], ["control-flow"] (a lone [if] / [for]),
    ["multi-stmt"] (several statements with control flow, a subscript,
    or inlined values over {!max_nodes}), ["reads-output"] (a scalar
    body reading a store's connector), ["out-mismatch"] (a local whose
    value is never read), ["indexed-read"] / ["indexed-write"] (a
    subscripted body reading its output). *)

val subscript_code : t -> string option
(** The reason code of a subscripted body when the recognizer refuses it
    downstream: ["indexed-write"] for a scatter, ["indexed-read"] for a
    gather; [None] for a scalar body. *)
