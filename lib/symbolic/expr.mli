(** Symbolic integer expressions — the SymPy substitute used throughout the
    SDFG implementation for parametric array sizes, map ranges and memlet
    subsets (paper §2.1, "Parametric Dimensions").

    Expressions built through the smart constructors are kept simplified:
    sums and products are flattened, constants folded, and like terms
    collected, so [equal] is a sound (though incomplete) semantic-equality
    check. *)

type t =
  | Int of int
  | Sym of string
  | Add of t list
  | Mul of t list
  | Div of t * t  (** floor division *)
  | Mod of t * t
  | Min of t * t
  | Max of t * t

exception Non_constant of t
exception Unbound_symbol of string

val zero : t
val one : t

val int : int -> t
(** [int n] is the constant [n]. *)

val sym : string -> t
(** [sym s] is the free symbol [s]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t

val div : t -> t -> t
(** Floor division (Python semantics for negative operands). *)

val modulo : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

val sum : t list -> t
val product : t list -> t

val ceil_div : t -> t -> t
(** [ceil_div a b] is [(a + b - 1) / b]; exact for positive [b]. *)

val simplify : t -> t
(** Normalize an expression built with raw constructors. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val free_syms : t -> string list
(** Sorted, deduplicated free symbols. *)

val is_constant : t -> bool

val as_int : t -> int option
(** [as_int e] is [Some n] iff [e] simplifies to the constant [n]. *)

val as_int_exn : t -> int
(** @raise Non_constant if the expression is not constant. *)

val eval : (string -> int option) -> t -> int
(** Evaluate under a symbol environment.
    @raise Unbound_symbol on a free symbol missing from the environment. *)

val eval_list : (string * int) list -> t -> int

val compile : slot:(string -> int) -> t -> int array -> int
(** [compile ~slot e] lowers [e] to a closure over a flat symbol frame:
    each free symbol is resolved to a frame index by [slot] once, at
    compile time, so repeated evaluations perform no name lookups and no
    allocation.  [slot] may raise (e.g. {!Unbound_symbol}) to reject free
    symbols eagerly. *)

val subst : (string -> t option) -> t -> t
(** Capture-avoiding substitution followed by simplification. *)

val subst1 : string -> t -> t -> t
(** [subst1 x v e] replaces symbol [x] by [v] in [e]. *)

val subst_list : (string * t) list -> t -> t
val rename_syms : (string * string) list -> t -> t

val floordiv : int -> int -> int
val floormod : int -> int -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s text. *)

(** {1 Interval arithmetic}

    Symbolic intervals are the engine behind memlet propagation
    (paper §4.3 step ❶): the image of an affine access expression over a
    map range is bounded by interval evaluation. *)

type interval = { lo : t; hi : t }  (** Both endpoints inclusive. *)

val point : t -> interval

val bounds : (string -> interval option) -> t -> interval
(** [bounds env e] bounds [e] over the box [env]; symbols not bound in
    [env] are treated as opaque and remain symbolic in the result. *)
