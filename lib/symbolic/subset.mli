(** Symbolic rectangular subsets — the object carried by every memlet.

    A subset is a list of per-dimension ranges
    [start:stop:stride:tile] with {e inclusive} ends, exactly as in the
    paper (Table 1 and Appendix A).  All endpoints are symbolic
    {!Expr.t} values, which is what makes memlets parametric. *)

type range = {
  start : Expr.t;
  stop : Expr.t;  (** inclusive *)
  stride : Expr.t;
  tile : Expr.t;
}

type t = range list

val range : ?stride:Expr.t -> ?tile:Expr.t -> Expr.t -> Expr.t -> range
(** [range start stop] with optional stride/tile (default 1). *)

val index : Expr.t -> range
(** Single-element range [e:e]. *)

val of_indices : Expr.t list -> t
val full : Expr.t -> range
(** [full size] is the complete dimension [0 : size-1]. *)

val of_shape : Expr.t list -> t
(** Whole-array subset for an array of the given shape. *)

val dims : t -> int

val num_elements : range -> Expr.t
val volume : t -> Expr.t
(** Number of elements moved — the quantity used for performance modelling
    ("the number of data elements moved", paper §2.1). *)

val is_unit_range : range -> bool
val is_index : t -> bool

val free_syms : t -> string list
val map_exprs : (Expr.t -> Expr.t) -> t -> t
val subst : (string -> Expr.t option) -> t -> t
val subst1 : string -> Expr.t -> t -> t
val subst_list : (string * Expr.t) list -> t -> t

val equal_range : range -> range -> bool
val equal : t -> t -> bool

val union : t -> t -> t
(** Bounding-box union (sound over-approximation). *)

val union_all : t list -> t

val covers : t -> t -> bool
(** [covers a b] is [true] only when [a] provably contains [b]; an unknown
    symbolic relation yields [false]. *)

val intersects : t -> t -> bool option
(** Constant-case intersection test; [None] when symbolic. *)

val compose : t -> t -> t
(** [compose outer inner] places [inner] (relative to [outer]'s origin)
    into [outer]'s container coordinates. *)

val offset_by : t -> origin:t -> t
(** Rebase a subset relative to [origin]'s start — the "r_in - r_out"
    reindexing of the LocalStorage transformation (Fig 11b). *)

val propagate_param : param:string -> prange:range -> t -> t
(** Image of the subset as the map parameter sweeps its range
    (paper §4.3 step ❶). *)

val propagate_params : (string * range) list -> t -> t

(** {1 Concretization} *)

type concrete_range = { c_start : int; c_stop : int; c_stride : int }

val eval : (string -> int option) -> t -> concrete_range list
val eval_list : (string * int) list -> t -> concrete_range list
val concrete_size : concrete_range list -> int
val concrete_points : concrete_range list -> int list list
(** All points in row-major order; intended for small subsets (tests). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val range_to_string : range -> string
(** One range in the paper's notation: [i], [0:N], [0:N:2]. *)

val to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s text. *)
