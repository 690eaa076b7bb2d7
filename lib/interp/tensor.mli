(** Runtime tensors for the SDFG interpreter: typed row-major views over
    flat buffers, with shape, strides and an offset — so nested-SDFG
    invocations and memlet-scoped bindings alias sub-regions of a parent
    allocation without copying (paper §2.1: "memlets that are larger than
    one element are pointers"). *)

type buf = Fbuf of float array | Ibuf of int array

type t = {
  shape : int array;
  strides : int array;  (** in elements *)
  offset : int;         (** in elements *)
  buf : buf;
  dtype : Tasklang.Types.dtype;
}

exception Bounds of string

val row_major_strides : int array -> int array

val create : Tasklang.Types.dtype -> int array -> t
(** Zero-initialized dense tensor. *)

val shape : t -> int array
val dtype : t -> Tasklang.Types.dtype
val rank : t -> int
val num_elements : t -> int

val is_dense : t -> bool
(** Memory order equals logical row-major order: the elements occupy the
    single run [offset, offset + num_elements).  A dense window of a
    larger buffer qualifies.  The predicate behind the [Array.blit] fast
    path of {!copy_into}. *)

val get : t -> int list -> Tasklang.Types.value
(** @raise Bounds on rank mismatch or out-of-range indices. *)

val set : t -> int list -> Tasklang.Types.value -> unit
val get_linear : t -> int -> Tasklang.Types.value
val set_linear : t -> int -> Tasklang.Types.value -> unit
val get_scalar : t -> Tasklang.Types.value

val iter_offsets : t -> (int -> unit) -> unit
(** Walk the view's buffer offsets in logical row-major order (a rank-0
    view has one, its origin), without allocating per element. *)

val iter2_offsets : t -> t -> (int -> int -> unit) -> unit
(** [iter2_offsets a b f] walks [a]'s offsets as {!iter_offsets} does
    and, in lockstep, [b]'s in [b]'s own row-major order: the shapes may
    differ (reshape-on-copy), and [b]'s walk restarts at its origin
    after its last element.
    @raise Bounds when [a] has elements and [b] has none. *)

val fill : t -> Tasklang.Types.value -> unit
(** Set every element of the view to [v] (coerced to the buffer's
    representation).  Dense views take one [Array.fill]; strided views
    walk {!iter_offsets}. *)

val shares_buffer : t -> t -> bool
(** Whether two tensors view the same physical, non-empty allocation
    (OCaml's empty arrays are one shared atom, so two empty tensors never
    share). *)

val overlapping : t -> t -> bool
(** Whether two tensors touch intersecting offset ranges of one buffer
    (conservative: range overlap, not exact element intersection). *)

val view : t -> starts:int array -> counts:int array -> steps:int array -> t
(** A strided sub-view sharing the buffer. *)

val view_subset : t -> Symbolic.Subset.concrete_range list -> t
(** View through a concretized memlet subset. *)

val squeeze : t -> t
(** Drop unit dimensions (memlet squeezing: a [1,3] window binds to a
    rank-1 connector of 3 elements). *)

val copy_into : src:t -> dst:t -> unit
(** Element-count-preserving copy; reshape-on-copy is allowed.
    Overlap-safe: when [src] and [dst] are views of one buffer with
    overlapping element ranges, the copy behaves as if [src] were
    snapshotted first (the dense fast path relies on [Array.blit]'s
    memmove semantics; strided overlaps stage through a temporary). *)

val of_float_array : Tasklang.Types.dtype -> int array -> float array -> t
val of_int_array : Tasklang.Types.dtype -> int array -> int array -> t
val init :
  Tasklang.Types.dtype -> int array -> (int list -> Tasklang.Types.value) -> t

val to_float_list : t -> float list
(** All elements in row-major logical order. *)

val equal : ?eps:float -> t -> t -> bool

val approx_equal : ?rtol:float -> ?atol:float -> t -> t -> bool
(** [approx_equal a b] holds when shapes and dtypes match and every
    element satisfies [|a - b| <= atol + rtol * |b|] (NaN equals NaN).
    The tolerance for oracles over float WCR reductions, where combining
    order may legally differ between graphs; exact {!equal} with
    [eps = 0.0] stays the default everywhere else.  Defaults:
    [rtol = 1e-9], [atol = 1e-12]. *)
