(** Compiled memlet views: a tensor seen through a memlet subset whose
    endpoints are compiled over a flat symbol frame, mirroring
    [Tensor.view_subset] followed by [Tensor.squeeze] when the connector
    rank is below the subset rank — bounds checks and messages
    included.  The closure path refreshes a view per tasklet execution;
    the bulk kernels refresh a parameter-free one once per launch. *)

type range
(** One compiled subset dimension (tile expanded, stride clamped to
    [>= 1], as [Subset.eval_range]). *)

type t = private {
  v_tens : Tensor.t;           (** the full container *)
  v_dims : range array;
  v_squeeze : bool;
  mutable v_base : int;        (** linear offset of the view origin *)
  mutable v_rank : int;        (** post-squeeze rank *)
  v_ext : int array;           (** post-squeeze extents *)
  v_str : int array;           (** post-squeeze element strides *)
  mutable v_vol : int;         (** pre-squeeze element count *)
}

val make :
  comp:(Symbolic.Expr.t -> int array -> int) ->
  Tensor.t ->
  int ->
  Symbolic.Subset.t ->
  t
(** [make ~comp tens k_rank subset] compiles the subset's endpoints with
    [comp]; [k_rank] is the connector's rank.  The view is unusable until
    {!refresh}ed. *)

val refresh : t -> int array -> unit
(** Evaluate the view against a frame.
    @raise Tensor.Bounds exactly where [Tensor.view_subset] would. *)

val lin_get : Tensor.t -> int -> Tasklang.Types.value

val get : t -> int array -> Tasklang.Types.value
(** Read through the refreshed view; an empty index reads its origin.
    @raise Tensor.Bounds with [Tensor.get]'s messages. *)

val set :
  Obs.Report.counters ->
  t ->
  Sdfg_ir.Defs.wcr option ->
  int array ->
  Tasklang.Types.value ->
  unit
(** Write through the refreshed view, resolving conflicts with the WCR:
    counts one element moved and, under WCR, one conflict resolution
    before the bounds check, as the reference does.  An empty index
    writes the view origin after checking that no extent is empty. *)
