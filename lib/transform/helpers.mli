(** Shared graph-surgery utilities for transformations.

    These are the building blocks the [*_xforms] modules compose:
    candidate-role access, scope inspection, edge rewiring, memlet
    retargeting, and symbolic extent bounding.  They raise
    {!Xform.Not_applicable} on precondition failures, so a transformation
    body can use them directly inside [x_apply]. *)

val role : Xform.candidate -> string -> int
(** Node id bound to a pattern role.
    @raise Xform.Not_applicable if the role is missing. *)

val state_of : Sdfg_ir.Sdfg.t -> Xform.candidate -> Sdfg_ir.Defs.state
(** The state the candidate's match lives in. *)

val map_info : Sdfg_ir.Defs.state -> int -> Sdfg_ir.Defs.map_info
(** The map-entry payload of a node.
    @raise Xform.Not_applicable if the node is not a map entry. *)

val set_map_info : Sdfg_ir.Defs.state -> int -> Sdfg_ir.Defs.map_info -> unit

val only_out_edge : Sdfg_ir.Defs.state -> int -> Sdfg_ir.Defs.edge
(** The unique outgoing edge of a node.
    @raise Xform.Not_applicable when the out-degree is not 1. *)

val only_in_edge : Sdfg_ir.Defs.state -> int -> Sdfg_ir.Defs.edge

val reconnect :
  Sdfg_ir.Defs.state ->
  Sdfg_ir.Defs.edge ->
  src:int ->
  src_conn:string option ->
  dst:int ->
  dst_conn:string option ->
  memlet:Sdfg_ir.Defs.memlet option ->
  Sdfg_ir.Defs.edge
(** Recreate an edge with new endpoints/connectors/memlet. *)

val occurrence_count : Sdfg_ir.Sdfg.t -> string -> int
(** Number of access nodes referring to a container across all states. *)

val retarget_memlets :
  st:Sdfg_ir.Defs.state ->
  edges:Sdfg_ir.Defs.edge list ->
  from_:string ->
  to_:string ->
  origin:Symbolic.Subset.t ->
  unit
(** Rewrite every memlet on [edges] (edges of [st]) that references
    container [from_] so that it references [to_], with subsets rebased
    by [origin] (the subset of [from_] that [to_] now holds; pass the
    whole-array subset for a pure rename). *)

val rename_scope_connectors :
  Sdfg_ir.Defs.state -> int -> from_:string -> to_:string -> unit
(** Rename the [IN_<from>]/[OUT_<from>] scope connectors on a node's
    adjacent edges. *)

val fresh_symbol : Sdfg_ir.Sdfg.t -> string -> string
(** A symbol name not colliding with existing symbols or containers. *)

val subset_extents : Symbolic.Subset.t -> Symbolic.Expr.t list
(** One symbolic extent per dimension of a subset. *)

val state_params :
  Sdfg_ir.Defs.state -> (string * Symbolic.Subset.range) list
(** All map/consume parameters of a state, with their ranges. *)

val bounded_extents :
  Sdfg_ir.Defs.state -> Symbolic.Subset.t -> Symbolic.Expr.t list
(** Parameter-free upper bounds of subset extents, used to size
    transients introduced inside scopes (tile-sized windows bound tightly
    to the tile size; other parametric ranges fall back to interval
    analysis over the parameter ranges).
    @raise Xform.Not_applicable when an extent cannot be bounded. *)

val insert_state_before :
  Sdfg_ir.Sdfg.t -> sid:int -> label:string -> Sdfg_ir.Defs.state
(** Insert a fresh state before state [sid]: transitions into [sid] are
    redirected to it and it transitions unconditionally to [sid].  If
    [sid] was the start state, the fresh state becomes the start. *)

val downstream_path_edges :
  Sdfg_ir.Defs.state -> int -> string -> Sdfg_ir.Defs.edge list
(** All edges on the memlet paths downstream of scope-entry connector
    base [x]: the [OUT_x] edges of the entry and, transitively, edges
    reached through further scope nodes. *)

val add_init_map :
  Sdfg_ir.Sdfg.t ->
  Sdfg_ir.Defs.state ->
  data:string ->
  value:Tasklang.Types.value ->
  unit
(** Build a map-identity tasklet writing [value] to every element of
    [data]; used by transformations that must initialize a container
    with a reduction identity. *)
