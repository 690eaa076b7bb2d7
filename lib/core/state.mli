(** Operations on SDFG states — the acyclic dataflow multigraphs whose
    nodes are containers, computation and scopes, and whose edges carry
    memlets (paper §3 and Appendix A.1).

    States are mutable: transformations are "find and replace" operations
    that edit them in place (§4.1).  Node and edge identifiers are dense
    integers that are never reused.

    Node and edge queries answer from an adjacency index built on first
    use: the id-sorted node and edge lists and, per node, its in- and
    out-edges in ascending edge id.  Every structural mutation drops it,
    and a clone builds its own, since the index holds the state's own
    edge records.

    Every state carries a content stamp, taken from one process-wide
    counter.  {!create}, every node, edge and scope mutation,
    {!set_label} and {!set_memlet} take a fresh one.  Only the
    instrumentation flag changes without one: it marks a state for
    timing, and no derived result reads it.  A {!clone} keeps the stamp when it keeps the id and
    the state holds no nested SDFG, and takes a fresh one otherwise: a
    clone under another id prints differently, and the stamp does not
    see edits inside a nested graph.  Two states with equal stamps
    therefore have equal content, which is what lets propagation, the
    Graphviz signature and the cost model reuse a per-state result.  The
    stamp is not the structural version that keys the index and the
    scope tables: a memlet write moves the stamp and keeps both. *)

type t = Defs.state

val create : ?label:string -> int -> t
val id : t -> int
val label : t -> string
val set_label : t -> string -> unit

val stamp : t -> int
(** The content stamp. *)

val set_memlet : t -> Defs.edge -> Defs.memlet -> unit
(** Replace the memlet of one of this state's edges, in place. *)

(** {1 Nodes and edges} *)

val add_node : t -> Defs.node -> int
(** Insert a node, returning its fresh identifier. *)

val node : t -> int -> Defs.node
(** @raise Defs.Invalid_sdfg on an unknown identifier. *)

val has_node : t -> int -> bool

val replace_node : t -> int -> Defs.node -> unit
(** Swap a node's payload in place, keeping its identity and edges. *)

val add_edge :
  t ->
  ?src_conn:string ->
  ?dst_conn:string ->
  ?memlet:Defs.memlet ->
  src:int ->
  dst:int ->
  unit ->
  Defs.edge
(** Connect two nodes.  Scope nodes use the [IN_<name>]/[OUT_<name>]
    connector convention; an edge without a memlet is a pure ordering
    dependency. *)

val edge : t -> int -> Defs.edge
val remove_edge : t -> int -> unit

val remove_node : t -> int -> unit
(** Also removes all incident edges and any scope registration. *)

val nodes : t -> (int * Defs.node) list
(** All nodes, sorted by identifier. *)

val node_ids : t -> int list
val edges : t -> Defs.edge list
val num_nodes : t -> int
val num_edges : t -> int
val in_edges : t -> int -> Defs.edge list
val out_edges : t -> int -> Defs.edge list
val in_degree : t -> int -> int
val out_degree : t -> int -> int
val predecessors : t -> int -> int list
val successors : t -> int -> int list

(** {1 Scopes (Map/Consume pairing, §3.3)} *)

val set_scope : t -> entry:int -> exit_:int -> unit
(** Register the exit node paired with a scope entry. *)

val exit_of : t -> int -> int
val entry_of : t -> int -> int
val is_scope_entry : t -> int -> bool
val is_scope_exit : t -> int -> bool

val scope_parents : t -> (int, int option) Hashtbl.t
(** For every node, its innermost enclosing scope-entry node ([None] at
    the state's top level).  Well-formed scopes are dominated by their
    entry and post-dominated by their exit, so a single forward pass in
    topological order computes this.
    @raise Defs.Invalid_sdfg if the dataflow graph is cyclic. *)

val topological_order : t -> int list
(** Deterministic (lowest-id-first) topological order.
    @raise Defs.Invalid_sdfg if the graph has a cycle. *)

val scope_nodes : t -> int -> int list
(** All nodes strictly inside the scope of an entry node — the subgraph
    replicated by map expansion (Fig. 6). *)

(** {1 Memlet paths} *)

val memlet_path : t -> Defs.edge -> Defs.edge list
(** The full chain of edges a memlet traverses through scope connectors
    ([IN_x] continues from [OUT_x]), from outermost producer to innermost
    consumer. *)

(** {1 Queries} *)

val access_nodes : t -> (int * string) list
val access_nodes_of : t -> string -> (int * string) list
val tasklets : t -> (int * Defs.tasklet) list
val map_entries : t -> (int * Defs.map_info) list

val used_containers : t -> string list
(** Containers read or written anywhere in this state. *)

val connected_components : t -> int list list
(** Weakly-connected components; distinct components execute concurrently
    (§3.3) and are mapped to OpenMP sections / CUDA streams / FPGA
    command queues by the code generators. *)

(** {1 Cloning} *)

val clone_node : Defs.node -> Defs.node
(** Deep copy (nested SDFGs are copied recursively). *)

val clone : t -> ?id:int -> unit -> t
(** Copies the tables, so the clone iterates (and serializes) in the
    original's order; edge records and nested SDFGs are fresh. *)

val clone_sdfg : Defs.sdfg -> Defs.sdfg

val node_label : t -> int -> string
(** Human-readable node label, as used by the Graphviz export. *)
