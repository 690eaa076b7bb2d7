(* All type definitions of the SDFG intermediate representation.

   An SDFG is "a directed graph of directed acyclic multigraphs" (paper §3
   and Appendix A.1): the outer graph is a state machine whose vertices are
   states; each state is an acyclic dataflow multigraph whose nodes are
   containers, computation, or parametric scopes, and whose edges carry
   memlets.  Because nested SDFGs (the Invoke node, §3.4) embed a whole
   SDFG inside a state, the types are mutually recursive and therefore all
   live in this single module; operations live in the surrounding modules
   ({!State}, {!Sdfg}, {!Validate}, {!Propagate}, ...). *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset

type dtype = Tasklang.Types.dtype

(* Storage location of a container (node property, §3.1: "containers are
   tied to a specific storage location ... which may be on a GPU"). *)
type storage =
  | Default        (* decided by the enclosing schedule at codegen time *)
  | Register
  | Cpu_heap
  | Cpu_stack
  | Gpu_global
  | Gpu_shared
  | Fpga_global    (* off-chip DRAM banks *)
  | Fpga_local     (* on-chip BRAM/URAM *)

(* Schedule of a scope: how a Map/Consume translates to code (§3.3). *)
type schedule =
  | Sequential       (* plain loop *)
  | Cpu_multicore    (* OpenMP parallel for *)
  | Gpu_device       (* CUDA kernel: range -> grid *)
  | Gpu_threadblock  (* dimensions of thread blocks *)
  | Fpga_device      (* hardware module / processing element *)
  | Fpga_unrolled    (* replicated processing elements (systolic arrays) *)
  | Mpi              (* rank-parallel *)

(* Write-conflict resolution: commutative combiner applied when memlets
   may write concurrently (Table 1, "Write-Conflict Resolution"). *)
type wcr =
  | Wcr_sum
  | Wcr_prod
  | Wcr_min
  | Wcr_max
  | Wcr_custom of Tasklang.Ast.expr
    (* expression over the free variables "old" and "new" *)

(* --- data descriptors (§3.1) ----------------------------------------- *)

type array_desc = {
  a_shape : Expr.t list;      (* one symbolic extent per dimension *)
  a_dtype : dtype;
  a_transient : bool;         (* allocated only for the SDFG's duration *)
  a_storage : storage;
}

type stream_desc = {
  s_shape : Expr.t list;      (* array-of-queues shape; [] = single queue *)
  s_dtype : dtype;
  s_buffer : Expr.t;          (* capacity hint (FPGA FIFO depth) *)
  s_transient : bool;
  s_storage : storage;
}

type ddesc =
  | Array of array_desc
  | Stream of stream_desc

(* --- memlets (§3, Table 1; Appendix A.1) ------------------------------ *)

type memlet = {
  m_data : string;                  (* container the data flows through *)
  m_subset : Subset.t;              (* subset on the data side *)
  m_other : Subset.t option;        (* reindex subset on the opposite side *)
  m_wcr : wcr option;
  m_accesses : Expr.t;              (* data elements moved (perf model) *)
  m_dynamic : bool;                 (* unknown/dynamic access count *)
}

(* --- nodes (Table 1; Appendix A.1) ------------------------------------ *)

type conn = { k_name : string; k_dtype : dtype; k_rank : int }

type tasklet_code =
  | Code of Tasklang.Ast.t
  | External of { language : string; code : string }
    (* opaque target-language tasklet (paper Fig. 5); interpreted via a
       registered native implementation, emitted verbatim by codegen *)

type tasklet = {
  t_name : string;
  t_inputs : conn list;
  t_outputs : conn list;
  t_code : tasklet_code;
  t_instrument : bool;               (* time this tasklet at level Marked *)
}

type map_info = {
  mp_params : string list;           (* one identifier per dimension *)
  mp_ranges : Subset.range list;     (* same length as mp_params *)
  mp_schedule : schedule;
  mp_unroll : bool;
  mp_instrument : bool;              (* time this scope at level Marked *)
}

type consume_info = {
  cs_pe_param : string;              (* processing-element identifier *)
  cs_num_pes : Expr.t;
  cs_stream : string;                (* input stream container name *)
  cs_schedule : schedule;
  cs_instrument : bool;              (* time this scope at level Marked *)
}

type node =
  | Access of string                 (* data or stream container access *)
  | Tasklet of tasklet
  | Map_entry of map_info
  | Map_exit                         (* paired via scope edges; see State *)
  | Consume_entry of consume_info
  | Consume_exit
  | Reduce of { r_wcr : wcr; r_axes : int list option; r_identity : Tasklang.Types.value option }
  | Nested_sdfg of nested

and nested = {
  n_sdfg : sdfg;
  n_inputs : string list;            (* connector names = inner containers *)
  n_outputs : string list;
  n_symbol_map : (string * Expr.t) list;
    (* inner symbol -> outer expression (evaluated at invocation) *)
}

(* --- state dataflow multigraph ---------------------------------------- *)

and edge = {
  e_id : int;
  e_src : int;
  e_src_conn : string option;
  e_dst : int;
  e_dst_conn : string option;
  mutable e_memlet : memlet option;  (* None = pure ordering dependency *)
}

and state = {
  st_id : int;
  mutable st_label : string;
  st_nodes : (int, node) Hashtbl.t;
  st_edges : (int, edge) Hashtbl.t;
  mutable st_next_node : int;
  mutable st_next_edge : int;
  (* exit-node id for each entry-node id (Map/Consume scope pairing) *)
  st_scope_exit : (int, int) Hashtbl.t;
  (* structural version, bumped on every node/edge/scope mutation;
     derived-structure caches (topological order, scope tables) are tagged
     with the version they were computed at *)
  mutable st_version : int;
  mutable st_cache : state_cache option;
  (* adjacency of the current structural version, built on first query
     and dropped with the cache; never shared between states, because it
     holds this state's own edge records *)
  mutable st_index : state_index option;
  (* time this state at instrumentation level Marked *)
  mutable st_instrument : bool;
  (* content stamp, taken from one global counter whenever anything in
     the state changes and kept by a same-id clone: two states with equal
     stamps have equal content.  Memos of per-state results key on it;
     [st_version] stays the structural version, because a memlet write
     moves the stamp but leaves the adjacency index valid *)
  mutable st_stamp : int;
  (* the stamp at which propagation last rewrote this state's outer
     memlets; [-1] = never *)
  mutable st_propagated : int;
}

and state_cache = {
  c_version : int;
  c_topo : int list;
  c_parents : (int, int option) Hashtbl.t;
  c_scope_nodes : (int, int list) Hashtbl.t;  (* entry -> strict members *)
}

and state_index = {
  x_nodes : (int * node) list;   (* ascending node id *)
  x_edges : edge list;           (* ascending edge id *)
  x_in : edge list array;        (* by node id, ascending edge id *)
  x_out : edge list array;
}

(* --- inter-state edges (state machine, §3.4) -------------------------- *)

and cmpop = Ceq | Cne | Clt | Cle | Cgt | Cge

and bexp =
  | Btrue
  | Bfalse
  | Bnot of bexp
  | Band of bexp * bexp
  | Bor of bexp * bexp
  | Bcmp of cmpop * Expr.t * Expr.t

and istate_edge = {
  is_src : int;
  is_dst : int;
  is_cond : bexp;
  is_assign : (string * Expr.t) list;  (* symbol := expression *)
}

(* --- the SDFG ---------------------------------------------------------- *)

and sdfg = {
  g_name : string;
  mutable g_descs : (string * ddesc) list;   (* insertion-ordered *)
  g_states : (int, state) Hashtbl.t;
  mutable g_istate_edges : istate_edge list;
  mutable g_start : int;
  mutable g_next_state : int;
  mutable g_symbols : string list;           (* declared free symbols *)
}

(* --- small helpers shared by the operation modules -------------------- *)

let storage_name = function
  | Default -> "Default"
  | Register -> "Register"
  | Cpu_heap -> "CPU_Heap"
  | Cpu_stack -> "CPU_Stack"
  | Gpu_global -> "GPU_Global"
  | Gpu_shared -> "GPU_Shared"
  | Fpga_global -> "FPGA_Global"
  | Fpga_local -> "FPGA_Local"

let schedule_name = function
  | Sequential -> "Sequential"
  | Cpu_multicore -> "CPU_Multicore"
  | Gpu_device -> "GPU_Device"
  | Gpu_threadblock -> "GPU_ThreadBlock"
  | Fpga_device -> "FPGA_Device"
  | Fpga_unrolled -> "FPGA_Unrolled"
  | Mpi -> "MPI"

let ddesc_dtype = function
  | Array a -> a.a_dtype
  | Stream s -> s.s_dtype

let ddesc_shape = function
  | Array a -> a.a_shape
  | Stream s -> s.s_shape

let ddesc_transient = function
  | Array a -> a.a_transient
  | Stream s -> s.s_transient

let ddesc_storage = function
  | Array a -> a.a_storage
  | Stream s -> s.s_storage

let ddesc_is_stream = function Array _ -> false | Stream _ -> true

let ddesc_rank d = List.length (ddesc_shape d)

let with_storage storage = function
  | Array a -> Array { a with a_storage = storage }
  | Stream s -> Stream { s with s_storage = storage }

let with_transient transient = function
  | Array a -> Array { a with a_transient = transient }
  | Stream s -> Stream { s with s_transient = transient }

exception Invalid_sdfg of string

let invalid fmt = Fmt.kstr (fun s -> raise (Invalid_sdfg s)) fmt
