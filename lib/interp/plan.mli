(** Compiled execution engine: plan once, run many.

    Lowers each state of an SDFG once into a plan of OCaml closures —
    native loop nests for map scopes over a flat [int array] symbol
    frame, closure-compiled tasklet bodies ({!Tasklang.Compile}) with
    connectors resolved to strided offset arithmetic, and range/subset
    endpoints compiled by {!Symbolic.Expr.compile}.  Top-level consume
    scopes over single-queue streams run the reference's pop-until-empty
    loop around a body compiled once.  Access nodes that are pure wiring
    compile to nothing.  Constructs the plan does not compile
    (multi-queue streams, nested or partly uncompilable consume scopes,
    nested SDFGs, external tasklets, reductions, copies that move data,
    data-dependent symbols) fall back to {!Reference.exec_nodes} node by
    node, so results and instrumentation counters are bit-identical to
    the reference engine.

    Selected with [Exec.Config.with_engine `Compiled]: the env
    constructor installs {!exec_state} as the run's state executor. *)

val exec_state : Reference.env -> Sdfg_ir.Defs.state -> unit
(** Execute a state under the compiled engine, preparing (or reusing)
    its cached plan from [env.plans]. *)

val compile_stage :
  Reference.env ->
  Sdfg_ir.Defs.state ->
  int ->
  Sdfg_ir.Defs.consume_info ->
  (int -> Tasklang.Types.value -> unit) option
(** Compile a pipeline stage body — the batch consume loop's body
    compiler, run on the worker's private environment (its streams bound
    to the worker's channels), with the consume entry's node id and info.
    [Some f] means [f pe v] runs the body for one popped element [v],
    kernel-lowered map bodies included; [None] keeps the worker on the
    reference body loop.  Call on the main domain: planning records
    coverage into the shared collector. *)

val compiled : Reference.engine
(** [`Compiled]. *)

val reference : Reference.engine
(** [`Reference]. *)
