(** Compiled execution engine: plan once, run many.

    Lowers each state of an SDFG once into a plan of OCaml closures —
    native loop nests for map scopes over a flat [int array] symbol
    frame, closure-compiled tasklet bodies ({!Tasklang.Compile}) with
    connectors resolved to strided offset arithmetic, and range/subset
    endpoints compiled by {!Symbolic.Expr.compile}.  Top-level consume
    scopes over single-queue streams run the reference's pop-until-empty
    loop around a body compiled once.  Constructs the plan does not
    compile (multi-queue streams, nested or partly uncompilable consume
    scopes, nested SDFGs, external tasklets, reductions, copies,
    data-dependent symbols) fall back to the reference executors of
    {!Exec} node by node, so results and instrumentation counters are
    bit-identical to the reference engine.

    Selected via [Exec.run ~engine:`Compiled]; this module registers
    itself with {!Exec} at load time. *)

val exec_state : Exec.env -> Sdfg_ir.Defs.state -> unit
(** Execute a state under the compiled engine, preparing (or reusing)
    its cached plan from [env.plans]. *)

val compiled : Exec.engine
(** [`Compiled].  Referencing this constant also guarantees the module
    is linked and the engine registered. *)

val reference : Exec.engine
(** [`Reference]. *)
