(** Bulk kernels for map bodies — Engine v2 of the compiled engine.

    {!Plan.comp_map} lowers a map scope to a closure nest whose innermost
    level re-resolves every memlet through compiled subset views, one
    tasklet execution at a time.  For the (very common) map whose body is
    straight-line assignments with affine single-element subscripts over
    array containers — locals substituted away, one store per output —
    or a single assignment reading or writing through launch-constant
    windows with data-dependent subscripts, that per-iteration machinery
    computes an affine function of the loop counters, so the whole scope
    can run as flat loops over the raw buffers instead.

    [recognize] performs that classification at plan time and returns a
    kernel whose launch entry:

    - evaluates each operand's base offset and per-dimension element
      strides from the compiled affine subscripts (once per launch);
    - bounds-checks the {e whole} iteration box against each operand's
      extents (affine subscripts attain their extrema at corners), each
      window once as {!View.refresh} does, and — for gather and scatter
      bodies — every subscript over the whole box in a pre-pass, inner
      subscripts first; this justifies unchecked buffer accesses in the
      loops;
    - bumps the instrumentation counters in bulk (per iteration: one
      element per scalar input, one or — for a non-dynamic memlet — the
      window's volume per windowed input, one per output, one WCR write
      per output under WCR);
    - dispatches a shape-specialized loop (fill / copy / WCR-sum
      contraction [x * y] or [(c * x) * y] for a float literal [c], four
      output cells per reduction sweep when the reduction is innermost,
      the output moves along the next dimension out, one factor does not
      and no input shares the output's buffer) or the row evaluator: the
      body compiled once into unboxed rows of up to {!block} innermost
      iterations, one call per computed node, each block's value rows
      filled in full — unit-stride float operands in place, from their
      buffers — before the outputs are stored in statement order and,
      within each, in iteration order, by pointer bump along an affine
      output; a plain float store computes its top [+ - * /] in the store
      loop ([expr], [gather], [scatter]).

    Anything the launch cannot prove safe — a bounds violation anywhere
    in the box — defers to the [slow] closure (the ordinary nest), which
    reproduces the reference engine's error at the exact iteration with
    the exact partial counters.  Recognition failures return the reason
    code surfaced in plan coverage ({!Obs.Report}). *)

type t = {
  k_name : string;
    (** kernel kind, tallied in plan coverage: ["fill"], ["copy"],
        ["contract"], ["expr"], ["gather"], ["scatter"] *)
  k_run :
    frame:int array ->
    bounds:int array ->
    lo:int ->
    hi:int ->
    step:int ->
    slow:(unit -> unit) ->
    unit;
    (** Launch over the evaluated bounds scratch of {!Plan.comp_map}
        ([bounds.(3d) / (3d+1) / (3d+2)] = lo/hi/step of dimension [d]);
        [lo]/[hi]/[step] override dimension 0, so a parallel chunk runs
        its slice by passing the chunk's endpoints.  [slow] must execute
        the same slice through the closure nest — it is called instead
        of the kernel when a launch-time check fails. *)
}

val block : int
(** Innermost iterations per row of the row evaluator, 64 (a constant):
    a 62-wide stencil row is one block.  A one-output body reading a
    buffer its output shares keeps full blocks when, at launch, every
    such input has the output's base offset and element strides and the
    output's innermost stride is non-zero: each iteration then reads
    only the element it writes, which no other iteration of the block
    touches.  Any other shared buffer runs with blocks of one iteration,
    keeping the closure nest's read-write interleaving.  A body with
    several outputs does not lower when any buffer is shared.  A pass
    that owns no row — each store a plain float store of a float
    operand, or of a [+ - * /] of two — runs the whole innermost row as
    one block when every operand is read in place (innermost element
    stride 1). *)

val recognize :
  env:Reference.env ->
  st:Sdfg_ir.Defs.state ->
  entry:int ->
  info:Sdfg_ir.Defs.map_info ->
  comp:(Symbolic.Expr.t -> (int array -> int) option) ->
  (t, string) result
(** Classify the map scope rooted at node [entry] of state [st].  [comp]
    compiles a {e parameter-free} symbolic expression against the
    enclosing scope's frame ([None] when it mentions data-dependent or
    unbound names).  [Error reason] carries the closure-path reason code:
    ["no-dims"], ["body-shape"], ["external"], ["instrumented"],
    ["empty-body"], ["multi-stmt"], ["control-flow"], ["indexed-write"],
    ["indexed-read"], ["reads-output"], ["dup-conn"], ["out-mismatch"],
    ["connector-rank"], ["stream"], ["container"], ["rank"],
    ["non-affine"], ["non-affine-indirect"], ["symbols"], ["shadowed"],
    ["wcr"], ["aliased"], ["body-expr"].

    A straight-line body lowers when its stores assign every connected
    output exactly once; otherwise — an output assigned twice, an
    assignment to an input connector or a symbol, a local never read —
    it reports ["out-mismatch"].  ["multi-stmt"] marks several statements
    with control flow or subscripts, or inlined values over
    {!Tasklang.Bodyclass.max_nodes}; ["reads-output"] a body reading a
    connector it stores; ["aliased"] a body with several outputs where
    an input shares an output's buffer or two outputs share one.

    A gather ([out = f(c\[e, ...\])]) or scatter ([out\[e, ...\] = f(...)])
    body lowers when every subscripted connector binds a window whose
    ranges do not mention the map's own parameters, every other
    connector is an affine scalar, and no input shares the output's
    buffer.  A subscripted body refused for any reason reports the code
    of its shape instead: ["indexed-read"] / ["indexed-write"], refined
    to ["non-affine-indirect"] when a subscript depends on a value {e
    derived from an input connector} (taint-tracked through local
    assignments and For bounds — spmv's [xin\[cols\[j\]\]], histogram's
    computed bin, cfd-naive's fused element loop).  So
    ["non-affine-indirect"] marks data-dependent subscripts the kernels
    cannot run: bodies with control flow, locals or several statements,
    windows that move with the map's parameters, and aliased bodies. *)
