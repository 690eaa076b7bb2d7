(* Bulk kernels for map bodies (Engine v2).

   The closure nest built by {!Plan.comp_map} executes one tasklet at a
   time: per iteration it refreshes every memlet's compiled subset view
   (bounds checks included), snapshots scalar inputs, runs the compiled
   body and writes through [View.set].  When the body reduces to stores
   whose scalar subscripts are affine in the map parameters, all of that
   collapses: each operand's offset is [base + dot(es, counters)] for a
   base and per-dimension element strides computable once per launch,
   and the bounds checks over the whole iteration box reduce to corner
   checks (affine functions attain extrema at box corners).  So the
   scope runs as flat loops over the raw buffers.

   Three one-store body shapes get a dedicated strided loop, each faster
   than the rows by construction: fill (a launch constant in a
   register), copy ([Array.blit] where it can) and the WCR-sum
   contraction [x * y] or [(c * x) * y] (register accumulators, four
   output rows per reduction sweep where the launch allows).  Every
   other body runs on the row evaluator: its stores
   ({!Tasklang.Bodyclass}: straight-line assignments with their locals
   substituted, one value per output) are compiled once into unboxed
   rows.  A block of up to [block] innermost iterations fills every
   value row — one call per computed node, unit-stride float operands
   read in place — then stores the outputs in statement order by pointer
   bump; a plain float store computes its top [+ - * /] inside the store
   loop, and a pass that owns no row runs the whole innermost row as one
   block.  Gather bodies ([o = f(c[e...])]) and
   scatter bodies ([o[e...] = f(...)]) run there too, as one store: a
   subscripted connector binds a window whose ranges do not move with
   the map's parameters, evaluated once per launch, and its subscripts
   come from index rows.

   Correctness strategy: results are bit-identical to the closure nest
   by construction.  The specialized loops execute the same reads and
   writes in the same order; the rows reorder only reads before writes
   within a block, which is the closure nest's order unless an input
   shares an output's buffer.  One-output [expr] then keeps full blocks
   only when every such input sits at the output's base and element
   strides and the output moves along the row — each iteration reads
   just the element it alone writes — and runs blocks of one iteration
   otherwise; gather/scatter bodies, and bodies with several outputs
   where any buffer is shared (the nest's later stores read after its
   earlier writes), stay on the closure path.  The other reorderings
   (the copy blit, the register accumulators, the contraction's four-row
   groups) are gated the same way.  Error behavior is preserved by
   deferring to the closure nest ([slow]) whenever a launch-time check
   fails — corners, windows, or the pre-pass evaluating every index row
   over the whole box: the nest then raises the reference engine's exact
   error at the exact iteration with the exact partial counters, because
   the kernel has not touched memory or counters yet.
   Runtime-type-dependent operations the static compiler cannot mirror
   (integer [Div] / [Mod] without a nonzero literal divisor, [Pow]
   without a literal exponent, mixed-type conditionals) reject
   recognition instead.

   Instrumentation counters are bumped in bulk: a launch of [T] trips
   counts [T] map iterations, [T] tasklet executions, [T] times the
   elements one iteration moves (one per scalar input and per output;
   per windowed input one if its memlet is dynamic, the window's volume
   otherwise) and [T] conflict resolutions per WCR output, exactly what
   the per-iteration path totals. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
module Ast = Tasklang.Ast
open Sdfg_ir
open Defs

type t = {
  k_name : string;
  k_run :
    frame:int array ->
    bounds:int array ->
    lo:int ->
    hi:int ->
    step:int ->
    slow:(unit -> unit) ->
    unit;
}

exception Reject of string

let reject r = raise (Reject r)

(* --- affine subscript extraction ---------------------------------------- *)

(* One tensor dimension of an operand: the subscript's constant part and
   per-map-parameter coefficients, compiled against the enclosing frame
   (map parameters substituted away).  [None] coefficient = 0. *)
type dim_plan = {
  dp_const : int array -> int;
  dp_coefs : (int array -> int) option array;
}

type arg_plan = { ap_tens : Tensor.t; ap_dims : dim_plan array }

(* Structural affinity in the map parameters: sums of terms with at most
   one parameter-dependent factor each; Div/Mod/Min/Max only over
   parameter-free subexpressions. *)
let rec affine_ok params e =
  let mentions e =
    List.exists (fun s -> List.mem s params) (Expr.free_syms e)
  in
  match e with
  | Expr.Int _ | Expr.Sym _ -> true
  | Expr.Add es -> List.for_all (affine_ok params) es
  | Expr.Mul es -> (
    match List.filter mentions es with
    | [] -> true
    | [ d ] -> affine_ok params d
    | _ :: _ :: _ -> false)
  | Expr.Div _ | Expr.Mod _ | Expr.Min _ | Expr.Max _ -> not (mentions e)

(* Exact decomposition by substitution: const = e[params := 0],
   coef_p = e[p := 1, others := 0] - const.  Sound because [affine_ok]
   restricted e to (multi-)linear form over the parameters. *)
let decompose ~params ~comp e : (int array -> int) * (int array -> int) option array =
  if not (affine_ok params e) then reject "non-affine";
  let compile e =
    match comp e with Some f -> f | None -> reject "symbols"
  in
  let zeros = List.map (fun p -> (p, Expr.zero)) params in
  let const_e = Expr.subst_list zeros e in
  let coefs =
    Array.of_list
      (List.map
         (fun p ->
           let ones =
             List.map
               (fun q -> (q, if q = p then Expr.one else Expr.zero))
               params
           in
           let ce = Expr.sub (Expr.subst_list ones e) const_e in
           if Expr.equal ce Expr.zero then None else Some (compile ce))
         params)
  in
  (compile const_e, coefs)

(* Operand plan for a memlet: every subset dimension must be a unit-tile
   single-element affine index.  Rank-0 tensors ignore their subset, as
   [View.refresh] does. *)
let affine_plan ~params ~comp (tens : Tensor.t) (sub : Subset.t) : arg_plan =
  let r = Tensor.rank tens in
  if r = 0 then { ap_tens = tens; ap_dims = [||] }
  else begin
    if Subset.dims sub <> r then reject "rank";
    let dims =
      List.map
        (fun (rg : Subset.range) ->
          if Expr.as_int rg.Subset.tile <> Some 1 then reject "non-affine";
          if not (Expr.equal rg.Subset.start rg.Subset.stop) then
            reject "non-affine";
          let dp_const, dp_coefs = decompose ~params ~comp rg.Subset.start in
          { dp_const; dp_coefs })
        sub
    in
    { ap_tens = tens; ap_dims = Array.of_list dims }
  end

(* --- row evaluator ---------------------------------------------------------- *)

(* The body compiles once into a tree of row fillers mirroring
   {!Tasklang.Eval} exactly.  Each node owns a fixed-size unboxed row (a
   float, int or bool array); its filler runs its computed children's
   fillers, then calls its own operator loop over the first [n]
   iterations of the current block — up to [block] consecutive innermost
   iterations.  A float row is a slice: iteration [k]'s value is
   [fa.(fo + k)].  A computed row owns its array at offset 0; a float
   operand whose innermost element stride is 1 points its slice at the
   operand's buffer, so the block is read in place.  Leaves (operands,
   parameters, launch constants) have no filler ([nofill]): the kernel's
   block prologue sets them, literal rows are set once here.  Every loop
   applies its operator in place: an operator passed as a closure would
   box each float it touches. *)

let block = 64

external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

type fslice = { mutable fa : float array; mutable fo : int }

type row =
  | Rf of fslice * (int -> unit)
  | Ri of int array * (int -> unit)
  | Rb of bool array * (int -> unit)

let nofill (_ : int) = ()
let own fa = { fa; fo = 0 }

(* The fillers [fs] in order as one call; leaf rows' [nofill] drop out. *)
let seq fs =
  match List.filter (fun f -> f != nofill) fs with
  | [] -> nofill
  | [ f ] -> f
  | [ f; g ] -> fun n -> f n; g n
  | fs ->
    let fs = Array.of_list fs in
    fun n -> for i = 0 to Array.length fs - 1 do fs.!(i) n done

(* Representation changes, as [Types.to_float] / [to_int] / [to_bool]. *)
let frow size = function
  | Rf (x, fx) -> (x, fx)
  | Ri (x, fx) ->
    let r = Array.make size 0. in
    (own r, seq [ fx; (fun n -> for k = 0 to n - 1 do r.!(k) <- float_of_int x.!(k) done) ])
  | Rb (x, fx) ->
    let r = Array.make size 0. in
    (own r, seq [ fx; (fun n -> for k = 0 to n - 1 do r.!(k) <- if x.!(k) then 1. else 0. done) ])

let irow size = function
  | Ri (x, fx) -> (x, fx)
  | Rf (x, fx) ->
    let r = Array.make size 0 in
    ( r,
      seq [ fx; (fun n -> let a = x.fa and o = x.fo in
                  for k = 0 to n - 1 do r.!(k) <- int_of_float a.!(o + k) done) ] )
  | Rb (x, fx) ->
    let r = Array.make size 0 in
    (r, seq [ fx; (fun n -> for k = 0 to n - 1 do r.!(k) <- if x.!(k) then 1 else 0 done) ])

let brow size = function
  | Rb (x, fx) -> (x, fx)
  | Ri (x, fx) ->
    let r = Array.make size false in
    (r, seq [ fx; (fun n -> for k = 0 to n - 1 do r.!(k) <- x.!(k) <> 0 done) ])
  | Rf (x, fx) ->
    let r = Array.make size false in
    ( r,
      seq [ fx; (fun n -> let a = x.fa and o = x.fo in
                  for k = 0 to n - 1 do r.!(k) <- a.!(o + k) <> 0. done) ] )

(* [rows ~size ~leaf ~site] is [(go, binop)]: [go ~top e] builds the row
   of [e], where [leaf x] is the row of a name read whole and [site ~top
   c subs] the row of a subscripted read [c[subs]] ([top]: not itself
   inside a subscript); [binop op b ta tb] the node of [op] over built
   operand rows, [b] the right operand's syntax.  Coercions follow
   {!Tasklang.Eval}; runtime-type-dependent operations the static
   compiler cannot mirror reject: integer [Div] / [Mod] without a
   nonzero literal divisor, [Pow] without a literal exponent, and
   conditionals whose branches differ in representation. *)
let rows ~size ~(leaf : string -> row)
    ~(site : top:bool -> string -> row list -> row) =
  let fr = frow size and br = brow size in
  (* a computed node: [build r] is its loop over its own row [r], run
     after the computed children in [deps] *)
  let mk_f deps build =
    let r = Array.make size 0. in
    Rf (own r, seq (deps @ [ build r ]))
  in
  let mk_i deps build =
    let r = Array.make size 0 in
    Ri (r, seq (deps @ [ build r ]))
  in
  let mk_b deps build =
    let r = Array.make size false in
    Rb (r, seq (deps @ [ build r ]))
  in
  (* float operands reach [loop] as each slice's array and offset for
     the current block; the node's filler calls it directly *)
  let f1 mk ta loop =
    let x, fx = fr ta in
    mk [] (fun r ->
        if fx == nofill then fun n -> loop r n x.fa x.fo
        else fun n -> fx n; loop r n x.fa x.fo)
  in
  let f2 mk ta tb loop =
    let x, fx = fr ta and y, fy = fr tb in
    mk [] (fun r ->
        let deps = seq [ fx; fy ] in
        if deps == nofill then fun n -> loop r n x.fa x.fo y.fa y.fo
        else fun n -> deps n; loop r n x.fa x.fo y.fa y.fo)
  in
  let rec go ~top (e : Ast.expr) : row =
    match e with
    | Ast.Float_lit c -> Rf (own (Array.make size c), nofill)
    | Ast.Int_lit c -> Ri (Array.make size c, nofill)
    | Ast.Bool_lit c -> Rb (Array.make size c, nofill)
    | Ast.Var x -> leaf x
    | Ast.Index (x, subs) -> site ~top x (List.map (go ~top:false) subs)
    | Ast.Unop (op, a) -> unop op (go ~top a)
    | Ast.Binop (op, a, b) -> binop op b (go ~top a) (go ~top b)
    | Ast.Cond (c, t, f) -> (
      let c, fc = br (go ~top c) in
      match go ~top t, go ~top f with
      | Rf (x, fx), Rf (y, fy) ->
        mk_f [ fc; fx; fy ] (fun r n ->
            let a = x.fa and i = x.fo and b = y.fa and j = y.fo in
            for k = 0 to n - 1 do r.!(k) <- if c.!(k) then a.!(i + k) else b.!(j + k) done)
      | Ri (x, fx), Ri (y, fy) ->
        mk_i [ fc; fx; fy ] (fun r n ->
            for k = 0 to n - 1 do r.!(k) <- if c.!(k) then x.!(k) else y.!(k) done)
      | Rb (x, fx), Rb (y, fy) ->
        mk_b [ fc; fx; fy ] (fun r n ->
            for k = 0 to n - 1 do r.!(k) <- if c.!(k) then x.!(k) else y.!(k) done)
      | _ -> reject "body-expr")
  and unop op a =
    match op, a with
    | Ast.Neg, Ri (x, fx) ->
      mk_i [ fx ] (fun r n -> for k = 0 to n - 1 do r.!(k) <- - x.!(k) done)
    | Ast.Abs, Ri (x, fx) ->
      mk_i [ fx ] (fun r n -> for k = 0 to n - 1 do r.!(k) <- abs x.!(k) done)
    | Ast.Not, _ ->
      let x, fx = br a in
      mk_b [ fx ] (fun r n -> for k = 0 to n - 1 do r.!(k) <- not x.!(k) done)
    | Ast.Floor, _ ->
      f1 mk_i a (fun r n x i ->
          for k = 0 to n - 1 do r.!(k) <- int_of_float (floor x.!(i + k)) done)
    | (Ast.Neg | Ast.Abs | Ast.Sqrt | Ast.Exp | Ast.Log | Ast.Sin | Ast.Cos), _
      -> (
      let f = f1 mk_f a in
      match op with
      | Ast.Neg -> f (fun r n x i -> for k = 0 to n - 1 do r.!(k) <- -.x.!(i + k) done)
      | Ast.Abs ->
        f (fun r n x i -> for k = 0 to n - 1 do r.!(k) <- Float.abs x.!(i + k) done)
      | Ast.Sqrt -> f (fun r n x i -> for k = 0 to n - 1 do r.!(k) <- sqrt x.!(i + k) done)
      | Ast.Exp -> f (fun r n x i -> for k = 0 to n - 1 do r.!(k) <- exp x.!(i + k) done)
      | Ast.Log -> f (fun r n x i -> for k = 0 to n - 1 do r.!(k) <- log x.!(i + k) done)
      | Ast.Sin -> f (fun r n x i -> for k = 0 to n - 1 do r.!(k) <- sin x.!(i + k) done)
      | _ -> f (fun r n x i -> for k = 0 to n - 1 do r.!(k) <- cos x.!(i + k) done))
  (* [b] is the right operand's syntax: integer division, modulo and
     power kernelize only over a literal right operand *)
  and binop op b ta tb =
    match op, ta, tb with
    | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Min | Ast.Max), Ri (x, fx), Ri (y, fy)
      -> (
      let f = mk_i [ fx; fy ] in
      match op with
      | Ast.Add -> f (fun r n -> for k = 0 to n - 1 do r.!(k) <- x.!(k) + y.!(k) done)
      | Ast.Sub -> f (fun r n -> for k = 0 to n - 1 do r.!(k) <- x.!(k) - y.!(k) done)
      | Ast.Mul -> f (fun r n -> for k = 0 to n - 1 do r.!(k) <- x.!(k) * y.!(k) done)
      | Ast.Min ->
        f (fun r n ->
            for k = 0 to n - 1 do
              r.!(k) <- (if x.!(k) <= y.!(k) then x.!(k) else y.!(k))
            done)
      | _ ->
        f (fun r n ->
            for k = 0 to n - 1 do
              r.!(k) <- (if x.!(k) >= y.!(k) then x.!(k) else y.!(k))
            done))
    | (Ast.Div | Ast.Mod | Ast.Pow), Ri (x, fx), Ri _ -> (
      match op, b with
      | Ast.Div, Ast.Int_lit d when d <> 0 ->
        (* integer floor division; the divisor's sign and zero test are
           runtime properties, so only literal divisors kernelize *)
        mk_i [ fx ] (fun r n ->
            for k = 0 to n - 1 do
              let q = x.!(k) / d and m = x.!(k) mod d in
              r.!(k) <- (if m <> 0 && m < 0 <> (d < 0) then q - 1 else q)
            done)
      | Ast.Mod, Ast.Int_lit d when d <> 0 ->
        mk_i [ fx ] (fun r n ->
            for k = 0 to n - 1 do
              let m = x.!(k) mod d in
              r.!(k) <- (if m <> 0 && m < 0 <> (d < 0) then m + d else m)
            done)
      | Ast.Pow, Ast.Int_lit e when e >= 0 ->
        mk_i [ fx ] (fun r n ->
            for k = 0 to n - 1 do
              let acc = ref 1 in
              for _ = 1 to e do acc := !acc * x.!(k) done;
              r.!(k) <- !acc
            done)
      | Ast.Pow, Ast.Int_lit e ->
        (* int^int is integral only for non-negative exponents *)
        let fe = float_of_int e in
        mk_f [ fx ] (fun r n ->
            for k = 0 to n - 1 do r.!(k) <- float_of_int x.!(k) ** fe done)
      | _ -> reject "body-expr")
    | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Pow | Ast.Min
      | Ast.Max), _, _ -> (
      let f = f2 mk_f ta tb in
      match op with
      | Ast.Add ->
        f (fun r n x i y j -> for k = 0 to n - 1 do r.!(k) <- x.!(i + k) +. y.!(j + k) done)
      | Ast.Sub ->
        f (fun r n x i y j -> for k = 0 to n - 1 do r.!(k) <- x.!(i + k) -. y.!(j + k) done)
      | Ast.Mul ->
        f (fun r n x i y j -> for k = 0 to n - 1 do r.!(k) <- x.!(i + k) *. y.!(j + k) done)
      | Ast.Div ->
        f (fun r n x i y j -> for k = 0 to n - 1 do r.!(k) <- x.!(i + k) /. y.!(j + k) done)
      | Ast.Mod ->
        f (fun r n x i y j ->
            for k = 0 to n - 1 do r.!(k) <- Float.rem x.!(i + k) y.!(j + k) done)
      | Ast.Pow ->
        f (fun r n x i y j -> for k = 0 to n - 1 do r.!(k) <- x.!(i + k) ** y.!(j + k) done)
      | Ast.Min ->
        f (fun r n x i y j ->
            for k = 0 to n - 1 do r.!(k) <- Float.min x.!(i + k) y.!(j + k) done)
      | _ ->
        f (fun r n x i y j ->
            for k = 0 to n - 1 do r.!(k) <- Float.max x.!(i + k) y.!(j + k) done))
    | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _ -> (
      let f = f2 mk_b ta tb in
      match op with
      | Ast.Lt ->
        f (fun r n x i y j -> for k = 0 to n - 1 do r.!(k) <- x.!(i + k) < y.!(j + k) done)
      | Ast.Le ->
        f (fun r n x i y j -> for k = 0 to n - 1 do r.!(k) <- x.!(i + k) <= y.!(j + k) done)
      | Ast.Gt ->
        f (fun r n x i y j -> for k = 0 to n - 1 do r.!(k) <- x.!(i + k) > y.!(j + k) done)
      | _ ->
        f (fun r n x i y j -> for k = 0 to n - 1 do r.!(k) <- x.!(i + k) >= y.!(j + k) done))
    | Ast.Ne, _, _ -> unop Ast.Not (binop Ast.Eq b ta tb)
    | Ast.Eq, Ri (x, fx), Ri (y, fy) ->
      mk_b [ fx; fy ] (fun r n ->
          for k = 0 to n - 1 do r.!(k) <- Int.equal x.!(k) y.!(k) done)
    | Ast.Eq, Rb (x, fx), Rb (y, fy) ->
      mk_b [ fx; fy ] (fun r n ->
          for k = 0 to n - 1 do r.!(k) <- Bool.equal x.!(k) y.!(k) done)
    | Ast.Eq, _, _ ->
      f2 mk_b ta tb (fun r n x i y j ->
          for k = 0 to n - 1 do r.!(k) <- Float.equal x.!(i + k) y.!(j + k) done)
    | (Ast.And | Ast.Or), _, _ ->
      (* both operands evaluate before combining, as in [apply_binop] *)
      let x, fx = br ta and y, fy = br tb in
      if op = Ast.And then
        mk_b [ fx; fy ] (fun r n ->
            for k = 0 to n - 1 do r.!(k) <- x.!(k) && y.!(k) done)
      else
        mk_b [ fx; fy ] (fun r n ->
            for k = 0 to n - 1 do r.!(k) <- x.!(k) || y.!(k) done)
  in
  (go, binop)

(* The output write of one block, applied in iteration order as
   [View.set] + [Wcr.apply] would.  [store] returns [(fill, at, bump)]:
   [fill n] fills the value row; then [at off n] writes element [k] of it
   to buffer offset [off.(k)], and [bump o e n] writes it to [o + k*e] by
   pointer bump.  Under a float WCR-sum with [e = 0] the bump accumulates
   in a register, which changes no addition order.  Mixed
   representations under WCR resolve through floats and narrow on store;
   those cases, integer outputs and the other WCRs bump through an
   offsets row. *)
let store ~size (out : Tensor.t) wcr (v : row) =
  let with_off fill at =
    let off = Array.make size 0 in
    (fill, at, fun o e n -> for k = 0 to n - 1 do off.!(k) <- o + (k * e) done; at off n)
  in
  match out.Tensor.buf, wcr, v with
  | _, Some (Wcr_custom _), _ -> assert false
  | Tensor.Fbuf ob, _, _ -> (
    let x, fx = frow size v in
    (* [f]'s loop sees the value slice as of the current block *)
    let at f off n = f x.fa x.fo off n in
    match wcr with
    | None ->
      ( fx,
        at (fun a i off n -> for k = 0 to n - 1 do ob.!(off.!(k)) <- a.!(i + k) done),
        fun o e n ->
          let a = x.fa and i = x.fo in
          let p = ref o in
          for k = 0 to n - 1 do
            ob.!(!p) <- a.!(i + k);
            p := !p + e
          done )
    | Some Wcr_sum ->
      ( fx,
        at (fun a i off n ->
            for k = 0 to n - 1 do
              let o = off.!(k) in ob.!(o) <- ob.!(o) +. a.!(i + k)
            done),
        fun o e n ->
          let a = x.fa and i = x.fo in
          if e = 0 then begin
            let acc = ref ob.!(o) in
            for k = 0 to n - 1 do acc := !acc +. a.!(i + k) done;
            ob.!(o) <- !acc
          end
          else begin
            let p = ref o in
            for k = 0 to n - 1 do
              ob.!(!p) <- ob.!(!p) +. a.!(i + k);
              p := !p + e
            done
          end )
    | Some Wcr_prod ->
      with_off fx
        (at (fun a i off n ->
             for k = 0 to n - 1 do
               let o = off.!(k) in ob.!(o) <- ob.!(o) *. a.!(i + k)
             done))
    | Some Wcr_min ->
      with_off fx
        (at (fun a i off n ->
             for k = 0 to n - 1 do
               let o = off.!(k) in ob.!(o) <- Float.min ob.!(o) a.!(i + k)
             done))
    | Some _ ->
      with_off fx
        (at (fun a i off n ->
             for k = 0 to n - 1 do
               let o = off.!(k) in ob.!(o) <- Float.max ob.!(o) a.!(i + k)
             done)))
  | Tensor.Ibuf ob, None, _ ->
    let x, fx = irow size v in
    with_off fx (fun off n -> for k = 0 to n - 1 do ob.!(off.!(k)) <- x.!(k) done)
  | Tensor.Ibuf ob, Some w, Ri (x, fx) ->
    with_off fx
      (match w with
      | Wcr_sum ->
        fun off n ->
          for k = 0 to n - 1 do let o = off.!(k) in ob.!(o) <- ob.!(o) + x.!(k) done
      | Wcr_prod ->
        fun off n ->
          for k = 0 to n - 1 do let o = off.!(k) in ob.!(o) <- ob.!(o) * x.!(k) done
      | Wcr_min ->
        fun off n ->
          for k = 0 to n - 1 do
            let o = off.!(k) in
            ob.!(o) <- (if ob.!(o) <= x.!(k) then ob.!(o) else x.!(k))
          done
      | _ ->
        fun off n ->
          for k = 0 to n - 1 do
            let o = off.!(k) in
            ob.!(o) <- (if ob.!(o) >= x.!(k) then ob.!(o) else x.!(k))
          done)
  | Tensor.Ibuf ob, Some w, _ ->
    let x, fx = frow size v in
    let at f off n = f x.fa x.fo off n in
    with_off fx
      (match w with
      | Wcr_sum ->
        at (fun a i off n ->
            for k = 0 to n - 1 do
              let o = off.!(k) in
              ob.!(o) <- int_of_float (float_of_int ob.!(o) +. a.!(i + k))
            done)
      | Wcr_prod ->
        at (fun a i off n ->
            for k = 0 to n - 1 do
              let o = off.!(k) in
              ob.!(o) <- int_of_float (float_of_int ob.!(o) *. a.!(i + k))
            done)
      | Wcr_min ->
        at (fun a i off n ->
            for k = 0 to n - 1 do
              let o = off.!(k) in
              ob.!(o) <- int_of_float (Float.min (float_of_int ob.!(o)) a.!(i + k))
            done)
      | _ ->
        at (fun a i off n ->
            for k = 0 to n - 1 do
              let o = off.!(k) in
              ob.!(o) <- int_of_float (Float.max (float_of_int ob.!(o)) a.!(i + k))
            done))

(* A plain float store of [x op y], [op] one of [+ - * /]: the operator
   runs inside the pointer-bump loop instead of filling a row of its
   own.  Returns [(fill, bump)] as {!store} does. *)
let fused (ob : float array) op ((x, fx), (y, fy)) =
  ( seq [ fx; fy ],
    match op with
    | Ast.Add -> fun o e n -> let a = x.fa and i = x.fo and b = y.fa and j = y.fo in
      let p = ref o in
      for k = 0 to n - 1 do ob.!(!p) <- a.!(i + k) +. b.!(j + k); p := !p + e done
    | Ast.Sub -> fun o e n -> let a = x.fa and i = x.fo and b = y.fa and j = y.fo in
      let p = ref o in
      for k = 0 to n - 1 do ob.!(!p) <- a.!(i + k) -. b.!(j + k); p := !p + e done
    | Ast.Mul -> fun o e n -> let a = x.fa and i = x.fo and b = y.fa and j = y.fo in
      let p = ref o in
      for k = 0 to n - 1 do ob.!(!p) <- a.!(i + k) *. b.!(j + k); p := !p + e done
    | _ -> fun o e n -> let a = x.fa and i = x.fo and b = y.fa and j = y.fo in
      let p = ref o in
      for k = 0 to n - 1 do ob.!(!p) <- a.!(i + k) /. b.!(j + k); p := !p + e done )

(* --- recognition --------------------------------------------------------- *)

type leaf = Lten of int | Lpar of int | Lcon of int

(* Specialized loop shapes, detected on the classified body.  Everything
   else with a compilable row expression runs as [Kexpr]; subscripted
   bodies run as [Kgather] / [Kscatter]. *)
type kind =
  | Kfill                                   (* launch-constant store *)
  | Kcopy of int                            (* same-representation move *)
  | Kcontract of float option * int * int   (* WCR-sum  o += (c*x)*y | x*y *)
  | Kexpr
  | Kgather                                 (* o = f(c[e...]) *)
  | Kscatter                                (* o[e...] = f(...) *)

let kind_name = function
  | Kfill -> "fill"
  | Kcopy _ -> "copy"
  | Kcontract _ -> "contract"
  | Kexpr -> "expr"
  | Kgather -> "gather"
  | Kscatter -> "scatter"

(* Distinguish data-dependent subscripts ("indirection") from the other
   body shapes the classifier rejects.  Taint every input connector,
   flow taint through local assignments and For bounds to a fixpoint,
   and report true when any subscript expression — read or write —
   mentions a tainted name.  spmv's [xin[cols[j]]] (the For bounds come
   from the [rows] connector) and histogram's computed bin are
   indirection; an accumulation nest over symbol-bounded For loops is
   not, whatever else the classifier disliked about it. *)
let indirect_subscripts ~inputs (code : Ast.t) =
  let module SS = Set.Make (String) in
  let tainted = ref (SS.of_list inputs) in
  let mentions e =
    List.exists (fun n -> SS.mem n !tainted) (Ast.expr_names [] e)
  in
  let add x changed =
    if SS.mem x !tainted then changed
    else begin
      tainted := SS.add x !tainted;
      true
    end
  in
  let rec flow changed = function
    | Ast.Assign (Ast.Lvar x, e) -> if mentions e then add x changed else changed
    | Ast.Assign (Ast.Lindex _, _) -> changed
    | Ast.If (_, t, f) ->
      List.fold_left flow (List.fold_left flow changed t) f
    | Ast.For (v, lo, hi, body) ->
      let changed =
        if mentions lo || mentions hi then add v changed else changed
      in
      List.fold_left flow changed body
  in
  let rec fixpoint () =
    if List.fold_left flow false code then fixpoint ()
  in
  fixpoint ();
  let subs_tainted es = List.exists mentions es in
  let rec expr_has = function
    | Ast.Float_lit _ | Ast.Int_lit _ | Ast.Bool_lit _ | Ast.Var _ -> false
    | Ast.Index (_, es) -> subs_tainted es || List.exists expr_has es
    | Ast.Unop (_, e) -> expr_has e
    | Ast.Binop (_, a, b) -> expr_has a || expr_has b
    | Ast.Cond (c, a, b) -> expr_has c || expr_has a || expr_has b
  in
  let rec stmt_has = function
    | Ast.Assign (lhs, e) ->
      (match lhs with
      | Ast.Lvar _ -> false
      | Ast.Lindex (_, es) -> subs_tainted es || List.exists expr_has es)
      || expr_has e
    | Ast.If (c, t, f) ->
      expr_has c || List.exists stmt_has t || List.exists stmt_has f
    | Ast.For (_, lo, hi, body) ->
      expr_has lo || expr_has hi || List.exists stmt_has body
  in
  List.exists stmt_has code

exception Out_of_window

let lower ~env ~tk ~params ~comp ~ins ~outs (body : Tasklang.Bodyclass.t) : t
    =
  let nd = List.length params in
  let rec dup = function
    | [] -> false
    | (c, _) :: tl -> List.mem_assoc c tl || dup tl
  in
  if dup ins then reject "dup-conn";
  (* the stores assign each connected output once, and no output is an
     input *)
  let stores = body.Tasklang.Bodyclass.b_stores in
  if dup stores || List.compare_lengths stores outs <> 0 then
    reject "out-mismatch";
  let oms =
    List.map
      (fun (c, _) ->
        match List.assoc_opt c outs with
        | Some m when not (List.mem_assoc c ins) -> (c, m)
        | _ -> reject "out-mismatch")
      stores
  in
  let conn_rank conns name =
    match List.find_opt (fun (k : conn) -> k.k_name = name) conns with
    | Some (k : conn) -> k.k_rank
    | None -> reject "connector-rank"
  in
  (* connectors read whole are scalars; a connector read through a
     subscript, and a scatter's output, bind a window *)
  let windowed c = List.mem c body.Tasklang.Bodyclass.b_windows in
  let scatter = body.Tasklang.Bodyclass.b_write <> None in
  List.iter
    (fun (c, _) ->
      if (conn_rank tk.t_inputs c <> 0) <> windowed c then
        reject "connector-rank")
    ins;
  if List.exists (fun (c, _) -> (conn_rank tk.t_outputs c <> 0) <> scatter) oms then
    reject "connector-rank";
  let tens_of name =
    match Hashtbl.find_opt env.Reference.containers name with
    | Some (Reference.Tens t) -> t
    | Some (Reference.Strm _) -> reject "stream"
    | None -> reject "container"
  in
  let wcrs =
    List.map
      (fun (_, (m : memlet)) ->
        match m.m_wcr with Some (Wcr_custom _) -> reject "wcr" | w -> w)
      oms
  in
  (* a window is one launch-constant view: its ranges may not move with
     the map's own parameters *)
  let window (m : memlet) k_rank =
    let own e = List.exists (fun s -> List.mem s params) (Expr.free_syms e) in
    if
      List.exists
        (fun (rg : Subset.range) ->
          own rg.Subset.start || own rg.Subset.stop || own rg.Subset.stride
          || own rg.Subset.tile)
        m.m_subset
    then reject "non-affine";
    View.make
      ~comp:(fun e -> match comp e with Some f -> f | None -> reject "symbols")
      (tens_of m.m_data) k_rank m.m_subset
  in
  let in_args =
    Array.of_list
      (List.filter_map
         (fun (c, m) ->
           if windowed c then None
           else Some (c, affine_plan ~params ~comp (tens_of m.m_data) m.m_subset))
         ins)
  in
  let wins =
    List.filter_map
      (fun (c, m) ->
        if windowed c then Some (c, (window m (conn_rank tk.t_inputs c), m.m_dynamic))
        else None)
      ins
  in
  let nin = Array.length in_args in
  let out_ts = List.map (fun (_, (m : memlet)) -> tens_of m.m_data) oms in
  let out_win, out_args =
    match oms with
    | [ (c, om) ] when scatter -> (Some (window om (conn_rank tk.t_outputs c)), [])
    | _ ->
      (None, List.map2 (fun t (_, (m : memlet)) -> affine_plan ~params ~comp t m.m_subset) out_ts oms)
  in
  (* the single-output kinds' output; outputs follow the inputs in
     [arg_plans], the first at [nin] *)
  let out_t = List.hd out_ts and wcr = List.hd wcrs in
  (* within a block every read precedes every write, which is only the
     closure nest's order when no input shares the output's buffer:
     aliased gather and scatter bodies stay on the closure path, and
     [expr] picks its block size per launch ([bsize]).  With several
     outputs a store's reads follow the earlier stores' writes in the
     nest, which no block order reproduces over a shared buffer. *)
  let shared t =
    Array.exists (fun (_, ap) -> Tensor.shares_buffer t ap.ap_tens) in_args
    || List.exists (fun (_, (w, _)) -> Tensor.shares_buffer t w.View.v_tens) wins
  in
  if shared out_t && (scatter || wins <> []) then reject "aliased";
  let twice t = List.length (List.filter (Tensor.shares_buffer t) out_ts) > 1 in
  if List.length out_ts > 1 && List.exists (fun t -> shared t || twice t) out_ts then
    reject "aliased";
  (* launch state the loop drivers keep current: operand offsets (an
     affine output last), map-parameter values, launch-evaluated symbol
     constants *)
  let arg_plans = Array.append (Array.map snd in_args) (Array.of_list out_args) in
  let na = Array.length arg_plans in
  let offs = Array.make na 0 in
  let pcell = Array.make nd 0 in
  let consts = ref [] and n_consts = ref 0 in
  let param_ix p =
    let rec go i = function
      | [] -> None
      | q :: _ when q = p -> Some i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 params
  in
  let leaves =
    List.map
      (fun name ->
        if List.mem_assoc name wins then reject "body-expr";
        let rec arg_ix j =
          if j >= nin then None
          else if fst in_args.(j) = name then Some j
          else arg_ix (j + 1)
        in
        let leaf =
          match arg_ix 0 with
          | Some j -> Lten j
          | None -> (
            match param_ix name with
            | Some d -> Lpar d
            | None -> (
              match comp (Expr.sym name) with
              | Some f ->
                let k = !n_consts in
                incr n_consts;
                consts := f :: !consts;
                Lcon k
              | None -> reject "body-expr"))
        in
        (name, leaf))
      body.Tasklang.Bodyclass.b_reads
  in
  let cfs = Array.of_list (List.rev !consts) in
  let ccell = Array.make (max 1 !n_consts) 0 in
  (* ---- kind detection over the resolved body --------------------------- *)
  let fleaf = function
    | Ast.Var x -> (
      match List.assoc_opt x leaves with
      | Some (Lten j) -> (
        match (snd in_args.(j)).ap_tens.Tensor.buf with
        | Tensor.Fbuf _ -> Some j
        | Tensor.Ibuf _ -> None)
      | _ -> None)
    | _ -> None
  in
  let ileaf = function
    | Ast.Var x -> (
      match List.assoc_opt x leaves with
      | Some (Lten j) -> (
        match (snd in_args.(j)).ap_tens.Tensor.buf with
        | Tensor.Ibuf _ -> Some j
        | Tensor.Fbuf _ -> None)
      | _ -> None)
    | _ -> None
  in
  let out_float =
    match out_t.Tensor.buf with Tensor.Fbuf _ -> true | Tensor.Ibuf _ -> false
  in
  let all_const =
    List.for_all (fun (_, l) -> match l with Lcon _ -> true | _ -> false) leaves
  in
  let bexpr = snd (List.hd stores) in
  let kind =
    if scatter then Kscatter
    else if wins <> [] then Kgather
    else if List.compare_length_with stores 1 > 0 then Kexpr
    else if all_const && wcr = None then Kfill
    else
      match wcr with
      | Some Wcr_sum when out_float -> (
        let contract lit x y =
          match fleaf x, fleaf y with
          | Some jx, Some jy -> Kcontract (lit, jx, jy)
          | _ -> Kexpr
        in
        match bexpr with
        | Ast.Binop (Ast.Mul, Ast.Binop (Ast.Mul, Ast.Float_lit c, x), y)
        | Ast.Binop (Ast.Mul, Ast.Binop (Ast.Mul, x, Ast.Float_lit c), y) ->
          (* a literal that is not NaN commutes exactly: [(x * c) * y]
             runs as [(c * x) * y] *)
          if Float.is_nan c then Kexpr else contract (Some c) x y
        | Ast.Binop (Ast.Mul, x, y) -> contract None x y
        | _ -> Kexpr)
      | Some _ -> Kexpr
      | None -> (
        match bexpr with
        | Ast.Var _ -> (
          match fleaf bexpr, ileaf bexpr with
          | Some j, _ when out_float -> Kcopy j
          | _, Some j when not out_float -> Kcopy j
          | _ -> Kexpr)
        | _ -> Kexpr)
  in
  (* ---- detection above never rejects; build the launch entry ----------- *)
  let trips = Array.make nd 0
  and los = Array.make nd 0
  and steps = Array.make nd 0 in
  let es = Array.init na (fun _ -> Array.make nd 0) in
  let last = nd - 1 in
  let fbuf j =
    match arg_plans.(j).ap_tens.Tensor.buf with
    | Tensor.Fbuf b -> b
    | Tensor.Ibuf _ -> assert false
  in
  let ibuf j =
    match arg_plans.(j).ap_tens.Tensor.buf with
    | Tensor.Ibuf b -> b
    | Tensor.Fbuf _ -> assert false
  in
  let shares j = Tensor.shares_buffer out_t arg_plans.(j).ap_tens in
  (* ---- rows, built only for the kinds that evaluate them --------------- *)
  let size = match kind with Kfill -> 1 | _ -> block in
  (* block state the leaf rows read: operand offsets and the innermost
     parameter's value at the block's first iteration *)
  let boff = Array.make na 0 and bpar = ref 0 in
  let checking = ref false in
  let site_ranks = ref [] and top_sites = ref [] in
  (* each float operand's slice, pointed at its buffer or its own row
     once per launch by the unit-stride test *)
  let binds = ref [] in
  let leaf_rows () =
    let ramp r v s n = for k = 0 to n - 1 do r.!(k) <- v + (k * s) done in
    List.map
      (fun (name, l) ->
        match l with
        | Lten j -> (
          match arg_plans.(j).ap_tens.Tensor.buf with
          | Tensor.Fbuf b ->
            (* unit stride: read the block in place *)
            let r = Array.make size 0. in
            let x = own r in
            let bind () = if es.(j).(last) = 1 then x.fa <- b else (x.fa <- r; x.fo <- 0) in
            binds := bind :: !binds;
            ( name, Rf (x, nofill),
              fun n ->
                let e = es.(j).(last) in
                if e = 1 then x.fo <- boff.(j)
                else begin
                  let p = ref boff.(j) in
                  for k = 0 to n - 1 do r.!(k) <- b.!(!p); p := !p + e done
                end )
          | Tensor.Ibuf b ->
            let r = Array.make size 0 in
            ( name, Ri (r, nofill),
              fun n ->
                let p = ref boff.(j) and e = es.(j).(last) in
                for k = 0 to n - 1 do r.!(k) <- b.!(!p); p := !p + e done ))
        | Lpar d ->
          let r = Array.make size 0 in
          ( name, Ri (r, nofill),
            if d = last then fun n -> ramp r !bpar steps.(last) n
            else fun n -> ramp r pcell.(d) 0 n )
        | Lcon c ->
          let r = Array.make size 0 in
          (name, Ri (r, nofill), fun n -> ramp r ccell.(c) 0 n))
      leaves
  in
  (* Offsets of a subscripted access through window [w] for the current
     block.  While [checking] (the launch pre-pass) every index is first
     checked against the window's extents; a nested site's indices are
     checked before its values feed the enclosing subscript. *)
  let index ~top (w : View.t) subs =
    let subs = Array.of_list (List.map (irow size) subs) in
    let m = Array.length subs in
    let off = Array.make size 0 in
    site_ranks := (w, m) :: !site_ranks;
    let index n =
      for d = 0 to m - 1 do
        (snd subs.(d)) n
      done;
      if m = 0 then Array.fill off 0 n w.View.v_base;
      for d = 0 to m - 1 do
        let s = fst subs.(d) and ext = w.View.v_ext.(d) and str = w.View.v_str.(d) in
        if !checking then
          for k = 0 to n - 1 do
            if s.!(k) < 0 || s.!(k) >= ext then raise Out_of_window
          done;
        if d = 0 then begin
          let b = w.View.v_base in
          for k = 0 to n - 1 do off.!(k) <- b + (s.!(k) * str) done
        end
        else for k = 0 to n - 1 do off.!(k) <- off.!(k) + (s.!(k) * str) done
      done
    in
    if top then top_sites := index :: !top_sites;
    (off, index)
  in
  let site ~top name subs =
    match List.assoc_opt name wins with
    | None -> reject "body-expr"
    | Some (w, _) -> (
      let off, index = index ~top w subs in
      match w.View.v_tens.Tensor.buf with
      | Tensor.Fbuf b ->
        let r = Array.make size 0. in
        Rf (own r, fun n -> index n; for k = 0 to n - 1 do r.!(k) <- b.!(off.!(k)) done)
      | Tensor.Ibuf b ->
        let r = Array.make size 0 in
        Ri (r, fun n -> index n; for k = 0 to n - 1 do r.!(k) <- b.!(off.!(k)) done))
  in
  (* [prologue n] fills the leaf rows *)
  let prologue, leaf =
    match kind with
    | Kfill | Kexpr | Kgather | Kscatter ->
      let lr = leaf_rows () in
      ( seq (List.map (fun (_, _, f) -> f) lr),
        fun x ->
          match List.find_opt (fun (n, _, _) -> n = x) lr with
          | Some (_, r, _) -> r
          | None -> reject "body-expr" )
    | _ -> (nofill, fun _ -> reject "body-expr")
  in
  let go, binop = rows ~size ~leaf ~site in
  (* a bumped store's [(fill, bump)]: a plain float store of a float
     [+ - * /] runs that operator in its store loop *)
  let bump_store out wcr e =
    let bumped v = let fill, _, bump = store ~size out wcr v in (fill, bump) in
    match out.Tensor.buf, wcr, e with
    | Tensor.Fbuf ob, None, Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op, a, b)
      -> (
      match go ~top:true a, go ~top:true b with
      | (Ri _ as ta), (Ri _ as tb) -> bumped (binop op b ta tb)
      | ta, tb -> fused ob op (frow size ta, frow size tb))
    | _ -> bumped (go ~top:true e)
  in
  (* [pass n] evaluates and applies one block of [n] innermost
     iterations: every value row of the block is filled before any
     write, and the outputs are stored in statement order *)
  let pass =
    match kind, body.Tasklang.Bodyclass.b_write, out_win with
    | (Kexpr | Kgather), _, _ ->
      let ss =
        Array.of_list
          (List.map2 (fun (t, w) (_, e) -> bump_store t w e) (List.combine out_ts wcrs) stores)
      in
      fun n ->
        prologue n;
        for i = 0 to Array.length ss - 1 do (fst ss.(i)) n done;
        for i = 0 to Array.length ss - 1 do
          (snd ss.(i)) boff.(nin + i) es.(nin + i).(last) n
        done
    | Kscatter, Some subs, Some w ->
      let fill, at, _ = store ~size out_t wcr (go ~top:true bexpr) in
      let woff, windex = index ~top:true w (List.map (go ~top:false) subs) in
      fun n ->
        prologue n;
        windex n;
        fill n;
        at woff n
    | _ -> nofill
  in
  let binds = Array.of_list !binds in
  let top_sites = Array.of_list !top_sites in
  let site_ranks = Array.of_list !site_ranks in
  (* the launch pre-pass: every index row over the whole box *)
  let prepass n =
    prologue n;
    for i = 0 to Array.length top_sites - 1 do
      top_sites.(i) n
    done
  in
  (* aliasing only reaches [Kexpr]; [bsize] is set per launch *)
  let alias_ix = List.filter shares (List.init nin Fun.id) in
  let bsize = ref block in
  (* A pass owns no row when each store is a plain float store of a
     float operand or of a fused [+ - * /] of two: every row it reads is
     a leaf slice.  Only a leaf copied at an innermost stride other than
     1 then has a [block]-sized row, so with every leaf read in place a
     launch may run the whole innermost row as one block. *)
  let rowless =
    kind = Kexpr
    && List.for_all2
         (fun ((t : Tensor.t), w) (_, e) ->
           match t.Tensor.buf, w, e with
           | Tensor.Fbuf _, None, Ast.Var _ -> fleaf e <> None
           | Tensor.Fbuf _, None, Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), a, b)
             -> fleaf a <> None && fleaf b <> None
           | _ -> false)
         (List.combine out_ts wcrs) stores
  in
  let leaf_ix =
    Array.of_list (List.filter_map (function _, Lten j -> Some j | _ -> None) leaves)
  in
  let in_place j = es.(j).(last) = 1 in
  let blocks pass () =
    let total = trips.(last) in
    let k0 = ref 0 in
    while !k0 < total do
      let k = !k0 in
      let n = if total - k < !bsize then total - k else !bsize in
      for j = 0 to na - 1 do
        boff.(j) <- offs.(j) + (k * es.(j).(last))
      done;
      bpar := los.(last) + (k * steps.(last));
      pass n;
      k0 := k + n
    done
  in
  (* The contraction's rows: [one] accumulates one output cell's row,
     [four] the rows of four consecutive counters of dimension [last - 1]
     at once.  [grouped ()] admits [four] at launch when the output cell
     stays put along the row but moves along [last - 1] (four distinct
     cells), no input shares its buffer (nothing reads a cell mid-sweep)
     and one factor does not move along [last - 1]: that factor is read
     — and scaled — once per reduction step.  Each cell still receives
     its products, each in the body's grouping, in the closure nest's
     order; only the interleaving between cells changes. *)
  let one, four, grouped =
    match kind with
    | Kcontract (lit, jx, jy) ->
      let cb = fbuf nin and xb = fbuf jx and yb = fbuf jy in
      let scaled = lit <> None and c = Option.value lit ~default:1. in
      (* accumulating in a register changes no addition order, but it
         delays the store — only safe when the output cell cannot be
         read back through an input alias mid-row *)
      let reg_ok = (not (shares jx)) && not (shares jy) in
      let one () =
        let ec = es.(nin).(last)
        and ex = es.(jx).(last)
        and ey = es.(jy).(last) in
        let ox = ref offs.(jx) and oy = ref offs.(jy) in
        if ec = 0 && reg_ok then begin
          let oc = offs.(nin) in
          let acc = ref cb.!(oc) in
          for _ = 1 to trips.(last) do
            let x = xb.!(!ox) in
            let x = if scaled then c *. x else x in
            acc := !acc +. (x *. yb.!(!oy));
            ox := !ox + ex;
            oy := !oy + ey
          done;
          cb.!(oc) <- !acc
        end
        else begin
          let oc = ref offs.(nin) in
          for _ = 1 to trips.(last) do
            let x = xb.!(!ox) in
            let x = if scaled then c *. x else x in
            cb.!(!oc) <- cb.!(!oc) +. (x *. yb.!(!oy));
            oc := !oc + ec;
            ox := !ox + ex;
            oy := !oy + ey
          done
        end
      in
      let four () =
        let jd = last - 1 in
        let l = es.(nin).(jd) and c0 = offs.(nin) in
        let c1 = c0 + l and c2 = c0 + (2 * l) and c3 = c0 + (3 * l) in
        let a0 = ref cb.!(c0) and a1 = ref cb.!(c1)
        and a2 = ref cb.!(c2) and a3 = ref cb.!(c3) in
        let ex = es.(jx).(last) and ey = es.(jy).(last) in
        let ox = ref offs.(jx) and oy = ref offs.(jy) in
        if es.(jx).(jd) = 0 then begin
          (* the lanes' [y] elements sit [l1] apart *)
          let l1 = es.(jy).(jd) in
          let l2 = 2 * l1 and l3 = 3 * l1 in
          for _ = 1 to trips.(last) do
            let x = xb.!(!ox) and o = !oy in
            let x = if scaled then c *. x else x in
            a0 := !a0 +. (x *. yb.!(o));
            a1 := !a1 +. (x *. yb.!(o + l1));
            a2 := !a2 +. (x *. yb.!(o + l2));
            a3 := !a3 +. (x *. yb.!(o + l3));
            ox := !ox + ex;
            oy := o + ey
          done
        end
        else begin
          let l1 = es.(jx).(jd) in
          let l2 = 2 * l1 and l3 = 3 * l1 in
          for _ = 1 to trips.(last) do
            let y = yb.!(!oy) and o = !ox in
            if scaled then begin
              a0 := !a0 +. (c *. xb.!(o) *. y);
              a1 := !a1 +. (c *. xb.!(o + l1) *. y);
              a2 := !a2 +. (c *. xb.!(o + l2) *. y);
              a3 := !a3 +. (c *. xb.!(o + l3) *. y)
            end
            else begin
              a0 := !a0 +. (xb.!(o) *. y);
              a1 := !a1 +. (xb.!(o + l1) *. y);
              a2 := !a2 +. (xb.!(o + l2) *. y);
              a3 := !a3 +. (xb.!(o + l3) *. y)
            end;
            ox := o + ex;
            oy := !oy + ey
          done
        end;
        cb.!(c0) <- !a0;
        cb.!(c1) <- !a1;
        cb.!(c2) <- !a2;
        cb.!(c3) <- !a3
      in
      let grouped () =
        let jd = last - 1 in
        jd >= 0 && reg_ok
        && es.(nin).(last) = 0
        && es.(nin).(jd) <> 0
        && (es.(jx).(jd) = 0 || es.(jy).(jd) = 0)
      in
      (one, four, grouped)
    | _ -> (ignore, ignore, fun () -> false)
  in
  (* per-kind innermost row; reads the launch state, must leave [offs]
     untouched.  Buffer accesses are unchecked — the launch pre-checks
     proved the whole box in range. *)
  let inner : unit -> unit =
    match kind with
    | Kfill -> (
      (* the launch constant, evaluated as a one-element row *)
      let v = go ~top:true bexpr in
      match out_t.Tensor.buf with
      | Tensor.Fbuf ob ->
        let x, fx = frow size v in
        fun () ->
          prologue 1;
          fx 1;
          let v = x.fa.!(x.fo) in
          let o = ref offs.(nin) and e = es.(nin).(last) in
          for _ = 1 to trips.(last) do
            Array.unsafe_set ob !o v;
            o := !o + e
          done
      | Tensor.Ibuf ob ->
        let x, fx = irow size v in
        fun () ->
          prologue 1;
          fx 1;
          let v = x.!(0) in
          let o = ref offs.(nin) and e = es.(nin).(last) in
          for _ = 1 to trips.(last) do
            Array.unsafe_set ob !o v;
            o := !o + e
          done)
    | Kcopy j -> (
      let overlap =
        Tensor.overlapping out_t arg_plans.(j).ap_tens
      in
      match out_t.Tensor.buf with
      | Tensor.Fbuf ob ->
        let sb = fbuf j in
        fun () ->
          let n = trips.(last) in
          let eo = es.(nin).(last) and ei = es.(j).(last) in
          if eo = 1 && ei = 1 && not overlap then
            Array.blit sb offs.(j) ob offs.(nin) n
          else begin
            let o = ref offs.(nin) and s = ref offs.(j) in
            for _ = 1 to n do
              Array.unsafe_set ob !o (Array.unsafe_get sb !s);
              o := !o + eo;
              s := !s + ei
            done
          end
      | Tensor.Ibuf ob ->
        let sb = ibuf j in
        fun () ->
          let n = trips.(last) in
          let eo = es.(nin).(last) and ei = es.(j).(last) in
          if eo = 1 && ei = 1 && not overlap then
            Array.blit sb offs.(j) ob offs.(nin) n
          else begin
            let o = ref offs.(nin) and s = ref offs.(j) in
            for _ = 1 to n do
              Array.unsafe_set ob !o (Array.unsafe_get sb !s);
              o := !o + eo;
              s := !s + ei
            done
          end)
    | Kcontract _ -> one
    | Kexpr | Kgather | Kscatter -> blocks pass
  in
  let track_params =
    List.exists (fun (_, l) -> match l with Lpar d -> d < last | _ -> false) leaves
  in
  let in_wins = Array.of_list (List.map snd wins) in
  let windows =
    Array.append (Array.map fst in_wins)
      (match out_win with Some w -> [| w |] | None -> [||])
  in
  let stats = env.Reference.stats in
  let n_wcr = List.length (List.filter Option.is_some wcrs) in
  (* outer dimensions advance the shared offsets; [row] runs the
     innermost dimension *)
  let quad = ref false in
  let rec go row d =
    if d = last then row ()
    else begin
      let n = trips.(d) in
      let lo_d = los.(d) and st_d = steps.(d) in
      (* a grouped launch sweeps [last - 1] four rows at a time *)
      let k0 = if !quad && d = last - 1 then n - (n mod 4) else 0 in
      for _ = 1 to k0 / 4 do
        four ();
        for j = 0 to na - 1 do
          offs.(j) <- offs.(j) + (4 * es.(j).(d))
        done
      done;
      for k = k0 to n - 1 do
        if track_params then pcell.(d) <- lo_d + (k * st_d);
        go row (d + 1);
        for j = 0 to na - 1 do
          offs.(j) <- offs.(j) + es.(j).(d)
        done
      done;
      for j = 0 to na - 1 do
        offs.(j) <- offs.(j) - (n * es.(j).(d))
      done
    end
  in
  let pre_row = blocks prepass in
  let k_run ~frame ~bounds ~lo ~hi ~step ~slow =
    if lo > hi then ()
    else begin
      trips.(0) <- ((hi - lo) / step) + 1;
      los.(0) <- lo;
      steps.(0) <- step;
      let total = ref trips.(0) and empty = ref false in
      for d = 1 to nd - 1 do
        let l = bounds.(3 * d)
        and h = bounds.((3 * d) + 1)
        and s = bounds.((3 * d) + 2) in
        if l > h then empty := true
        else begin
          trips.(d) <- ((h - l) / s) + 1;
          los.(d) <- l;
          steps.(d) <- s;
          total := !total * trips.(d)
        end
      done;
      if not !empty then begin
        (* operand bases, element strides, and the corner bounds check:
           min/max of [const + sum coef_d * i_d] over the box — in plain
           loops, as closures capturing the refs would allocate per
           launch *)
        let ok = ref true in
        for j = 0 to na - 1 do
          let ap = arg_plans.(j) in
          let t = ap.ap_tens in
          let str = t.Tensor.strides in
          let esj = es.(j) in
          Array.fill esj 0 nd 0;
          let base = ref t.Tensor.offset in
          for dim = 0 to Array.length ap.ap_dims - 1 do
            let dp = ap.ap_dims.(dim) in
            let v0 = ref (dp.dp_const frame) in
            let dmin = ref 0 and dmax = ref 0 in
            for d = 0 to nd - 1 do
              match dp.dp_coefs.(d) with
              | None -> ()
              | Some f ->
                let k = f frame in
                v0 := !v0 + (k * los.(d));
                let delta = k * steps.(d) * (trips.(d) - 1) in
                if delta < 0 then dmin := !dmin + delta
                else dmax := !dmax + delta;
                esj.(d) <- esj.(d) + (k * steps.(d) * str.(dim))
            done;
            if !v0 + !dmin < 0 || !v0 + !dmax >= t.Tensor.shape.(dim) then
              ok := false;
            base := !base + (!v0 * str.(dim))
          done;
          offs.(j) <- !base
        done;
        Array.iter (fun bind -> bind ()) binds;
        (* an input at the output's base and element strides reads in
           each iteration only the element that iteration writes, which
           no other iteration of the block touches when the output moves
           along the row: reading the block first changes nothing.  Any
           other alias runs one iteration per block, keeping the closure
           nest's read-write interleaving.  A rowless pass with every
           leaf in place fills nothing ahead of its stores, so each
           element's reads still precede its write alone: its block is
           the whole row (several outputs never share an input's buffer). *)
        bsize :=
          if
            not
              (alias_ix = []
              || es.(nin).(last) <> 0
                 && List.for_all
                      (fun j -> offs.(j) = offs.(nin) && es.(j) = es.(nin))
                      alias_ix)
          then 1
          else if rowless && Array.for_all in_place leaf_ix then trips.(last)
          else block;
        (* windows: evaluated and checked once, as [View.refresh] checks
           them per iteration; then each subscript count against the
           window's rank *)
        for i = 0 to Array.length windows - 1 do
          match View.refresh windows.(i) frame with
          | () -> ()
          | exception Tensor.Bounds _ -> ok := false
        done;
        if !ok then
          for i = 0 to Array.length site_ranks - 1 do
            let w, m = site_ranks.(i) in
            if w.View.v_rank <> m then ok := false
          done;
        for k = 0 to Array.length cfs - 1 do
          ccell.(k) <- cfs.(k) frame
        done;
        if !ok && Array.length top_sites > 0 then begin
          checking := true;
          (match go pre_row 0 with
          | () -> ()
          | exception Out_of_window -> ok := false);
          checking := false
        end;
        if not !ok then slow ()
        else begin
          let moved = ref (nin + List.length out_ts) in
          for i = 0 to Array.length in_wins - 1 do
            let w, dyn = in_wins.(i) in
            moved := !moved + if dyn then 1 else w.View.v_vol
          done;
          quad := grouped ();
          stats.Obs.Report.map_iterations <- stats.map_iterations + !total;
          stats.tasklet_execs <- stats.tasklet_execs + !total;
          stats.elements_moved <- stats.elements_moved + (!total * !moved);
          stats.wcr_writes <- stats.wcr_writes + (!total * n_wcr);
          go inner 0
        end
      end
    end
  in
  { k_name = kind_name kind; k_run }

let recognize_exn ~env ~st ~entry ~(info : map_info) ~comp : t =
  let params = info.mp_params in
  let nd = List.length params in
  if nd = 0 then reject "no-dims";
  if List.length (List.sort_uniq String.compare params) <> nd then
    reject "shadowed";
  (* the scope body must be exactly one tasklet *)
  let nid, tk =
    let members = State.scope_nodes st entry in
    let parents = State.scope_parents st in
    let direct =
      List.filter
        (fun n ->
          Hashtbl.find parents n = Some entry
          && (match State.node st n with Map_exit -> false | _ -> true))
        members
    in
    match direct with
    | [ n ] -> (
      match State.node st n with
      | Tasklet t -> (n, t)
      | _ -> reject "body-shape")
    | _ -> reject "body-shape"
  in
  let code =
    match tk.t_code with Code c -> c | External _ -> reject "external"
  in
  (* a timed tasklet must keep its per-execution span *)
  if Obs.Collect.should_time env.Reference.collector ~flag:tk.t_instrument then
    reject "instrumented";
  (* connected memlets, in the closure engine's binding order *)
  let ins =
    List.filter_map
      (fun (e : edge) ->
        match e.e_dst_conn, e.e_memlet with
        | Some c, Some m -> Some (c, m)
        | _ -> None)
      (State.in_edges st nid)
  in
  let outs =
    List.filter_map
      (fun (e : edge) ->
        match e.e_src_conn, e.e_memlet with
        | Some c, Some m -> Some (c, m)
        | _ -> None)
      (State.out_edges st nid)
  in
  let shape_reason r =
    if indirect_subscripts ~inputs:(List.map fst ins) code then
      "non-affine-indirect"
    else r
  in
  (* a name the engines resolve — connector, parameter or symbol, in
     the closure engine's order — is never a tasklet local *)
  let bound x =
    List.mem_assoc x ins || List.mem_assoc x outs || List.mem x params
    || Hashtbl.mem env.Reference.symbols x
    || comp (Expr.sym x) <> None
  in
  let body =
    match Tasklang.Bodyclass.classify ~bound code with
    | Ok b -> b
    | Error r -> reject (shape_reason r)
  in
  match Tasklang.Bodyclass.subscript_code body with
  | None -> lower ~env ~tk ~params ~comp ~ins ~outs body
  | Some r -> (
    (* a subscripted body the gather/scatter kinds refuse keeps the
       reason code its shape reports *)
    try lower ~env ~tk ~params ~comp ~ins ~outs body
    with Reject _ -> reject (shape_reason r))

let recognize ~env ~st ~entry ~info ~comp =
  match recognize_exn ~env ~st ~entry ~info ~comp with
  | k -> Ok k
  | exception Reject r -> Error r
