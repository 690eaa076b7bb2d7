(* CFD spectral-element kernels after Andersson et al., "Portable
   High-Performance Kernel Generation for a CFD Code with DaCe"
   (PAPERS.md; substitution documented in DESIGN.md): per-element
   small-tensor contractions (a D^T (D u) derivative pair on each
   element's local DOFs) glued to a global DOF vector by gather/scatter
   over a synthetic unstructured-mesh index array.

   This is exactly the shape Polybench never stresses: the gather and
   scatter memlets are data-dependent (the mesh connectivity lives in an
   I64 container, not in affine subscripts).  In the batched variant
   those maps lower as bulk "gather" and "scatter" kernels, indexed
   through the connectivity values, and the two dense contraction maps
   between them as bulk "contract" kernels; the naive variant's fused
   element body (For loops and locals) stays on the closure path with
   fallback reason "non-affine-indirect".  Two variants:

   - [naive]: a state-machine loop over elements, each visit one small
     dense D^T D apply with the gather/scatter folded into the body —
     the many-small-operations structure of the original Fortran;
   - [batched]: gather all elements' DOFs into [NEL, NP] local storage,
     run both contractions as single maps over all elements, scatter
     back once — the transformed dataflow a DaCe-style pipeline
     produces.

   The mesh is a synthetic ring: element [e] owns global DOFs
   [(e*(NP-1) + i) mod NDOF], so neighbouring elements share endpoint
   DOFs and the scatter genuinely conflicts (WCR-sum is load-bearing). *)

module E = Symbolic.Expr
module S = Symbolic.Subset
module T = Tasklang.Types
open Sdfg_ir
open Builder
open Util

(* Symbols: NEL elements, NP points (local DOFs) per element, NDOF
   global DOFs. *)
let symbols = [ "NEL"; "NP"; "NDOF" ]

let declare g =
  let nel = s "NEL" and np = s "NP" and ndof = s "NDOF" in
  Sdfg.add_array g "elmap" ~shape:[ nel; np ] ~dtype:i64;
  vec g "u" ndof;
  mat g "D" np np;
  vec g "w" ndof;
  (nel, np, ndof)

let zero_w g st ndof =
  pmap g st ~name:"zero_w" ~params:[ "d" ] ~ranges:[ r0 ndof ]
    ~ins:[]
    ~outs:[ Build.out_elem "o" "w" [ s "d" ] ]
    ~code:(`Src "o = 0.0")

(* Batched/transformed variant: gather → contract × 2 → scatter, each a
   single map over every element at once. *)
let batched () =
  let g = Sdfg.create ~symbols "cfd_batched" in
  let nel, np, ndof = declare g in
  tmat g "ul" nel np;
  tmat g "tmp" nel np;
  tmat g "wl" nel np;
  let init = Sdfg.add_state g ~label:"init" () in
  zero_w g init ndof;
  pmap g init ~name:"zero_loc" ~params:[ "e"; "i" ]
    ~ranges:[ r0 nel; r0 np ]
    ~ins:[]
    ~outs:
      [ Build.out_elem "t" "tmp" [ s "e"; s "i" ];
        Build.out_elem "l" "wl" [ s "e"; s "i" ] ]
    ~code:(`Src "t = 0.0\nl = 0.0");
  (* gather: ul[e, i] = u[elmap[e, i]] — data-dependent read window *)
  let gth = Sdfg.add_state g ~label:"gather" () in
  chain g init gth;
  pmap g gth ~name:"gather_dofs" ~params:[ "e"; "i" ]
    ~ranges:[ r0 nel; r0 np ]
    ~ins:
      [ Build.in_elem "em" "elmap" [ s "e"; s "i" ];
        Build.in_ ~dynamic:true "uin" "u" [ S.full ndof ] ]
    ~outs:[ Build.out_elem "o" "ul" [ s "e"; s "i" ] ]
    ~code:(`Src "o = uin[em]");
  (* tmp[e, i] = Σ_j D[i, j] · ul[e, j]  (lowers as a bulk contract) *)
  let c1 = Sdfg.add_state g ~label:"contract1" () in
  chain g gth c1;
  pmap g c1 ~name:"deriv" ~params:[ "e"; "i"; "j" ]
    ~ranges:[ r0 nel; r0 np; r0 np ]
    ~ins:
      [ Build.in_elem "d" "D" [ s "i"; s "j" ];
        Build.in_elem "v" "ul" [ s "e"; s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "o" "tmp" [ s "e"; s "i" ] ]
    ~code:(`Src "o = d * v");
  (* wl[e, i] = Σ_j D[j, i] · tmp[e, j] *)
  let c2 = Sdfg.add_state g ~label:"contract2" () in
  chain g c1 c2;
  pmap g c2 ~name:"deriv_t" ~params:[ "e"; "i"; "j" ]
    ~ranges:[ r0 nel; r0 np; r0 np ]
    ~ins:
      [ Build.in_elem "d" "D" [ s "j"; s "i" ];
        Build.in_elem "v" "tmp" [ s "e"; s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "o" "wl" [ s "e"; s "i" ] ]
    ~code:(`Src "o = d * v");
  (* scatter: w[elmap[e, i]] += wl[e, i] — conflicting data-dependent
     writes, resolved by WCR-sum *)
  let sct = Sdfg.add_state g ~label:"scatter" () in
  chain g c2 sct;
  pmap g sct ~name:"scatter_dofs" ~params:[ "e"; "i" ]
    ~ranges:[ r0 nel; r0 np ]
    ~ins:
      [ Build.in_elem "em" "elmap" [ s "e"; s "i" ];
        Build.in_elem "v" "wl" [ s "e"; s "i" ] ]
    ~outs:
      [ Build.out_ ~wcr:Wcr.sum ~dynamic:true "o" "w" [ S.full ndof ] ]
    ~code:(`Src "o[em] = v");
  Build.finalize g

(* Naive variant: a state-machine loop visiting one element per state
   execution, gather/contract/scatter fused into one small tasklet —
   each visit recomputes the inner derivative per output DOF, as the
   unblocked original does. *)
let naive () =
  let g = Sdfg.create ~symbols "cfd_naive" in
  let nel, np, ndof = declare g in
  let init = Sdfg.add_state g ~label:"init" () in
  zero_w g init ndof;
  let _, body =
    loop_state g ~sym:"el" ~lo:E.zero ~hi:nel ~label:"el_loop" (fun body ->
        smap g body ~name:"elem_apply" ~params:[ "i" ] ~ranges:[ r0 np ]
          ~ins:
            [ Build.in_ "em" "elmap" [ S.index (s "el"); S.full np ];
              Build.in_ "dm" "D" [ S.full np; S.full np ];
              Build.in_ ~dynamic:true "uin" "u" [ S.full ndof ] ]
          ~outs:
            [ Build.out_ ~wcr:Wcr.sum ~dynamic:true "o" "w" [ S.full ndof ] ]
          ~code:
            (`Src
              "acc = 0.0\n\
               for j in 0:NP { inner = 0.0\n\
               for k in 0:NP { inner = inner + dm[j, k] * uin[em[k]] }\n\
               acc = acc + dm[j, i] * inner }\n\
               o[em[i]] = acc"))
  in
  ignore body;
  let pre =
    Sdfg.states g |> List.find (fun st -> State.label st = "el_loop_init")
  in
  ignore (Sdfg.add_transition g ~src:(State.id init) ~dst:(State.id pre) ());
  Sdfg.set_start g (State.id init);
  Propagate.propagate g;
  Validate.check g;
  g

(* Ring-mesh sizes.  NDOF = NEL * (NP - 1) closes the ring exactly;
   mini keeps NDOF ≥ 11 so CLI runs over Profile.make_args' synthetic
   mod-11 index values stay in bounds. *)
let mini = [ ("NEL", 4); ("NP", 4); ("NDOF", 12) ]
let paper = [ ("NEL", 512); ("NP", 8); ("NDOF", 3584) ]

(* Deterministic arguments over the ring mesh (shared by tests and
   bench; both variants take the same containers). *)
let args symbols =
  let nel = List.assoc "NEL" symbols
  and np = List.assoc "NP" symbols
  and ndof = List.assoc "NDOF" symbols in
  let elmap =
    Interp.Tensor.init i64 [| nel; np |] (fun idx ->
        match idx with
        | [ e; i ] -> T.I (((e * (np - 1)) + i) mod ndof)
        | _ -> T.I 0)
  in
  [ ("elmap", elmap);
    ("u", rand_f [| ndof |] 11);
    ("D", rand_f [| np; np |] 13);
    ("w", zeros [| ndof |]) ]

let hints = [ ("deriv", 1.0); ("deriv_t", 1.0); ("elem_apply", 1.0) ]
