(* Transformer-era kernels written in the Ndlang frontend (ROADMAP
   item 5): scaled-dot-product attention and im2col convolution.  Both
   are authored as Ndlang *text* — the same strings a client submits to
   [sdfg serve] — exercising the frontend constructs this family needs:
   [amax]/[sum] keepdims reductions, [exp], extent-1 broadcasting,
   division, and gather subscripts.

   - [base]: QK^T → row-max → exp-normalize → weighted V.  The softmax
     chain is the normalize-then-scale dependency structure Polybench
     lacks: every stage consumes a reduction of the previous one, so
     states serialize and the per-map domain policy sees small
     reduction maps between large contractions.
   - [tiled]: [base] with MapTiling applied to both matmul contraction
     maps — the optimized variant the bench compares against (approx
     comparison: tiling reorders the WCR-sum accumulation).
   - [conv_im2col]: gather the padded image line into a [P, Q] column
     matrix through a precomputed F64 index array ([Cols = ImF[cidx[p,
     q]]]), then one dense matmul against the filter bank; the gather
     lowers as a bulk "gather" kernel, the matmul as "contract".
   - [conv_direct]: the affine baseline — a raw-builder WCR contraction
     over (p, f, q) with subscript [p + q], no indirection. *)

module E = Symbolic.Expr
module S = Symbolic.Subset
module T = Tasklang.Types
open Sdfg_ir
open Builder
open Util

(* --- attention -------------------------------------------------------- *)

let attention_symbols = [ "M"; "N"; "D" ]

(* The exact text a serve client would submit. *)
let attention_src =
  "# scaled-dot-product attention\n\
   input Q[M, D]\n\
   input K[N, D]\n\
   input V[N, D]\n\
   input scale\n\
   output O[M, D]\n\
   temp S[M, N]\n\
   temp m[M, 1]\n\
   temp E[M, N]\n\
   temp Z[M, 1]\n\
   S = Q @ transpose(K) * scale\n\
   m = amax(S, 1, keep)\n\
   E = exp(S - m)\n\
   Z = sum(E, 1, keep)\n\
   O = (E / Z) @ V\n"

let base () = Ndlang.parse ~name:"attention" attention_src

(* Tile every 3-D contraction map (the [_mi, _mj, _mk] matmul pattern
   Ndlang emits) with square tiles.  Candidate notes are snapshotted
   before the first application: tiling leaves an inner map whose note
   still mentions [_mk], and the snapshot keeps it from being re-tiled. *)
let tile_contractions ?(tile = 8) g =
  let x = Transform.Map_xforms.map_tiling_sized ~tile_sizes:[ tile ] in
  let has_mk (c : Transform.Xform.candidate) =
    let note = c.Transform.Xform.c_note and pat = "_mk=" in
    let ln = String.length note and m = String.length pat in
    let rec go i = i + m <= ln && (String.sub note i m = pat || go (i + 1)) in
    go 0
  in
  let notes =
    x.Transform.Xform.x_find g |> List.filter has_mk
    |> List.map (fun c -> c.Transform.Xform.c_note)
    |> List.sort_uniq compare
  in
  List.iter
    (fun note ->
      match
        x.Transform.Xform.x_find g
        |> List.find_opt (fun c -> c.Transform.Xform.c_note = note)
      with
      | Some c -> Transform.Xform.apply g x c
      | None -> ())
    notes

let tiled () =
  let g = base () in
  tile_contractions g;
  g

let attention_mini = [ ("M", 6); ("N", 5); ("D", 4) ]
let attention_paper = [ ("M", 192); ("N", 160); ("D", 64) ]

let attention_args symbols =
  let m = List.assoc "M" symbols
  and n = List.assoc "N" symbols
  and d = List.assoc "D" symbols in
  let scale =
    Interp.Tensor.init f64 [||] (fun _ -> T.F (1. /. sqrt (float_of_int d)))
  in
  [ ("Q", rand_f [| m; d |] 3);
    ("K", rand_f [| n; d |] 5);
    ("V", rand_f [| n; d |] 7);
    ("scale", scale);
    ("O", zeros [| m; d |]) ]

(* --- im2col convolution ----------------------------------------------- *)

let conv_symbols = [ "P"; "Q"; "F"; "PAD" ]

(* 1-D convolution over a padded image line [ImF] (PAD = P + Q - 1)
   against [F] filters of width [Q].  [cidx[p, q] = p + q] is built on
   the host, as im2col pipelines do. *)
let conv_src =
  "# im2col convolution: gather columns, then one GEMM\n\
   input ImF[PAD]\n\
   input cidx[P, Q]\n\
   input Wf[Q, F]\n\
   output O2[P, F]\n\
   temp Cols[P, Q]\n\
   Cols = ImF[cidx[p, q]]\n\
   O2 = Cols @ Wf\n"

let conv_im2col () = Ndlang.parse ~name:"conv_im2col" conv_src

(* Direct affine baseline: O2[p, f] = Σ_q ImF[p + q] · Wf[q, f].
   [cidx] is declared (unused) so both variants share one argument
   set. *)
let conv_direct () =
  let g = Sdfg.create ~symbols:conv_symbols "conv_direct" in
  let p = s "P" and q = s "Q" and f = s "F" and pad = s "PAD" in
  vec g "ImF" pad;
  mat g "cidx" p q;
  mat g "Wf" q f;
  mat g "O2" p f;
  let init = Sdfg.add_state g ~label:"init" () in
  pmap g init ~name:"zero_out" ~params:[ "p"; "f" ]
    ~ranges:[ r0 p; r0 f ]
    ~ins:[]
    ~outs:[ Build.out_elem "o" "O2" [ s "p"; s "f" ] ]
    ~code:(`Src "o = 0.0");
  let main = Sdfg.add_state g ~label:"conv" () in
  chain g init main;
  pmap g main ~name:"conv_mac" ~params:[ "p"; "f"; "q" ]
    ~ranges:[ r0 p; r0 f; r0 q ]
    ~ins:
      [ Build.in_elem "a" "ImF" [ E.add (s "p") (s "q") ];
        Build.in_elem "b" "Wf" [ s "q"; s "f" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "o" "O2" [ s "p"; s "f" ] ]
    ~code:(`Src "o = a * b");
  Build.finalize g

let conv_mini = [ ("P", 8); ("Q", 4); ("F", 5); ("PAD", 11) ]
let conv_paper = [ ("P", 1024); ("Q", 16); ("F", 64); ("PAD", 1039) ]

let conv_args symbols =
  let p = List.assoc "P" symbols
  and q = List.assoc "Q" symbols
  and f = List.assoc "F" symbols
  and pad = List.assoc "PAD" symbols in
  let cidx =
    Interp.Tensor.init f64 [| p; q |] (fun idx ->
        match idx with
        | [ a; b ] -> T.F (float_of_int (a + b))
        | _ -> T.F 0.)
  in
  [ ("ImF", rand_f [| pad |] 17);
    ("cidx", cidx);
    ("Wf", rand_f [| q; f |] 19);
    ("O2", zeros [| p; f |]) ]

let hints = [ ("S_mult", 1.0); ("O_mult", 1.0); ("conv_mac", 1.0) ]
