(* The Polybench benchmark suite over SDFGs (paper §5, Fig. 13).

   Each kernel is reimplemented as an SDFG exactly as the DaCe Python
   frontend would produce it: parallel loops become CPU-multicore maps,
   reductions become write-conflict-resolution memlets, loop-carried
   dependencies become state-machine loops, and triangular iteration
   spaces use guarded tasklets.  No optimizing transformations are
   applied here — §5 evaluates the representation itself ("assessing
   performance without transformations"). *)

module E = Symbolic.Expr
module S = Symbolic.Subset
open Sdfg_ir
open Builder
open Util

type kernel = {
  k_name : string;
  k_build : unit -> Sdfg.t;
  k_large : (string * int) list;   (* Polybench LARGE-equivalent sizes *)
  k_mini : (string * int) list;    (* interpreter-testable sizes *)
  k_hints : (string * int) list -> (string * float) list;
    (* cost-model hints (avg data-dependent trip counts) from sizes *)
}

let no_hints _ = []

let kernel ?(hints = no_hints) name build ~large ~mini =
  { k_name = name; k_build = build; k_large = large; k_mini = mini;
    k_hints = hints }

(* ---------- BLAS-like kernels --------------------------------------------- *)

(* C = alpha*A*B + beta*C *)
let gemm () =
  let g = Sdfg.create ~symbols:[ "NI"; "NJ"; "NK" ] "gemm" in
  let ni = s "NI" and nj = s "NJ" and nk = s "NK" in
  mat g "A" ni nk;
  mat g "B" nk nj;
  mat g "C" ni nj;
  let scale = Sdfg.add_state g ~label:"scale" () in
  pmap g scale ~name:"scale_c" ~params:[ "i"; "j" ] ~ranges:[ r0 ni; r0 nj ]
    ~ins:[ Build.in_elem "c" "C" [ s "i"; s "j" ] ]
    ~outs:[ Build.out_elem "co" "C" [ s "i"; s "j" ] ]
    ~code:(`Src "co = 1.2 * c");
  let main = Sdfg.add_state g ~label:"main" () in
  chain g scale main;
  pmap g main ~name:"mm" ~params:[ "i"; "j"; "k" ]
    ~ranges:[ r0 ni; r0 nj; r0 nk ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "i"; s "k" ];
        Build.in_elem "b" "B" [ s "k"; s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "c" "C" [ s "i"; s "j" ] ]
    ~code:(`Src "c = 1.5 * a * b");
  Build.finalize g

(* D = A*B; E = C*D *)
let k2mm () =
  let g = Sdfg.create ~symbols:[ "NI"; "NJ"; "NK"; "NL" ] "two_mm" in
  let ni = s "NI" and nj = s "NJ" and nk = s "NK" and nl = s "NL" in
  mat g "A" ni nk;
  mat g "B" nk nj;
  mat g "C" nj nl;
  mat g "D" ni nl;
  tmat g "tmp" ni nj;
  let init = Sdfg.add_state g ~label:"init" () in
  pmap g init ~name:"zero_tmp" ~params:[ "i"; "j" ] ~ranges:[ r0 ni; r0 nj ]
    ~ins:[]
    ~outs:[ Build.out_elem "t" "tmp" [ s "i"; s "j" ] ]
    ~code:(`Src "t = 0.0");
  let mm1 = Sdfg.add_state g ~label:"mm1" () in
  chain g init mm1;
  pmap g mm1 ~name:"first" ~params:[ "i"; "j"; "k" ]
    ~ranges:[ r0 ni; r0 nj; r0 nk ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "i"; s "k" ];
        Build.in_elem "b" "B" [ s "k"; s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "t" "tmp" [ s "i"; s "j" ] ]
    ~code:(`Src "t = 1.5 * a * b");
  let scale = Sdfg.add_state g ~label:"scale" () in
  chain g mm1 scale;
  pmap g scale ~name:"scale_d" ~params:[ "i"; "l" ] ~ranges:[ r0 ni; r0 nl ]
    ~ins:[ Build.in_elem "d" "D" [ s "i"; s "l" ] ]
    ~outs:[ Build.out_elem "dd" "D" [ s "i"; s "l" ] ]
    ~code:(`Src "dd = 1.2 * d");
  let mm2 = Sdfg.add_state g ~label:"mm2" () in
  chain g scale mm2;
  pmap g mm2 ~name:"second" ~params:[ "i"; "l"; "j" ]
    ~ranges:[ r0 ni; r0 nl; r0 nj ]
    ~ins:
      [ Build.in_elem "t" "tmp" [ s "i"; s "j" ];
        Build.in_elem "c" "C" [ s "j"; s "l" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "d" "D" [ s "i"; s "l" ] ]
    ~code:(`Src "d = t * c");
  Build.finalize g

(* E = A*B; F = C*D; G = E*F *)
let k3mm () =
  let g = Sdfg.create ~symbols:[ "NI"; "NJ"; "NK"; "NL"; "NM" ] "three_mm" in
  let ni = s "NI" and nj = s "NJ" and nk = s "NK" and nl = s "NL"
  and nm = s "NM" in
  mat g "A" ni nk;
  mat g "B" nk nj;
  mat g "C" nj nm;
  mat g "D" nm nl;
  mat g "G" ni nl;
  tmat g "Emat" ni nj;
  tmat g "Fmat" nj nl;
  let init = Sdfg.add_state g ~label:"init" () in
  pmap g init ~name:"zero_e" ~params:[ "i"; "j" ] ~ranges:[ r0 ni; r0 nj ]
    ~ins:[]
    ~outs:[ Build.out_elem "e" "Emat" [ s "i"; s "j" ] ]
    ~code:(`Src "e = 0.0");
  pmap g init ~name:"zero_f" ~params:[ "j"; "l" ] ~ranges:[ r0 nj; r0 nl ]
    ~ins:[]
    ~outs:[ Build.out_elem "f" "Fmat" [ s "j"; s "l" ] ]
    ~code:(`Src "f = 0.0");
  pmap g init ~name:"zero_g" ~params:[ "i"; "l" ] ~ranges:[ r0 ni; r0 nl ]
    ~ins:[]
    ~outs:[ Build.out_elem "gg" "G" [ s "i"; s "l" ] ]
    ~code:(`Src "gg = 0.0");
  let st1 = Sdfg.add_state g ~label:"mm1" () in
  chain g init st1;
  pmap g st1 ~name:"e_ab" ~params:[ "i"; "j"; "k" ]
    ~ranges:[ r0 ni; r0 nj; r0 nk ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "i"; s "k" ];
        Build.in_elem "b" "B" [ s "k"; s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "e" "Emat" [ s "i"; s "j" ] ]
    ~code:(`Src "e = a * b");
  let st2 = Sdfg.add_state g ~label:"mm2" () in
  chain g st1 st2;
  pmap g st2 ~name:"f_cd" ~params:[ "j"; "l"; "m" ]
    ~ranges:[ r0 nj; r0 nl; r0 nm ]
    ~ins:
      [ Build.in_elem "c" "C" [ s "j"; s "m" ];
        Build.in_elem "d" "D" [ s "m"; s "l" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "f" "Fmat" [ s "j"; s "l" ] ]
    ~code:(`Src "f = c * d");
  let st3 = Sdfg.add_state g ~label:"mm3" () in
  chain g st2 st3;
  pmap g st3 ~name:"g_ef" ~params:[ "i"; "l"; "j" ]
    ~ranges:[ r0 ni; r0 nl; r0 nj ]
    ~ins:
      [ Build.in_elem "e" "Emat" [ s "i"; s "j" ];
        Build.in_elem "f" "Fmat" [ s "j"; s "l" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "gg" "G" [ s "i"; s "l" ] ]
    ~code:(`Src "gg = e * f");
  Build.finalize g

(* y = A^T (A x) *)
let atax () =
  let g = Sdfg.create ~symbols:[ "M"; "N" ] "atax" in
  let m = s "M" and n = s "N" in
  mat g "A" m n;
  vec g "x" n;
  vec g "y" n;
  tvec g "tmp" m;
  let init = Sdfg.add_state g ~label:"init" () in
  pmap g init ~name:"zero_tmp" ~params:[ "i" ] ~ranges:[ r0 m ] ~ins:[]
    ~outs:[ Build.out_elem "t" "tmp" [ s "i" ] ]
    ~code:(`Src "t = 0.0");
  pmap g init ~name:"zero_y" ~params:[ "j" ] ~ranges:[ r0 n ] ~ins:[]
    ~outs:[ Build.out_elem "yy" "y" [ s "j" ] ]
    ~code:(`Src "yy = 0.0");
  let ax = Sdfg.add_state g ~label:"ax" () in
  chain g init ax;
  pmap g ax ~name:"a_x" ~params:[ "i"; "j" ] ~ranges:[ r0 m; r0 n ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "i"; s "j" ];
        Build.in_elem "xx" "x" [ s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "t" "tmp" [ s "i" ] ]
    ~code:(`Src "t = a * xx");
  let aty = Sdfg.add_state g ~label:"aty" () in
  chain g ax aty;
  pmap g aty ~name:"at_tmp" ~params:[ "i"; "j" ] ~ranges:[ r0 m; r0 n ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "i"; s "j" ];
        Build.in_elem "t" "tmp" [ s "i" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "yy" "y" [ s "j" ] ]
    ~code:(`Src "yy = a * t");
  Build.finalize g

(* s = A^T r ; q = A p — two concurrent components (§3.3) *)
let bicg () =
  let g = Sdfg.create ~symbols:[ "M"; "N" ] "bicg" in
  let m = s "M" and n = s "N" in
  mat g "A" n m;
  vec g "p" m;
  vec g "r" n;
  vec g "sv" m;
  vec g "q" n;
  let init = Sdfg.add_state g ~label:"init" () in
  pmap g init ~name:"zero_s" ~params:[ "j" ] ~ranges:[ r0 m ] ~ins:[]
    ~outs:[ Build.out_elem "so" "sv" [ s "j" ] ]
    ~code:(`Src "so = 0.0");
  pmap g init ~name:"zero_q" ~params:[ "i" ] ~ranges:[ r0 n ] ~ins:[]
    ~outs:[ Build.out_elem "qo" "q" [ s "i" ] ]
    ~code:(`Src "qo = 0.0");
  let main = Sdfg.add_state g ~label:"main" () in
  chain g init main;
  pmap g main ~name:"s_atr" ~params:[ "i"; "j" ] ~ranges:[ r0 n; r0 m ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "i"; s "j" ];
        Build.in_elem "rr" "r" [ s "i" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "so" "sv" [ s "j" ] ]
    ~code:(`Src "so = a * rr");
  pmap g main ~name:"q_ap" ~params:[ "i"; "j" ] ~ranges:[ r0 n; r0 m ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "i"; s "j" ];
        Build.in_elem "pp" "p" [ s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "qo" "q" [ s "i" ] ]
    ~code:(`Src "qo = a * pp");
  Build.finalize g

(* x1 += A y1 ; x2 += A^T y2 *)
let mvt () =
  let g = Sdfg.create ~symbols:[ "N" ] "mvt" in
  let n = s "N" in
  mat g "A" n n;
  vec g "x1" n;
  vec g "x2" n;
  vec g "y1" n;
  vec g "y2" n;
  let main = Sdfg.add_state g ~label:"main" () in
  pmap g main ~name:"x1_ay1" ~params:[ "i"; "j" ] ~ranges:[ r0 n; r0 n ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "i"; s "j" ];
        Build.in_elem "y" "y1" [ s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "x" "x1" [ s "i" ] ]
    ~code:(`Src "x = a * y");
  pmap g main ~name:"x2_aty2" ~params:[ "i"; "j" ] ~ranges:[ r0 n; r0 n ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "j"; s "i" ];
        Build.in_elem "y" "y2" [ s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "x" "x2" [ s "i" ] ]
    ~code:(`Src "x = a * y");
  Build.finalize g

(* gemver: A' = A + u1 v1^T + u2 v2^T ; x = beta A'^T y + z ; w = alpha A' x *)
let gemver () =
  let g = Sdfg.create ~symbols:[ "N" ] "gemver" in
  let n = s "N" in
  mat g "A" n n;
  List.iter (fun v -> vec g v n)
    [ "u1"; "v1"; "u2"; "v2"; "w"; "x"; "y"; "z" ];
  let st1 = Sdfg.add_state g ~label:"rank2" () in
  pmap g st1 ~name:"rank_update" ~params:[ "i"; "j" ] ~ranges:[ r0 n; r0 n ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "i"; s "j" ];
        Build.in_elem "u1e" "u1" [ s "i" ];
        Build.in_elem "v1e" "v1" [ s "j" ];
        Build.in_elem "u2e" "u2" [ s "i" ];
        Build.in_elem "v2e" "v2" [ s "j" ] ]
    ~outs:[ Build.out_elem "ao" "A" [ s "i"; s "j" ] ]
    ~code:(`Src "ao = a + u1e * v1e + u2e * v2e");
  let st2 = Sdfg.add_state g ~label:"xbty" () in
  chain g st1 st2;
  pmap g st2 ~name:"x_atby" ~params:[ "i"; "j" ] ~ranges:[ r0 n; r0 n ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "j"; s "i" ];
        Build.in_elem "yy" "y" [ s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "xx" "x" [ s "i" ] ]
    ~code:(`Src "xx = 1.2 * a * yy");
  let st3 = Sdfg.add_state g ~label:"xz" () in
  chain g st2 st3;
  pmap g st3 ~name:"x_plus_z" ~params:[ "i" ] ~ranges:[ r0 n ]
    ~ins:
      [ Build.in_elem "xx" "x" [ s "i" ]; Build.in_elem "zz" "z" [ s "i" ] ]
    ~outs:[ Build.out_elem "xo" "x" [ s "i" ] ]
    ~code:(`Src "xo = xx + zz");
  let st4 = Sdfg.add_state g ~label:"w_ax" () in
  chain g st3 st4;
  pmap g st4 ~name:"w_aax" ~params:[ "i"; "j" ] ~ranges:[ r0 n; r0 n ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "i"; s "j" ];
        Build.in_elem "xx" "x" [ s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "ww" "w" [ s "i" ] ]
    ~code:(`Src "ww = 1.5 * a * xx");
  Build.finalize g

(* y = alpha A x + beta B x *)
let gesummv () =
  let g = Sdfg.create ~symbols:[ "N" ] "gesummv" in
  let n = s "N" in
  mat g "A" n n;
  mat g "B" n n;
  vec g "x" n;
  vec g "y" n;
  let init = Sdfg.add_state g ~label:"init" () in
  pmap g init ~name:"zero_y" ~params:[ "i" ] ~ranges:[ r0 n ] ~ins:[]
    ~outs:[ Build.out_elem "yy" "y" [ s "i" ] ]
    ~code:(`Src "yy = 0.0");
  let main = Sdfg.add_state g ~label:"main" () in
  chain g init main;
  pmap g main ~name:"summv" ~params:[ "i"; "j" ] ~ranges:[ r0 n; r0 n ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "i"; s "j" ];
        Build.in_elem "b" "B" [ s "i"; s "j" ];
        Build.in_elem "xx" "x" [ s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "yy" "y" [ s "i" ] ]
    ~code:(`Src "yy = 1.5 * a * xx + 1.2 * b * xx");
  Build.finalize g

(* symm: C = alpha A B + beta C, A symmetric (triangular traversal) *)
let symm () =
  let g = Sdfg.create ~symbols:[ "M"; "N" ] "symm" in
  let m = s "M" and n = s "N" in
  mat g "A" m m;
  mat g "B" m n;
  mat g "C" m n;
  let main = Sdfg.add_state g ~label:"main" () in
  pmap g main ~name:"symm_mm" ~params:[ "i"; "j"; "k" ]
    ~ranges:[ r0 m; r0 n; r0 m ]
    ~ins:
      [ Build.in_elem "a" "A" [ E.max_ (s "i") (s "k"); E.min_ (s "i") (s "k") ];
        Build.in_elem "b" "B" [ s "k"; s "j" ];
        Build.in_elem "c" "C" [ s "i"; s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "co" "C" [ s "i"; s "j" ] ]
    ~code:(`Src "co = 1.5 * a * b + (0.2 * c if k == 0 else 0.0)")
    ;
  Build.finalize g

(* syrk: C = alpha A A^T + beta C (lower triangle) *)
let syrk () =
  let g = Sdfg.create ~symbols:[ "N"; "M" ] "syrk" in
  let n = s "N" and m = s "M" in
  mat g "A" n m;
  mat g "C" n n;
  let scale = Sdfg.add_state g ~label:"scale" () in
  pmap g scale ~name:"scale_c" ~params:[ "i"; "j" ] ~ranges:[ r0 n; r0 n ]
    ~ins:[ Build.in_elem "c" "C" [ s "i"; s "j" ] ]
    ~outs:[ Build.out_elem "co" "C" [ s "i"; s "j" ] ]
    ~code:(`Src "co = 1.2 * c if j <= i else c");
  let main = Sdfg.add_state g ~label:"main" () in
  chain g scale main;
  pmap g main ~name:"syrk_mm" ~params:[ "i"; "j"; "k" ]
    ~ranges:[ r0 n; r0 n; r0 m ]
    ~ins:
      [ Build.in_elem "a1" "A" [ s "i"; s "k" ];
        Build.in_elem "a2" "A" [ s "j"; s "k" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum ~dynamic:true "co" "C" [ s "i"; s "j" ] ]
    ~code:(`Src "if j <= i { co = 1.5 * a1 * a2 }");
  Build.finalize g

(* syr2k: C = alpha (A B^T + B A^T) + beta C *)
let syr2k () =
  let g = Sdfg.create ~symbols:[ "N"; "M" ] "syr2k" in
  let n = s "N" and m = s "M" in
  mat g "A" n m;
  mat g "B" n m;
  mat g "C" n n;
  let scale = Sdfg.add_state g ~label:"scale" () in
  pmap g scale ~name:"scale_c" ~params:[ "i"; "j" ] ~ranges:[ r0 n; r0 n ]
    ~ins:[ Build.in_elem "c" "C" [ s "i"; s "j" ] ]
    ~outs:[ Build.out_elem "co" "C" [ s "i"; s "j" ] ]
    ~code:(`Src "co = 1.2 * c if j <= i else c");
  let main = Sdfg.add_state g ~label:"main" () in
  chain g scale main;
  pmap g main ~name:"syr2k_mm" ~params:[ "i"; "j"; "k" ]
    ~ranges:[ r0 n; r0 n; r0 m ]
    ~ins:
      [ Build.in_elem "a1" "A" [ s "i"; s "k" ];
        Build.in_elem "b1" "B" [ s "i"; s "k" ];
        Build.in_elem "a2" "A" [ s "j"; s "k" ];
        Build.in_elem "b2" "B" [ s "j"; s "k" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum ~dynamic:true "co" "C" [ s "i"; s "j" ] ]
    ~code:(`Src "if j <= i { co = 1.5 * (a1 * b2 + b1 * a2) }");
  Build.finalize g

(* trmm: B = alpha A^T B, A unit lower triangular *)
let trmm () =
  let g = Sdfg.create ~symbols:[ "M"; "N" ] "trmm" in
  let m = s "M" and n = s "N" in
  mat g "A" m m;
  mat g "B" m n;
  let main = Sdfg.add_state g ~label:"main" () in
  pmap g main ~name:"trmm_mm" ~params:[ "i"; "j"; "k" ]
    ~ranges:[ r0 m; r0 n; r0 m ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "k"; s "i" ];
        Build.in_elem "b" "B" [ s "k"; s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum ~dynamic:true "bo" "B" [ s "i"; s "j" ] ]
    ~code:(`Src "if k > i { bo = a * b }");
  let scale = Sdfg.add_state g ~label:"scale" () in
  chain g main scale;
  pmap g scale ~name:"scale_b" ~params:[ "i"; "j" ] ~ranges:[ r0 m; r0 n ]
    ~ins:[ Build.in_elem "b" "B" [ s "i"; s "j" ] ]
    ~outs:[ Build.out_elem "bo" "B" [ s "i"; s "j" ] ]
    ~code:(`Src "bo = 1.5 * b");
  Build.finalize g

(* doitgen: sum[r,q,p] = sum_s A[r,q,s] * C4[s,p], then copy back *)
let doitgen () =
  let g = Sdfg.create ~symbols:[ "NR"; "NQ"; "NP" ] "doitgen" in
  let nr = s "NR" and nq = s "NQ" and np = s "NP" in
  cube g "A" nr nq np;
  mat g "C4" np np;
  Sdfg.add_array g "sum" ~transient:true ~shape:[ nr; nq; np ] ~dtype:f64;
  let init = Sdfg.add_state g ~label:"init" () in
  pmap g init ~name:"zero_sum" ~params:[ "r"; "q"; "p" ]
    ~ranges:[ r0 nr; r0 nq; r0 np ]
    ~ins:[]
    ~outs:[ Build.out_elem "ss" "sum" [ s "r"; s "q"; s "p" ] ]
    ~code:(`Src "ss = 0.0");
  let main = Sdfg.add_state g ~label:"main" () in
  chain g init main;
  pmap g main ~name:"contract" ~params:[ "r"; "q"; "p"; "sp" ]
    ~ranges:[ r0 nr; r0 nq; r0 np; r0 np ]
    ~ins:
      [ Build.in_elem "a" "A" [ s "r"; s "q"; s "sp" ];
        Build.in_elem "c4" "C4" [ s "sp"; s "p" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "ss" "sum" [ s "r"; s "q"; s "p" ] ]
    ~code:(`Src "ss = a * c4");
  let back = Sdfg.add_state g ~label:"writeback" () in
  chain g main back;
  pmap g back ~name:"copy_back" ~params:[ "r"; "q"; "p" ]
    ~ranges:[ r0 nr; r0 nq; r0 np ]
    ~ins:[ Build.in_elem "ss" "sum" [ s "r"; s "q"; s "p" ] ]
    ~outs:[ Build.out_elem "a" "A" [ s "r"; s "q"; s "p" ] ]
    ~code:(`Src "a = ss");
  Build.finalize g

(* ---------- data mining ----------------------------------------------------- *)

let covariance_like name extra_normalize () =
  let g = Sdfg.create ~symbols:[ "M"; "N" ] name in
  let m = s "M" and n = s "N" in
  mat g "data" n m;
  mat g "cov" m m;
  tvec g "mean" m;
  (if extra_normalize then tvec g "stddev" m);
  let init = Sdfg.add_state g ~label:"init" () in
  pmap g init ~name:"zero_mean" ~params:[ "j" ] ~ranges:[ r0 m ] ~ins:[]
    ~outs:[ Build.out_elem "mn" "mean" [ s "j" ] ]
    ~code:(`Src "mn = 0.0");
  let mean_st = Sdfg.add_state g ~label:"mean" () in
  chain g init mean_st;
  pmap g mean_st ~name:"mean_sum" ~params:[ "i"; "j" ] ~ranges:[ r0 n; r0 m ]
    ~ins:[ Build.in_elem "d" "data" [ s "i"; s "j" ] ]
    ~outs:[ Build.out_elem ~wcr:Wcr.sum "mn" "mean" [ s "j" ] ]
    ~code:(`Src "mn = d");
  let mean_div = Sdfg.add_state g ~label:"mean_div" () in
  chain g mean_st mean_div;
  pmap g mean_div ~name:"mean_norm" ~params:[ "j" ] ~ranges:[ r0 m ]
    ~ins:[ Build.in_elem "mn" "mean" [ s "j" ] ]
    ~outs:[ Build.out_elem "mo" "mean" [ s "j" ] ]
    ~code:(`Src "mo = mn / N");
  let center = Sdfg.add_state g ~label:"center" () in
  chain g mean_div center;
  pmap g center ~name:"subtract_mean" ~params:[ "i"; "j" ]
    ~ranges:[ r0 n; r0 m ]
    ~ins:
      [ Build.in_elem "d" "data" [ s "i"; s "j" ];
        Build.in_elem "mn" "mean" [ s "j" ] ]
    ~outs:[ Build.out_elem "dd" "data" [ s "i"; s "j" ] ]
    ~code:(`Src "dd = d - mn");
  let last = ref center in
  if extra_normalize then begin
    (* correlation also divides by the standard deviation *)
    let sd_zero = Sdfg.add_state g ~label:"sd_zero" () in
    chain g !last sd_zero;
    pmap g sd_zero ~name:"zero_sd" ~params:[ "j" ] ~ranges:[ r0 m ] ~ins:[]
      ~outs:[ Build.out_elem "sd" "stddev" [ s "j" ] ]
      ~code:(`Src "sd = 0.0");
    let sd_sum = Sdfg.add_state g ~label:"sd_sum" () in
    chain g sd_zero sd_sum;
    pmap g sd_sum ~name:"sd_acc" ~params:[ "i"; "j" ] ~ranges:[ r0 n; r0 m ]
      ~ins:[ Build.in_elem "d" "data" [ s "i"; s "j" ] ]
      ~outs:[ Build.out_elem ~wcr:Wcr.sum "sd" "stddev" [ s "j" ] ]
      ~code:(`Src "sd = d * d");
    let sd_fin = Sdfg.add_state g ~label:"sd_fin" () in
    chain g sd_sum sd_fin;
    pmap g sd_fin ~name:"sd_sqrt" ~params:[ "j" ] ~ranges:[ r0 m ]
      ~ins:[ Build.in_elem "sd" "stddev" [ s "j" ] ]
      ~outs:[ Build.out_elem "so" "stddev" [ s "j" ] ]
      ~code:(`Src "t = sqrt(sd / N)\nso = 1.0 if t <= 0.1 else t");
    let norm = Sdfg.add_state g ~label:"normalize" () in
    chain g sd_fin norm;
    pmap g norm ~name:"divide_sd" ~params:[ "i"; "j" ]
      ~ranges:[ r0 n; r0 m ]
      ~ins:
        [ Build.in_elem "d" "data" [ s "i"; s "j" ];
          Build.in_elem "sd" "stddev" [ s "j" ] ]
      ~outs:[ Build.out_elem "dd" "data" [ s "i"; s "j" ] ]
      ~code:(`Src "dd = d / (sqrt(N) * sd)");
    last := norm
  end;
  let czero = Sdfg.add_state g ~label:"cov_zero" () in
  chain g !last czero;
  pmap g czero ~name:"zero_cov" ~params:[ "j1"; "j2" ] ~ranges:[ r0 m; r0 m ]
    ~ins:[]
    ~outs:[ Build.out_elem "cc" "cov" [ s "j1"; s "j2" ] ]
    ~code:(`Src "cc = 0.0");
  let main = Sdfg.add_state g ~label:"main" () in
  chain g czero main;
  pmap g main ~name:"cov_mm" ~params:[ "j1"; "j2"; "i" ]
    ~ranges:[ r0 m; r0 m; r0 n ]
    ~ins:
      [ Build.in_elem "d1" "data" [ s "i"; s "j1" ];
        Build.in_elem "d2" "data" [ s "i"; s "j2" ] ]
    ~outs:
      [ Build.out_elem ~wcr:Wcr.sum ~dynamic:true "cc" "cov"
          [ s "j1"; s "j2" ] ]
    ~code:(`Src "if j2 <= j1 { cc = d1 * d2 / (N - 1.0) }");
  Build.finalize g

let covariance = covariance_like "covariance" false
let correlation = covariance_like "correlation" true

(* ---------- solvers ----------------------------------------------------------- *)

(* cholesky: sequential k loop; division map and trailing update *)
let cholesky () =
  let g = Sdfg.create ~symbols:[ "N" ] "cholesky" in
  let n = s "N" in
  mat g "A" n n;
  let pre, body = loop_state g ~sym:"k" ~lo:E.zero ~hi:n ~label:"kloop"
      (fun body ->
        let k = s "k" in
        (* A[k][k] = sqrt(A[k][k]) *)
        ignore
          (Build.simple_tasklet g body ~name:"diag_sqrt"
             ~ins:[ Build.in_elem "akk" "A" [ k; k ] ]
             ~outs:[ Build.out_elem "ao" "A" [ k; k ] ]
             ~code:(`Src "ao = sqrt(akk)") ());
        (* column scale: A[i][k] /= A[k][k], i > k *)
        pmap g body ~name:"col_scale" ~params:[ "i" ]
          ~ranges:[ rng (E.add k E.one) (E.sub n E.one) ]
          ~ins:
            [ Build.in_elem "aik" "A" [ s "i"; k ];
              Build.in_elem "akk" "A" [ k; k ] ]
          ~outs:[ Build.out_elem "ao" "A" [ s "i"; k ] ]
          ~code:(`Src "ao = aik / akk");
        (* trailing update: A[i][j] -= A[i][k]*A[j][k], k < j <= i *)
        pmap g body ~name:"trailing" ~params:[ "i"; "j" ]
          ~ranges:
            [ rng (E.add k E.one) (E.sub n E.one);
              rng (E.add k E.one) (E.sub n E.one) ]
          ~ins:
            [ Build.in_elem "aik" "A" [ s "i"; k ];
              Build.in_elem "ajk" "A" [ s "j"; k ];
              Build.in_elem "aij" "A" [ s "i"; s "j" ] ]
          ~outs:[ Build.out_elem ~dynamic:true "ao" "A" [ s "i"; s "j" ] ]
          ~code:(`Src "if j <= i { ao = aij - aik * ajk }"))
  in
  ignore pre;
  ignore body;
  Build.finalize g

(* lu decomposition: same skeleton, unnormalized *)
let lu () =
  let g = Sdfg.create ~symbols:[ "N" ] "lu" in
  let n = s "N" in
  mat g "A" n n;
  ignore
    (loop_state g ~sym:"k" ~lo:E.zero ~hi:n ~label:"kloop" (fun body ->
         let k = s "k" in
         pmap g body ~name:"col_scale" ~params:[ "i" ]
           ~ranges:[ rng (E.add k E.one) (E.sub n E.one) ]
           ~ins:
             [ Build.in_elem "aik" "A" [ s "i"; k ];
               Build.in_elem "akk" "A" [ k; k ] ]
           ~outs:[ Build.out_elem "ao" "A" [ s "i"; k ] ]
           ~code:(`Src "ao = aik / akk");
         pmap g body ~name:"trailing" ~params:[ "i"; "j" ]
           ~ranges:
             [ rng (E.add k E.one) (E.sub n E.one);
               rng (E.add k E.one) (E.sub n E.one) ]
           ~ins:
             [ Build.in_elem "aik" "A" [ s "i"; k ];
               Build.in_elem "akj" "A" [ k; s "j" ];
               Build.in_elem "aij" "A" [ s "i"; s "j" ] ]
           ~outs:[ Build.out_elem "ao" "A" [ s "i"; s "j" ] ]
           ~code:(`Src "ao = aij - aik * akj")));
  Build.finalize g

(* ludcmp: LU followed by forward/back substitution *)
let ludcmp () =
  let g = Sdfg.create ~symbols:[ "N" ] "ludcmp" in
  let n = s "N" in
  mat g "A" n n;
  vec g "b" n;
  vec g "x" n;
  tvec g "yv" n;
  let _, lu_body =
    loop_state g ~sym:"k" ~lo:E.zero ~hi:n ~label:"kloop" (fun body ->
        let k = s "k" in
        pmap g body ~name:"col_scale" ~params:[ "i" ]
          ~ranges:[ rng (E.add k E.one) (E.sub n E.one) ]
          ~ins:
            [ Build.in_elem "aik" "A" [ s "i"; k ];
              Build.in_elem "akk" "A" [ k; k ] ]
          ~outs:[ Build.out_elem "ao" "A" [ s "i"; k ] ]
          ~code:(`Src "ao = aik / akk");
        pmap g body ~name:"trailing" ~params:[ "i"; "j" ]
          ~ranges:
            [ rng (E.add k E.one) (E.sub n E.one);
              rng (E.add k E.one) (E.sub n E.one) ]
          ~ins:
            [ Build.in_elem "aik" "A" [ s "i"; k ];
              Build.in_elem "akj" "A" [ k; s "j" ];
              Build.in_elem "aij" "A" [ s "i"; s "j" ] ]
          ~outs:[ Build.out_elem "ao" "A" [ s "i"; s "j" ] ]
          ~code:(`Src "ao = aij - aik * akj"))
  in
  (* forward substitution y, then back substitution x (sequential rows) *)
  let fwd = Sdfg.add_state g ~label:"forward" () in
  chain_after_loop g ~body:lu_body ~sym:"k" ~hi:n fwd;
  smap g fwd ~name:"fwd_solve" ~params:[ "i" ] ~ranges:[ r0 n ]
    ~ins:
      [ Build.in_elem "bb" "b" [ s "i" ];
        Build.in_ "lrow" "A" [ S.index (s "i"); S.full n ];
        Build.in_ ~dynamic:true "yin" "yv" [ S.full n ] ]
    ~outs:[ Build.out_elem "yy" "yv" [ s "i" ] ]
    ~code:
      (`Src "acc = bb\nfor j in 0:i { acc = acc - lrow[j] * yin[j] }\nyy = acc");
  let bwd = Sdfg.add_state g ~label:"backward" () in
  chain g fwd bwd;
  smap g bwd ~name:"bwd_solve" ~params:[ "i" ] ~ranges:[ r0 n ]
    ~ins:
      [ Build.in_elem "yy" "yv" [ E.sub (E.sub n E.one) (s "i") ];
        Build.in_ "urow" "A" [ S.index (E.sub (E.sub n E.one) (s "i")); S.full n ];
        Build.in_ ~dynamic:true "xin" "x" [ S.full n ] ]
    ~outs:[ Build.out_elem "xx" "x" [ E.sub (E.sub n E.one) (s "i") ] ]
    ~code:
      (`Src
        "row = N - 1 - i\nacc = yy\nfor j in 0:i { acc = acc - urow[N - 1 - j] * xin[N - 1 - j] }\nxx = acc / urow[row]");
  Build.finalize g

(* durbin: Levinson-Durbin recursion (sequential k loop over vector ops) *)
let durbin () =
  let g = Sdfg.create ~symbols:[ "N" ] "durbin" in
  let n = s "N" in
  vec g "rv" n;
  vec g "y" n;
  tvec g "z" n;
  Sdfg.add_scalar g ~transient:true "alpha" ~dtype:f64;
  Sdfg.add_scalar g ~transient:true "beta" ~dtype:f64;
  let init = Sdfg.add_state g ~label:"init" () in
  ignore
    (Build.simple_tasklet g init ~name:"durbin_init"
       ~ins:[ Build.in_elem "r0" "rv" [ E.zero ] ]
       ~outs:
         [ Build.out_elem "y0" "y" [ E.zero ];
           Build.out_elem "a" "alpha" [ E.zero ];
           Build.out_elem "bt" "beta" [ E.zero ] ]
       ~code:(`Src "y0 = -r0\na = -r0\nbt = 1.0") ());
  let pre, body =
    loop_state g ~sym:"k" ~lo:E.one ~hi:n ~label:"kloop" (fun body ->
        smap g body ~name:"durbin_step" ~params:[ "dummy" ]
          ~ranges:[ rng E.zero E.zero ]
          ~ins:
            [ Build.in_ ~dynamic:true "rr" "rv" [ S.full n ];
              Build.in_ ~dynamic:true "yin" "y" [ S.full n ];
              Build.in_elem "a" "alpha" [ E.zero ];
              Build.in_elem "bt" "beta" [ E.zero ] ]
          ~outs:
            [ Build.out_ ~dynamic:true "yo" "y" [ S.full n ];
              Build.out_elem "ao" "alpha" [ E.zero ];
              Build.out_elem "bo" "beta" [ E.zero ];
              Build.out_ ~dynamic:true "zo" "z" [ S.full n ] ]
          ~code:
            (`Src
              "b2 = (1.0 - a * a) * bt\n\
               acc = rr[k]\n\
               for j in 0:k { acc = acc + rr[k - j - 1] * yin[j] }\n\
               a2 = -acc / b2\n\
               for j in 0:k { zo[j] = yin[j] + a2 * yin[k - j - 1] }\n\
               for j in 0:k { yo[j] = zo[j] }\n\
               yo[k] = a2\n\
               ao = a2\n\
               bo = b2"))
  in
  chain g init pre;
  ignore body;
  Build.finalize g

(* gramschmidt: sequential k loop with column reductions *)
let gramschmidt () =
  let g = Sdfg.create ~symbols:[ "M"; "N" ] "gramschmidt" in
  let m = s "M" and n = s "N" in
  mat g "A" m n;
  mat g "R" n n;
  mat g "Q" m n;
  Sdfg.add_scalar g ~transient:true "nrm" ~dtype:f64;
  ignore
    (loop_state g ~sym:"k" ~lo:E.zero ~hi:n ~label:"kloop" (fun body ->
         let k = s "k" in
         (* nrm = sqrt(sum A[:,k]^2); R[k][k] = nrm *)
         ignore
           (Build.simple_tasklet g body ~name:"zero_nrm" ~ins:[]
              ~outs:[ Build.out_elem "nz" "nrm" [ E.zero ] ]
              ~code:(`Src "nz = 0.0") ());
         pmap g body ~name:"col_norm" ~params:[ "i" ] ~ranges:[ r0 m ]
           ~ins:[ Build.in_elem "a" "A" [ s "i"; k ] ]
           ~outs:[ Build.out_elem ~wcr:Wcr.sum "nz" "nrm" [ E.zero ] ]
           ~code:(`Src "nz = a * a");
         ignore
           (Build.simple_tasklet g body ~name:"rkk"
              ~ins:[ Build.in_elem "nz" "nrm" [ E.zero ] ]
              ~outs:[ Build.out_elem "rr" "R" [ k; k ] ]
              ~code:(`Src "rr = sqrt(nz)") ());
         (* Q[:,k] = A[:,k] / R[k][k] *)
         pmap g body ~name:"q_col" ~params:[ "i" ] ~ranges:[ r0 m ]
           ~ins:
             [ Build.in_elem "a" "A" [ s "i"; k ];
               Build.in_elem "rr" "R" [ k; k ] ]
           ~outs:[ Build.out_elem "q" "Q" [ s "i"; k ] ]
           ~code:(`Src "q = a / rr");
         (* for j > k: R[k][j] = Q[:,k] . A[:,j]; A[:,j] -= Q[:,k] R[k][j] *)
         pmap g body ~name:"r_row" ~params:[ "j" ]
           ~ranges:[ rng (E.add k E.one) (E.sub n E.one) ]
           ~ins:
             [ Build.in_ "qcol" "Q" [ S.full m; S.index k ];
               Build.in_ "acol" "A" [ S.full m; S.index (s "j") ] ]
           ~outs:[ Build.out_elem "rr" "R" [ k; s "j" ] ]
           ~code:
             (`Src "acc = 0.0\nfor i in 0:M { acc = acc + qcol[i] * acol[i] }\nrr = acc");
         pmap g body ~name:"a_update" ~params:[ "i"; "j" ]
           ~ranges:[ r0 m; rng (E.add k E.one) (E.sub n E.one) ]
           ~ins:
             [ Build.in_elem "a" "A" [ s "i"; s "j" ];
               Build.in_elem "q" "Q" [ s "i"; k ];
               Build.in_elem "rr" "R" [ k; s "j" ] ]
           ~outs:[ Build.out_elem "ao" "A" [ s "i"; s "j" ] ]
           ~code:(`Src "ao = a - q * rr")));
  Build.finalize g

(* trisolv: forward substitution *)
let trisolv () =
  let g = Sdfg.create ~symbols:[ "N" ] "trisolv" in
  let n = s "N" in
  mat g "L" n n;
  vec g "b" n;
  vec g "x" n;
  let main = Sdfg.add_state g ~label:"main" () in
  smap g main ~name:"solve_row" ~params:[ "i" ] ~ranges:[ r0 n ]
    ~ins:
      [ Build.in_elem "bb" "b" [ s "i" ];
        Build.in_ "lrow" "L" [ S.index (s "i"); S.full n ];
        Build.in_ ~dynamic:true "xin" "x" [ S.full n ] ]
    ~outs:[ Build.out_elem "xx" "x" [ s "i" ] ]
    ~code:
      (`Src "acc = bb\nfor j in 0:i { acc = acc - lrow[j] * xin[j] }\nxx = acc / lrow[i]");
  Build.finalize g

(* ---------- medley ------------------------------------------------------------ *)

(* floyd-warshall: k state loop with a parallel (i,j) relaxation *)
let floyd_warshall () =
  let g = Sdfg.create ~symbols:[ "N" ] "floyd_warshall" in
  let n = s "N" in
  mat g "path" n n;
  ignore
    (loop_state g ~sym:"k" ~lo:E.zero ~hi:n ~label:"kloop" (fun body ->
         let k = s "k" in
         pmap g body ~name:"relax" ~params:[ "i"; "j" ]
           ~ranges:[ r0 n; r0 n ]
           ~ins:
             [ Build.in_elem "pij" "path" [ s "i"; s "j" ];
               Build.in_elem "pik" "path" [ s "i"; k ];
               Build.in_elem "pkj" "path" [ k; s "j" ] ]
           ~outs:[ Build.out_elem "po" "path" [ s "i"; s "j" ] ]
           ~code:(`Src "po = min(pij, pik + pkj)")));
  Build.finalize g

(* deriche: horizontal + vertical recursive filter passes *)
let deriche () =
  let g = Sdfg.create ~symbols:[ "W"; "H" ] "deriche" in
  let w = s "W" and h = s "H" in
  mat g "imgIn" w h;
  mat g "imgOut" w h;
  tmat g "y1" w h;
  tmat g "y2" w h;
  let horiz = Sdfg.add_state g ~label:"horizontal" () in
  pmap g horiz ~name:"h_scan_fwd" ~params:[ "i" ] ~ranges:[ r0 w ]
    ~ins:[ Build.in_ "row" "imgIn" [ S.index (s "i"); S.full h ] ]
    ~outs:[ Build.out_ "yrow" "y1" [ S.index (s "i"); S.full h ] ]
    ~code:
      (`Src
        "ym1 = 0.0\nym2 = 0.0\nxm1 = 0.0\n\
         for j in 0:H { t = 0.5 * row[j] + 0.25 * xm1 + 0.5 * ym1 - 0.25 * ym2\n\
         yrow[j] = t\nym2 = ym1\nym1 = t\nxm1 = row[j] }");
  pmap g horiz ~name:"h_scan_bwd" ~params:[ "i" ] ~ranges:[ r0 w ]
    ~ins:[ Build.in_ "row" "imgIn" [ S.index (s "i"); S.full h ] ]
    ~outs:[ Build.out_ "yrow" "y2" [ S.index (s "i"); S.full h ] ]
    ~code:
      (`Src
        "yp1 = 0.0\nyp2 = 0.0\nxp1 = 0.0\nxp2 = 0.0\n\
         for jr in 0:H { j = H - 1 - jr\n\
         t = 0.25 * xp1 + 0.12 * xp2 + 0.5 * yp1 - 0.25 * yp2\n\
         yrow[j] = t\nyp2 = yp1\nyp1 = t\nxp2 = xp1\nxp1 = row[j] }");
  let combine = Sdfg.add_state g ~label:"combine" () in
  chain g horiz combine;
  pmap g combine ~name:"sum_passes" ~params:[ "i"; "j" ]
    ~ranges:[ r0 w; r0 h ]
    ~ins:
      [ Build.in_elem "a" "y1" [ s "i"; s "j" ];
        Build.in_elem "b" "y2" [ s "i"; s "j" ] ]
    ~outs:[ Build.out_elem "o" "imgOut" [ s "i"; s "j" ] ]
    ~code:(`Src "o = a + b");
  (* vertical passes over imgOut (same structure, transposed) *)
  let vert = Sdfg.add_state g ~label:"vertical" () in
  chain g combine vert;
  pmap g vert ~name:"v_scan" ~params:[ "j" ] ~ranges:[ r0 h ]
    ~ins:[ Build.in_ "col" "imgOut" [ S.full w; S.index (s "j") ] ]
    ~outs:[ Build.out_ "ocol" "imgOut" [ S.full w; S.index (s "j") ] ]
    ~code:
      (`Src
        "ym1 = 0.0\nym2 = 0.0\n\
         for i in 0:W { t = 0.5 * col[i] + 0.5 * ym1 - 0.25 * ym2\n\
         ocol[i] = t\nym2 = ym1\nym1 = t }");
  Build.finalize g

(* nussinov: RNA folding DP over anti-diagonals (sequential outer loop) *)
let nussinov () =
  let g = Sdfg.create ~symbols:[ "N" ] "nussinov" in
  let n = s "N" in
  vec g "seq" n;
  mat g "table" n n;
  ignore
    (loop_state g ~sym:"d" ~lo:E.one ~hi:n ~label:"diag" (fun body ->
         (* cells on anti-diagonal d are independent *)
         pmap g body ~name:"dp_cell" ~params:[ "i" ]
           ~ranges:[ rng E.zero (E.sub (E.sub n E.one) (s "d")) ]
           ~ins:
             [ Build.in_ ~dynamic:true "tb" "table" [ S.full n; S.full n ];
               Build.in_elem "si" "seq" [ s "i" ];
               Build.in_elem "sj" "seq" [ E.add (s "i") (s "d") ] ]
           ~outs:
             [ Build.out_elem "to" "table" [ s "i"; E.add (s "i") (s "d") ] ]
           ~code:
             (`Src
               "j = i + d\n\
                best = tb[i, j - 1]\n\
                t2 = tb[i + 1, j]\n\
                best = max(best, t2)\n\
                pair = 1.0 if si + sj == 3.0 else 0.0\n\
                t3 = (tb[i + 1, j - 1] + pair) if d >= 2 else pair\n\
                best = max(best, t3)\n\
                for k in 0:d { sp = tb[i, i + k] + tb[i + k + 1, j]\n\
                best = max(best, sp) }\n\
                to = best")));
  Build.finalize g

(* ---------- stencils ------------------------------------------------------------ *)

let jacobi_1d () =
  let g = Sdfg.create ~symbols:[ "N"; "T" ] "jacobi_1d" in
  let n = s "N" in
  vec g "A" n;
  vec g "B" n;
  ignore
    (loop_state g ~sym:"t" ~lo:E.zero ~hi:(s "T") ~label:"tloop" (fun body ->
         pmap g body ~name:"stencil_ab" ~params:[ "i" ]
           ~ranges:[ rng E.one (E.sub n (E.int 2)) ]
           ~ins:
             [ Build.in_ "a" "A" [ rng (E.sub (s "i") E.one) (E.add (s "i") E.one) ] ]
           ~outs:[ Build.out_elem "b" "B" [ s "i" ] ]
           ~code:(`Src "b = 0.33333 * (a[0] + a[1] + a[2])");
         pmap g body ~name:"stencil_ba" ~params:[ "i" ]
           ~ranges:[ rng E.one (E.sub n (E.int 2)) ]
           ~ins:
             [ Build.in_ "b" "B" [ rng (E.sub (s "i") E.one) (E.add (s "i") E.one) ] ]
           ~outs:[ Build.out_elem "a" "A" [ s "i" ] ]
           ~code:(`Src "a = 0.33333 * (b[0] + b[1] + b[2])")));
  Build.finalize g

let jacobi_2d () =
  let g = Sdfg.create ~symbols:[ "N"; "T" ] "jacobi_2d" in
  let n = s "N" in
  mat g "A" n n;
  mat g "B" n n;
  let five ~src ~dst body name =
    pmap g body ~name ~params:[ "i"; "j" ]
      ~ranges:
        [ rng E.one (E.sub n (E.int 2)); rng E.one (E.sub n (E.int 2)) ]
      ~ins:
        [ Build.in_elem "c" src [ s "i"; s "j" ];
          Build.in_elem "no" src [ E.sub (s "i") E.one; s "j" ];
          Build.in_elem "so" src [ E.add (s "i") E.one; s "j" ];
          Build.in_elem "we" src [ s "i"; E.sub (s "j") E.one ];
          Build.in_elem "ea" src [ s "i"; E.add (s "j") E.one ] ]
      ~outs:[ Build.out_elem "o" dst [ s "i"; s "j" ] ]
      ~code:(`Src "o = 0.2 * (c + no + so + we + ea)")
  in
  ignore
    (loop_state g ~sym:"t" ~lo:E.zero ~hi:(s "T") ~label:"tloop" (fun body ->
         five ~src:"A" ~dst:"B" body "jacobi_ab";
         five ~src:"B" ~dst:"A" body "jacobi_ba"));
  Build.finalize g

let heat_3d () =
  let g = Sdfg.create ~symbols:[ "N"; "T" ] "heat_3d" in
  let n = s "N" in
  cube g "A" n n n;
  cube g "B" n n n;
  let sweep ~src ~dst body name =
    pmap g body ~name ~params:[ "i"; "j"; "k" ]
      ~ranges:
        [ rng E.one (E.sub n (E.int 2));
          rng E.one (E.sub n (E.int 2));
          rng E.one (E.sub n (E.int 2)) ]
      ~ins:
        [ Build.in_elem "c" src [ s "i"; s "j"; s "k" ];
          Build.in_elem "xm" src [ E.sub (s "i") E.one; s "j"; s "k" ];
          Build.in_elem "xp" src [ E.add (s "i") E.one; s "j"; s "k" ];
          Build.in_elem "ym" src [ s "i"; E.sub (s "j") E.one; s "k" ];
          Build.in_elem "yp" src [ s "i"; E.add (s "j") E.one; s "k" ];
          Build.in_elem "zm" src [ s "i"; s "j"; E.sub (s "k") E.one ];
          Build.in_elem "zp" src [ s "i"; s "j"; E.add (s "k") E.one ] ]
      ~outs:[ Build.out_elem "o" dst [ s "i"; s "j"; s "k" ] ]
      ~code:
        (`Src
          "o = 0.125 * (xp - 2.0 * c + xm) + 0.125 * (yp - 2.0 * c + ym) + \
           0.125 * (zp - 2.0 * c + zm) + c")
  in
  ignore
    (loop_state g ~sym:"t" ~lo:E.zero ~hi:(s "T") ~label:"tloop" (fun body ->
         sweep ~src:"A" ~dst:"B" body "heat_ab";
         sweep ~src:"B" ~dst:"A" body "heat_ba"));
  Build.finalize g

(* seidel-2d: in-place dependences make the sweep sequential *)
let seidel_2d () =
  let g = Sdfg.create ~symbols:[ "N"; "T" ] "seidel_2d" in
  let n = s "N" in
  mat g "A" n n;
  ignore
    (loop_state g ~sym:"t" ~lo:E.zero ~hi:(s "T") ~label:"tloop" (fun body ->
         smap g body ~name:"seidel_sweep" ~params:[ "i"; "j" ]
           ~ranges:
             [ rng E.one (E.sub n (E.int 2)); rng E.one (E.sub n (E.int 2)) ]
           ~ins:
             [ Build.in_ "w" "A"
                 [ rng (E.sub (s "i") E.one) (E.add (s "i") E.one);
                   rng (E.sub (s "j") E.one) (E.add (s "j") E.one) ] ]
           ~outs:[ Build.out_elem "o" "A" [ s "i"; s "j" ] ]
           ~code:
             (`Src
               "o = (w[0, 0] + w[0, 1] + w[0, 2] + w[1, 0] + w[1, 1] + \
                w[1, 2] + w[2, 0] + w[2, 1] + w[2, 2]) / 9.0")));
  Build.finalize g

(* fdtd-2d: three dependent parallel sweeps per time step *)
let fdtd_2d () =
  let g = Sdfg.create ~symbols:[ "NX"; "NY"; "T" ] "fdtd_2d" in
  let nx = s "NX" and ny = s "NY" in
  mat g "ex" nx ny;
  mat g "ey" nx ny;
  mat g "hz" nx ny;
  vec g "fict" (s "T");
  ignore
    (loop_state g ~sym:"t" ~lo:E.zero ~hi:(s "T") ~label:"tloop" (fun body ->
         pmap g body ~name:"ey_boundary" ~params:[ "j" ] ~ranges:[ r0 ny ]
           ~ins:[ Build.in_elem "f" "fict" [ s "t" ] ]
           ~outs:[ Build.out_elem "e" "ey" [ E.zero; s "j" ] ]
           ~code:(`Src "e = f");
         pmap g body ~name:"ey_update" ~params:[ "i"; "j" ]
           ~ranges:[ r1 nx; r0 ny ]
           ~ins:
             [ Build.in_elem "e" "ey" [ s "i"; s "j" ];
               Build.in_elem "h1" "hz" [ s "i"; s "j" ];
               Build.in_elem "h2" "hz" [ E.sub (s "i") E.one; s "j" ] ]
           ~outs:[ Build.out_elem "eo" "ey" [ s "i"; s "j" ] ]
           ~code:(`Src "eo = e - 0.5 * (h1 - h2)");
         pmap g body ~name:"ex_update" ~params:[ "i"; "j" ]
           ~ranges:[ r0 nx; r1 ny ]
           ~ins:
             [ Build.in_elem "e" "ex" [ s "i"; s "j" ];
               Build.in_elem "h1" "hz" [ s "i"; s "j" ];
               Build.in_elem "h2" "hz" [ s "i"; E.sub (s "j") E.one ] ]
           ~outs:[ Build.out_elem "eo" "ex" [ s "i"; s "j" ] ]
           ~code:(`Src "eo = e - 0.5 * (h1 - h2)");
         pmap g body ~name:"hz_update" ~params:[ "i"; "j" ]
           ~ranges:
             [ rng E.zero (E.sub nx (E.int 2));
               rng E.zero (E.sub ny (E.int 2)) ]
           ~ins:
             [ Build.in_elem "h" "hz" [ s "i"; s "j" ];
               Build.in_elem "x1" "ex" [ s "i"; E.add (s "j") E.one ];
               Build.in_elem "x2" "ex" [ s "i"; s "j" ];
               Build.in_elem "y1" "ey" [ E.add (s "i") E.one; s "j" ];
               Build.in_elem "y2" "ey" [ s "i"; s "j" ] ]
           ~outs:[ Build.out_elem "ho" "hz" [ s "i"; s "j" ] ]
           ~code:(`Src "ho = h - 0.7 * (x1 - x2 + y1 - y2)")));
  Build.finalize g

(* adi: alternating-direction implicit — column sweeps then row sweeps *)
let adi () =
  let g = Sdfg.create ~symbols:[ "N"; "T" ] "adi" in
  let n = s "N" in
  mat g "u" n n;
  tmat g "v" n n;
  tmat g "p" n n;
  tmat g "q" n n;
  ignore
    (loop_state g ~sym:"t" ~lo:E.zero ~hi:(s "T") ~label:"tloop" (fun body ->
         pmap g body ~name:"col_sweep" ~params:[ "i" ] ~ranges:[ r1 n ]
           ~ins:
             [ Build.in_ "ucol" "u" [ S.full n; S.index (s "i") ];
               Build.in_ ~dynamic:true "pin" "p" [ S.full n; S.full n ];
               Build.in_ ~dynamic:true "qin" "q" [ S.full n; S.full n ] ]
           ~outs:
             [ Build.out_ "vcol" "v" [ S.full n; S.index (s "i") ];
               Build.out_ ~dynamic:true "po" "p" [ S.full n; S.full n ];
               Build.out_ ~dynamic:true "qo" "q" [ S.full n; S.full n ] ]
           ~code:
             (`Src
               "po[0, i] = 0.0\nqo[0, i] = 1.0\n\
                for j in 1:N { denom = -0.5 * po[j - 1, i] + 2.0\n\
                po[j, i] = 0.5 / denom\n\
                qo[j, i] = (ucol[j] + 0.5 * qo[j - 1, i]) / denom }\n\
                vcol[N - 1] = 1.0\n\
                for jr in 1:N { j = N - 1 - jr\n\
                vcol[j] = po[j, i] * vcol[j + 1] + qo[j, i] }");
         pmap g body ~name:"row_sweep" ~params:[ "i" ] ~ranges:[ r1 n ]
           ~ins:
             [ Build.in_ "vrow" "v" [ S.index (s "i"); S.full n ];
               Build.in_ ~dynamic:true "pin" "p" [ S.full n; S.full n ];
               Build.in_ ~dynamic:true "qin" "q" [ S.full n; S.full n ] ]
           ~outs:
             [ Build.out_ "urow" "u" [ S.index (s "i"); S.full n ];
               Build.out_ ~dynamic:true "po" "p" [ S.full n; S.full n ];
               Build.out_ ~dynamic:true "qo" "q" [ S.full n; S.full n ] ]
           ~code:
             (`Src
               "po[i, 0] = 0.0\nqo[i, 0] = 1.0\n\
                for j in 1:N { denom = -0.5 * po[i, j - 1] + 2.0\n\
                po[i, j] = 0.5 / denom\n\
                qo[i, j] = (vrow[j] + 0.5 * qo[i, j - 1]) / denom }\n\
                urow[N - 1] = 1.0\n\
                for jr in 1:N { j = N - 1 - jr\n\
                urow[j] = po[i, j] * urow[j + 1] + qo[i, j] }")));
  Build.finalize g

(* ---------- registry -------------------------------------------------------------- *)

let all : kernel list =
  [ kernel "2mm" k2mm
      ~large:[ ("NI", 800); ("NJ", 900); ("NK", 1100); ("NL", 1200) ]
      ~mini:[ ("NI", 4); ("NJ", 5); ("NK", 6); ("NL", 7) ];
    kernel "3mm" k3mm
      ~large:
        [ ("NI", 800); ("NJ", 900); ("NK", 1000); ("NL", 1100); ("NM", 1200) ]
      ~mini:[ ("NI", 4); ("NJ", 5); ("NK", 6); ("NL", 4); ("NM", 5) ];
    kernel "adi" adi
      ~large:[ ("N", 1000); ("T", 100) ]
      ~mini:[ ("N", 6); ("T", 2) ]
      ~hints:(fun sizes ->
        let n = float_of_int (List.assoc "N" sizes) in
        [ ("col_sweep", n); ("row_sweep", n) ]);
    kernel "atax" atax
      ~large:[ ("M", 1800); ("N", 2200) ]
      ~mini:[ ("M", 5); ("N", 6) ];
    kernel "bicg" bicg
      ~large:[ ("M", 1800); ("N", 2200) ]
      ~mini:[ ("M", 5); ("N", 6) ];
    kernel "cholesky" cholesky ~large:[ ("N", 2000) ] ~mini:[ ("N", 6) ];
    kernel "correlation" correlation
      ~large:[ ("M", 1200); ("N", 1400) ]
      ~mini:[ ("M", 5); ("N", 6) ];
    kernel "covariance" covariance
      ~large:[ ("M", 1200); ("N", 1400) ]
      ~mini:[ ("M", 5); ("N", 6) ];
    kernel "deriche" deriche
      ~large:[ ("W", 4096); ("H", 2160) ]
      ~mini:[ ("W", 6); ("H", 5) ]
      ~hints:(fun sizes ->
        let w = float_of_int (List.assoc "W" sizes) in
        let h = float_of_int (List.assoc "H" sizes) in
        [ ("h_scan_fwd", h); ("h_scan_bwd", h); ("v_scan", w) ]);
    kernel "doitgen" doitgen
      ~large:[ ("NR", 150); ("NQ", 140); ("NP", 160) ]
      ~mini:[ ("NR", 3); ("NQ", 4); ("NP", 5) ];
    kernel "durbin" durbin ~large:[ ("N", 2000) ] ~mini:[ ("N", 6) ]
      ~hints:(fun sizes ->
        let n = float_of_int (List.assoc "N" sizes) in
        [ ("durbin_step", n /. 2.) ]);
    kernel "fdtd-2d" fdtd_2d
      ~large:[ ("NX", 1000); ("NY", 1200); ("T", 500) ]
      ~mini:[ ("NX", 5); ("NY", 6); ("T", 2) ];
    kernel "floyd-warshall" floyd_warshall ~large:[ ("N", 2800) ]
      ~mini:[ ("N", 6) ];
    kernel "gemm" gemm
      ~large:[ ("NI", 1000); ("NJ", 1100); ("NK", 1200) ]
      ~mini:[ ("NI", 4); ("NJ", 5); ("NK", 6) ];
    kernel "gemver" gemver ~large:[ ("N", 2000) ] ~mini:[ ("N", 6) ];
    kernel "gesummv" gesummv ~large:[ ("N", 1300) ] ~mini:[ ("N", 6) ];
    kernel "gramschmidt" gramschmidt
      ~large:[ ("M", 1200); ("N", 1000) ]
      ~mini:[ ("M", 6); ("N", 5) ]
      ~hints:(fun sizes ->
        let m = float_of_int (List.assoc "M" sizes) in
        [ ("r_row", m) ]);
    kernel "heat-3d" heat_3d
      ~large:[ ("N", 120); ("T", 500) ]
      ~mini:[ ("N", 5); ("T", 2) ];
    kernel "jacobi-1d" jacobi_1d
      ~large:[ ("N", 2000); ("T", 500) ]
      ~mini:[ ("N", 8); ("T", 3) ];
    kernel "jacobi-2d" jacobi_2d
      ~large:[ ("N", 1300); ("T", 500) ]
      ~mini:[ ("N", 6); ("T", 2) ];
    kernel "lu" lu ~large:[ ("N", 2000) ] ~mini:[ ("N", 6) ];
    kernel "ludcmp" ludcmp ~large:[ ("N", 2000) ] ~mini:[ ("N", 6) ]
      ~hints:(fun sizes ->
        let n = float_of_int (List.assoc "N" sizes) in
        [ ("fwd_solve", n /. 2.); ("bwd_solve", n /. 2.) ]);
    kernel "mvt" mvt ~large:[ ("N", 2000) ] ~mini:[ ("N", 6) ];
    kernel "nussinov" nussinov ~large:[ ("N", 2500) ] ~mini:[ ("N", 6) ]
      ~hints:(fun sizes ->
        let n = float_of_int (List.assoc "N" sizes) in
        [ ("dp_cell", n /. 2.) ]);
    kernel "seidel-2d" seidel_2d
      ~large:[ ("N", 2000); ("T", 500) ]
      ~mini:[ ("N", 6); ("T", 2) ];
    kernel "symm" symm
      ~large:[ ("M", 1000); ("N", 1200) ]
      ~mini:[ ("M", 5); ("N", 6) ];
    kernel "syr2k" syr2k
      ~large:[ ("N", 1200); ("M", 1000) ]
      ~mini:[ ("N", 5); ("M", 6) ];
    kernel "syrk" syrk
      ~large:[ ("N", 1200); ("M", 1000) ]
      ~mini:[ ("N", 5); ("M", 6) ];
    kernel "trisolv" trisolv ~large:[ ("N", 2000) ] ~mini:[ ("N", 6) ]
      ~hints:(fun sizes ->
        let n = float_of_int (List.assoc "N" sizes) in
        [ ("solve_row", n /. 2.) ]);
    kernel "trmm" trmm
      ~large:[ ("M", 1000); ("N", 1200) ]
      ~mini:[ ("M", 5); ("N", 6) ] ]

let find name = List.find (fun k -> String.equal k.k_name name) all

let names = List.map (fun k -> k.k_name) all
