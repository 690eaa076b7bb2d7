(* Compiled memlet views: a tensor seen through a memlet subset whose
   endpoints are compiled closures over a flat symbol frame.  The
   closure path of {!Plan} refreshes one per tasklet execution; the bulk
   kernels of {!Kernels} refresh a parameter-free one once per launch.
   Both therefore check and address windows with the same code, which
   mirrors [Tensor.view_subset] followed by [Tensor.squeeze]. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Tasklang.Types

(* One dimension of a compiled subset; mirrors [Subset.eval_range]
   (tile expansion, stride clamped to >= 1). *)
type range = {
  r_start : int array -> int;
  r_stop : int array -> int;
  r_stride : int array -> int;
}

let range ~comp (r : Subset.range) : range =
  if Expr.as_int r.tile <> Some 1 then
    { r_start = comp r.start;
      r_stop = comp (Expr.add r.stop (Expr.sub r.tile Expr.one));
      r_stride = (fun _ -> 1) }
  else
    let stride_f = comp r.stride in
    { r_start = comp r.start;
      r_stop = comp r.stop;
      r_stride =
        (fun fr ->
          let s = stride_f fr in
          if s < 1 then 1 else s) }

let bounds_err fmt = Fmt.kstr (fun s -> raise (Tensor.Bounds s)) fmt

type t = {
  v_tens : Tensor.t;
  v_dims : range array;
  v_squeeze : bool;
  mutable v_base : int;
  mutable v_rank : int;
  v_ext : int array;
  v_str : int array;
  mutable v_vol : int;
}

let make ~comp tens k_rank subset =
  let r = Tensor.rank tens in
  { v_tens = tens;
    v_dims = Array.of_list (List.map (range ~comp) subset);
    v_squeeze = k_rank < r;
    v_base = 0; v_rank = 0; v_vol = 0;
    v_ext = Array.make (max 1 r) 0;
    v_str = Array.make (max 1 r) 0 }

let refresh v fr =
  let t = v.v_tens in
  let n = Array.length v.v_dims in
  let tr = Tensor.rank t in
  if tr = 0 then begin
    (* [view_subset] on a rank-0 tensor ignores the subset *)
    v.v_base <- t.Tensor.offset;
    v.v_rank <- 0;
    v.v_vol <- 1
  end
  else begin
    if n <> tr then
      bounds_err "view_subset: subset rank %d vs tensor rank %d" n tr;
    let base = ref t.Tensor.offset and vol = ref 1 and k = ref 0 in
    for d = 0 to n - 1 do
      let cr = Array.unsafe_get v.v_dims d in
      let s = cr.r_start fr in
      let e = cr.r_stop fr in
      let st = cr.r_stride fr in
      let cnt = ((e - s) / st) + 1 in
      if s < 0 || (cnt > 0 && s + ((cnt - 1) * st) >= t.Tensor.shape.(d))
      then
        bounds_err "view: dimension %d out of range (start %d count %d)" d s
          cnt;
      base := !base + (s * t.Tensor.strides.(d));
      vol := !vol * cnt;
      if not (v.v_squeeze && cnt = 1) then begin
        v.v_ext.(!k) <- cnt;
        v.v_str.(!k) <- t.Tensor.strides.(d) * st;
        incr k
      end
    done;
    v.v_base <- !base;
    v.v_rank <- !k;
    v.v_vol <- !vol
  end

(* Typed element accessors over the raw buffer (bounds are enforced by
   the view computation plus the index checks below, as in {!Tensor}). *)
let lin_get (t : Tensor.t) : int -> value =
  match t.Tensor.buf with
  | Tensor.Fbuf a -> fun i -> F a.(i)
  | Tensor.Ibuf a -> fun i -> I a.(i)

let lin_set (t : Tensor.t) : int -> value -> unit =
  match t.Tensor.buf with
  | Tensor.Fbuf a -> fun i v -> a.(i) <- to_float v
  | Tensor.Ibuf a -> fun i v -> a.(i) <- to_int v

(* Offset of an element access through the refreshed view; mirrors
   [Tensor.get]'s rank and bounds checks. *)
let offset v (idx : int array) =
  let n = Array.length idx in
  if n <> v.v_rank then
    bounds_err "tensor of rank %d indexed with %d indices" v.v_rank n;
  let off = ref v.v_base in
  for d = 0 to n - 1 do
    let i = Array.unsafe_get idx d in
    if i < 0 || i >= v.v_ext.(d) then
      bounds_err "index %d out of bounds for dimension %d (size %d)" i d
        v.v_ext.(d);
    off := !off + (i * v.v_str.(d))
  done;
  !off

let get v =
  let get = lin_get v.v_tens in
  fun (idx : int array) ->
    (* an empty index reads the view origin, as [get_scalar] does *)
    if Array.length idx = 0 then get v.v_base else get (offset v idx)

let set (stats : Obs.Report.counters) v wcr =
  let get = lin_get v.v_tens and set = lin_set v.v_tens in
  fun (idx : int array) value ->
    stats.elements_moved <- stats.elements_moved + 1;
    (* the reference counts a conflict resolution before its bounds
       check ([Reference.apply_wcr]) *)
    if wcr <> None then stats.wcr_writes <- stats.wcr_writes + 1;
    let off =
      if Array.length idx = 0 then begin
        (* the reference writes index [0,...,0] of the view: check the
           extents so empty views fail identically *)
        for d = 0 to v.v_rank - 1 do
          if v.v_ext.(d) < 1 then
            bounds_err "index 0 out of bounds for dimension %d (size %d)" d
              v.v_ext.(d)
        done;
        v.v_base
      end
      else offset v idx
    in
    match wcr with
    | None -> set off value
    | Some w -> set off (Sdfg_ir.Wcr.apply w ~old_v:(get off) ~new_v:value)
