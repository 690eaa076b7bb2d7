(* Runtime tensors for the SDFG interpreter.

   A tensor is a typed row-major view over a flat buffer: shape, strides
   and an offset, so nested-SDFG invocations and memlet-scoped bindings
   can alias sub-regions of a parent allocation without copying —
   mirroring how generated code passes pointers into arrays (paper §2.1:
   "memlets that are larger than one element are pointers"). *)

open Tasklang.Types

type buf =
  | Fbuf of float array
  | Ibuf of int array

type t = {
  shape : int array;
  strides : int array;   (* in elements *)
  offset : int;          (* in elements *)
  buf : buf;
  dtype : dtype;
}

exception Bounds of string

let bounds_error fmt = Fmt.kstr (fun s -> raise (Bounds s)) fmt

let row_major_strides shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let num_elements_shape shape = Array.fold_left ( * ) 1 shape

let create dtype shape : t =
  let n = num_elements_shape shape in
  let buf =
    if is_float dtype then Fbuf (Array.make n 0.)
    else Ibuf (Array.make n 0)
  in
  { shape; strides = row_major_strides shape; offset = 0; buf; dtype }

let shape t = t.shape
let dtype t = t.dtype
let rank t = Array.length t.shape
let num_elements t = num_elements_shape t.shape

(* Whether the view's memory order equals its logical row-major order, so
   its elements occupy the single run [offset, offset + num_elements).
   A dense window of a larger buffer qualifies. *)
let is_dense t = t.strides = row_major_strides t.shape

let linear_index t idx =
  let n = Array.length t.shape in
  if List.length idx <> n then
    bounds_error "tensor of rank %d indexed with %d indices" n
      (List.length idx);
  let li = ref t.offset in
  List.iteri
    (fun d i ->
      if i < 0 || i >= t.shape.(d) then
        bounds_error "index %d out of bounds for dimension %d (size %d)" i d
          t.shape.(d);
      li := !li + (i * t.strides.(d)))
    idx;
  !li

let get_linear t li =
  match t.buf with
  | Fbuf a -> F a.(li)
  | Ibuf a -> I a.(li)

let set_linear t li v =
  match t.buf with
  | Fbuf a -> a.(li) <- to_float v
  | Ibuf a -> a.(li) <- to_int v

let get t idx = get_linear t (linear_index t idx)
let set t idx v = set_linear t (linear_index t idx) v

let get_scalar t = get_linear t t.offset

(* Step a row-major index odometer over [t]'s shape, keeping [off] at
   the matching buffer offset; past the last element it wraps to the
   origin.  It carries strides rather than recomputing offsets from
   indices, so the walks below stay allocation-free. *)
let advance t idx off =
  let d = ref (Array.length idx - 1) in
  while !d >= 0 do
    let k = !d in
    idx.(k) <- idx.(k) + 1;
    off := !off + t.strides.(k);
    if idx.(k) < t.shape.(k) then d := -1
    else begin
      off := !off - (t.shape.(k) * t.strides.(k));
      idx.(k) <- 0;
      d := k - 1
    end
  done

let iter_offsets t f =
  let idx = Array.make (rank t) 0 and off = ref t.offset in
  for _ = 1 to num_elements t do
    f !off;
    advance t idx off
  done

let iter2_offsets a b f =
  let n = num_elements a in
  if n > 0 && num_elements b = 0 then begin
    (* fail as an element access into the empty view does *)
    let d = ref 0 in
    while b.shape.(!d) > 0 do
      incr d
    done;
    bounds_error "index 0 out of bounds for dimension %d (size 0)" !d
  end;
  let ia = Array.make (rank a) 0 and oa = ref a.offset in
  let ib = Array.make (rank b) 0 and ob = ref b.offset in
  for _ = 1 to n do
    f !oa !ob;
    advance a ia oa;
    advance b ib ob
  done

let fill t v =
  let n = num_elements t in
  if n > 0 then
    match t.buf with
    | Fbuf a ->
      let x = to_float v in
      if is_dense t then Array.fill a t.offset n x
      else iter_offsets t (fun li -> a.(li) <- x)
    | Ibuf a ->
      let x = to_int v in
      if is_dense t then Array.fill a t.offset n x
      else iter_offsets t (fun li -> a.(li) <- x)

(* A strided sub-view: [starts], [counts], [steps] per dimension. *)
let view t ~starts ~counts ~steps : t =
  let n = rank t in
  if Array.length starts <> n || Array.length counts <> n then
    bounds_error "view: rank mismatch";
  let offset = ref t.offset in
  Array.iteri
    (fun d s ->
      if s < 0 || (counts.(d) > 0 && s + ((counts.(d) - 1) * steps.(d)) >= t.shape.(d))
      then
        bounds_error "view: dimension %d out of range (start %d count %d)" d s
          counts.(d);
      offset := !offset + (s * t.strides.(d)))
    starts;
  { t with
    shape = Array.copy counts;
    strides = Array.mapi (fun d st -> st * steps.(d)) t.strides;
    offset = !offset }

(* View through a concrete memlet subset. *)
let view_subset t (ranges : Symbolic.Subset.concrete_range list) : t =
  let ranges = Array.of_list ranges in
  if rank t = 0 then t
  else begin
    if Array.length ranges <> rank t then
      bounds_error "view_subset: subset rank %d vs tensor rank %d"
        (Array.length ranges) (rank t);
    let starts = Array.map (fun r -> r.Symbolic.Subset.c_start) ranges in
    let steps = Array.map (fun r -> r.Symbolic.Subset.c_stride) ranges in
    let counts =
      Array.map
        (fun r ->
          ((r.Symbolic.Subset.c_stop - r.Symbolic.Subset.c_start)
           / r.Symbolic.Subset.c_stride)
          + 1)
        ranges
    in
    view t ~starts ~counts ~steps
  end

(* Drop all unit dimensions (memlet squeezing: a [1,3] window binds to a
   rank-1 connector of 3 elements). *)
let squeeze t =
  let keep =
    Array.to_list (Array.mapi (fun d s -> (d, s)) t.shape)
    |> List.filter (fun (_, s) -> s <> 1)
  in
  { t with
    shape = Array.of_list (List.map snd keep);
    strides = Array.of_list (List.map (fun (d, _) -> t.strides.(d)) keep) }

(* Whether two tensors view the same physical allocation.  OCaml's empty
   arrays of one representation are a single shared atom, so an empty
   buffer shares with nothing. *)
let shares_buffer a b =
  match a.buf, b.buf with
  | Fbuf x, Fbuf y -> x == y && Array.length x > 0
  | Ibuf x, Ibuf y -> x == y && Array.length x > 0
  | _ -> false

(* Inclusive range of buffer offsets a tensor's elements occupy.  View
   strides are always positive (subsets clamp steps to >= 1), so the
   minimum is the origin and the maximum adds each dimension's full
   stride span. *)
let touched_range t =
  let hi = ref t.offset in
  Array.iteri
    (fun d n -> if n > 0 then hi := !hi + ((n - 1) * t.strides.(d)))
    t.shape;
  (t.offset, !hi)

let overlapping a b =
  shares_buffer a b
  &&
  let alo, ahi = touched_range a and blo, bhi = touched_range b in
  alo <= bhi && blo <= ahi

(* Copy [src] into [dst]; shapes must contain the same number of elements
   (reshape-on-copy is allowed, as generated memcpys are linear). *)
let rec copy_into ~src ~dst =
  let n = num_elements src in
  if num_elements dst <> n then
    bounds_error "copy: %d elements into %d" n (num_elements dst);
  match src.buf, dst.buf with
  (* Same representation and both sides dense: one bulk move.  Reshape is
     fine because dense memory order is the logical order on both sides,
     and [Array.blit] is memmove-safe for overlapping same-array runs. *)
  | Fbuf sb, Fbuf db when is_dense src && is_dense dst ->
    Array.blit sb src.offset db dst.offset n
  | Ibuf sb, Ibuf db when is_dense src && is_dense dst ->
    Array.blit sb src.offset db dst.offset n
  | _ when n > 0 && overlapping src dst ->
    (* Strided views of one buffer whose element ranges overlap: the
       elementwise loop below would read elements it already overwrote.
       Stage through a dense snapshot of the source so the copy always
       sees pre-copy values. *)
    let tmp = create src.dtype (Array.copy src.shape) in
    copy_into ~src ~dst:tmp;
    copy_into ~src:tmp ~dst
  | _ ->
    iter2_offsets src dst (fun so d -> set_linear dst d (get_linear src so))

(* --- construction helpers -------------------------------------------- *)

let of_float_array dtype shape a : t =
  let t = create dtype shape in
  (match t.buf with
  | Fbuf b ->
    if Array.length a <> Array.length b then bounds_error "of_float_array";
    Array.blit a 0 b 0 (Array.length a)
  | Ibuf b ->
    if Array.length a <> Array.length b then bounds_error "of_float_array";
    Array.iteri (fun i x -> b.(i) <- int_of_float x) a);
  t

let of_int_array dtype shape a : t =
  let t = create dtype shape in
  (match t.buf with
  | Ibuf b ->
    if Array.length a <> Array.length b then bounds_error "of_int_array";
    Array.blit a 0 b 0 (Array.length a)
  | Fbuf b ->
    if Array.length a <> Array.length b then bounds_error "of_int_array";
    Array.iteri (fun i x -> b.(i) <- float_of_int x) a);
  t

let init dtype shape f : t =
  let t = create dtype shape in
  let idx = Array.make (Array.length shape) 0 and off = ref 0 in
  for _ = 1 to num_elements t do
    set_linear t !off (f (Array.to_list idx));
    advance t idx off
  done;
  t

let to_float_list t =
  let acc = ref [] in
  iter_offsets t (fun off -> acc := to_float (get_linear t off) :: !acc);
  List.rev !acc

let equal ?(eps = 1e-9) a b =
  a.shape = b.shape
  &&
  let fa = to_float_list a and fb = to_float_list b in
  List.for_all2 (fun x y -> Float.abs (x -. y) <= eps *. (1. +. Float.abs y))
    fa fb

let approx_equal ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  a.shape = b.shape && a.dtype = b.dtype
  &&
  let fa = to_float_list a and fb = to_float_list b in
  List.for_all2
    (fun x y ->
      (Float.is_nan x && Float.is_nan y)
      || Float.abs (x -. y) <= atol +. (rtol *. Float.abs y))
    fa fb
