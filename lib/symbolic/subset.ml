(* Symbolic rectangular subsets — the mathematical object carried by every
   memlet (paper §3, Table 1 and Appendix A: "lists of exclusive ranges,
   where each range refers to one data dimension and is defined by
   start:end:stride:tilesize").  Ends are inclusive, following DaCe. *)

type range = {
  start : Expr.t;
  stop : Expr.t;  (* inclusive *)
  stride : Expr.t;
  tile : Expr.t;
}

type t = range list

let range ?(stride = Expr.one) ?(tile = Expr.one) start stop =
  { start; stop; stride; tile }

let index e = range e e

let of_indices es = List.map index es

(* Full range [0 .. size-1] of a dimension. *)
let full size = range Expr.zero (Expr.sub size Expr.one)

let of_shape shape = List.map full shape

let dims (s : t) = List.length s

let num_elements r =
  (* floor((stop - start) / stride) + 1, times the tile size *)
  Expr.mul
    (Expr.add (Expr.div (Expr.sub r.stop r.start) r.stride) Expr.one)
    r.tile

let volume (s : t) = Expr.product (List.map num_elements s)

let is_unit_range r =
  Expr.equal r.start r.stop && Expr.as_int r.tile = Some 1

let is_index (s : t) = List.for_all is_unit_range s

let free_syms (s : t) =
  List.concat_map
    (fun r ->
      List.concat_map Expr.free_syms [ r.start; r.stop; r.stride; r.tile ])
    s
  |> List.sort_uniq String.compare

let map_exprs f (s : t) =
  List.map
    (fun r ->
      { start = f r.start; stop = f r.stop; stride = f r.stride;
        tile = f r.tile })
    s

let subst env s = map_exprs (Expr.subst env) s
let subst1 name value s = map_exprs (Expr.subst1 name value) s
let subst_list bindings s = map_exprs (Expr.subst_list bindings) s

let equal_range a b =
  Expr.equal a.start b.start && Expr.equal a.stop b.stop
  && Expr.equal a.stride b.stride && Expr.equal a.tile b.tile

let equal (a : t) (b : t) =
  List.length a = List.length b && List.for_all2 equal_range a b

(* --- set operations -------------------------------------------------- *)

(* Bounding-box union: per-dimension min of starts and max of stops.
   Strides collapse to 1 when they disagree (sound over-approximation,
   exactly as DaCe's Range.union). *)
let union_range a b =
  let stride =
    if Expr.equal a.stride b.stride then a.stride else Expr.one
  in
  { start = Expr.min_ a.start b.start;
    stop = Expr.max_ a.stop b.stop;
    stride;
    tile = Expr.max_ a.tile b.tile }

let union (a : t) (b : t) =
  if List.length a <> List.length b then
    invalid_arg "Subset.union: dimensionality mismatch";
  List.map2 union_range a b

let union_all = function
  | [] -> invalid_arg "Subset.union_all: empty"
  | s :: rest -> List.fold_left union s rest

(* Best-effort symbolic covering check: [covers a b] is true only when we
   can prove every point of [b] lies inside [a].  Unknown => false. *)
let proves_le a b =
  match Expr.as_int (Expr.sub b a) with Some d -> d >= 0 | None -> Expr.equal a b

let covers_range a b = proves_le a.start b.start && proves_le b.stop a.stop

let covers (a : t) (b : t) =
  List.length a = List.length b && List.for_all2 covers_range a b

(* Intersection test on constant subsets; [None] when symbolic. *)
let intersects_range a b =
  match
    Expr.as_int a.start, Expr.as_int a.stop, Expr.as_int b.start,
    Expr.as_int b.stop
  with
  | Some as_, Some ae, Some bs, Some be -> Some (as_ <= be && bs <= ae)
  | _ -> None

let intersects (a : t) (b : t) =
  if List.length a <> List.length b then Some false
  else
    List.fold_left2
      (fun acc ra rb ->
        match acc, intersects_range ra rb with
        | Some false, _ -> Some false
        | _, Some false -> Some false
        | Some true, Some true -> Some true
        | _ -> None)
      (Some true) a b

(* --- composition ----------------------------------------------------- *)

(* [compose outer inner]: [inner] is expressed relative to the origin of
   [outer]; the result is [inner] placed in the coordinate system of
   [outer]'s container.  Used when squeezing memlets through nested-SDFG
   boundaries and by the LocalStorage transformation (Fig 11b, where
   relative indices are "r_in - r_out"). *)
let compose_range outer inner =
  { start = Expr.add outer.start (Expr.mul inner.start outer.stride);
    stop = Expr.add outer.start (Expr.mul inner.stop outer.stride);
    stride = Expr.mul outer.stride inner.stride;
    tile = inner.tile }

let compose (outer : t) (inner : t) =
  if List.length outer <> List.length inner then
    invalid_arg "Subset.compose: dimensionality mismatch";
  List.map2 compose_range outer inner

(* [offset_by s ~origin] rebases [s] so that [origin]'s start is 0 — the
   inverse direction of [compose] for stride-1 origins. *)
let offset_range r ~origin =
  { r with
    start = Expr.sub r.start origin.start;
    stop = Expr.sub r.stop origin.start }

let offset_by (s : t) ~(origin : t) =
  if List.length s <> List.length origin then
    invalid_arg "Subset.offset_by: dimensionality mismatch";
  List.map2 (fun r o -> offset_range r ~origin:o) s origin

(* --- image over a parameter (memlet propagation) --------------------- *)

(* The image of [s] as a map parameter [param] sweeps [prange]
   (paper §4.3 ❶: "memlet ranges are propagated ... using the image of the
   scope function on the union of the internal memlet subsets").  Interval
   arithmetic bounds each endpoint; strides are kept only when the
   expression does not involve the parameter. *)
let propagate_param ~param ~(prange : range) (s : t) =
  let env name =
    if String.equal name param then
      Some { Expr.lo = prange.start; hi = prange.stop }
    else None
  in
  List.map
    (fun r ->
      let uses_param e = List.mem param (Expr.free_syms e) in
      if
        not
          (uses_param r.start || uses_param r.stop || uses_param r.stride)
      then r
      else
        let blo = (Expr.bounds env r.start).Expr.lo in
        let bhi = (Expr.bounds env r.stop).Expr.hi in
        { start = blo; stop = bhi; stride = Expr.one; tile = r.tile })
    s

let propagate_params params (s : t) =
  List.fold_left
    (fun acc (param, prange) -> propagate_param ~param ~prange acc)
    s params

(* --- concretization --------------------------------------------------- *)

type concrete_range = { c_start : int; c_stop : int; c_stride : int }

let eval_range env r =
  if Expr.as_int r.tile <> Some 1 then
    { c_start = Expr.eval env r.start;
      c_stop =
        Expr.eval env
          (Expr.add r.stop (Expr.sub r.tile Expr.one));
      c_stride = 1 }
  else
    { c_start = Expr.eval env r.start;
      c_stop = Expr.eval env r.stop;
      c_stride = max 1 (Expr.eval env r.stride) }

let eval env (s : t) = List.map (eval_range env) s

let eval_list bindings s = eval (fun n -> List.assoc_opt n bindings) s

let concrete_size c =
  List.fold_left
    (fun acc r -> acc * (((r.c_stop - r.c_start) / r.c_stride) + 1))
    1 c

(* Enumerate all points of a concrete subset in row-major order. *)
let concrete_points (c : concrete_range list) =
  let rec go = function
    | [] -> [ [] ]
    | r :: rest ->
      let tails = go rest in
      let rec idxs i acc =
        if i > r.c_stop then List.rev acc else idxs (i + r.c_stride) (i :: acc)
      in
      let heads = idxs r.c_start [] in
      List.concat_map (fun h -> List.map (fun t -> h :: t) tails) heads
  in
  go c

(* --- printing --------------------------------------------------------- *)

let range_to_buffer b r =
  Expr.to_buffer b r.start;
  if not (is_unit_range r) then begin
    Buffer.add_char b ':';
    Expr.to_buffer b (Expr.add r.stop Expr.one);
    (match Expr.as_int r.stride with
    | Some 1 -> ()
    | _ ->
      Buffer.add_char b ':';
      Expr.to_buffer b r.stride);
    match Expr.as_int r.tile with
    | Some 1 -> ()
    | _ ->
      Buffer.add_string b "::";
      Expr.to_buffer b r.tile
  end

let to_buffer b (s : t) =
  Buffer.add_char b '[';
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ", ";
      range_to_buffer b r)
    s;
  Buffer.add_char b ']'

let range_to_string r =
  let b = Buffer.create 16 in
  range_to_buffer b r;
  Buffer.contents b

let to_string s =
  let b = Buffer.create 32 in
  to_buffer b s;
  Buffer.contents b

let pp ppf s = Format.pp_print_string ppf (to_string s)
