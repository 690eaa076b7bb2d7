(* Memlet construction and queries (paper §2.1 Fig. 3, §3, Appendix A.1).

   A memlet annotates a dataflow edge with: the container it moves data
   of, the subset of elements visible at the source, an optional reindex
   subset at the destination, the number of elements moved (for the
   performance model), and an optional write-conflict resolution. *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset

type t = Defs.memlet

(* [simple data subset] — the common case: volume inferred from the
   subset, no reindexing, no conflicts. *)
let simple ?other ?wcr ?(dynamic = false) ?accesses data subset : t =
  let accesses =
    match accesses with Some a -> a | None -> Subset.volume subset
  in
  { Defs.m_data = data;
    m_subset = subset;
    m_other = other;
    m_wcr = wcr;
    m_accesses = accesses;
    m_dynamic = dynamic }

(* Whole-container memlet for an array of the given shape. *)
let full data shape : t = simple data (Subset.of_shape shape)

(* Single-element memlet at symbolic indices. *)
let element ?wcr data indices : t =
  simple ?wcr data (Subset.of_indices indices)

(* Dynamic memlet (unknown access count), e.g. stream pushes in a consume
   scope — printed as "(dyn)" in the paper's figures. *)
let dyn ?wcr data subset : t =
  simple ?wcr ~dynamic:true ~accesses:Expr.zero data subset

let data (m : t) = m.Defs.m_data
let subset (m : t) = m.Defs.m_subset
let wcr (m : t) = m.Defs.m_wcr
let is_dynamic (m : t) = m.Defs.m_dynamic

(* Volume in elements; dynamic memlets report [None]. *)
let volume (m : t) =
  if m.Defs.m_dynamic then None else Some m.Defs.m_accesses

let volume_bytes ~dtype (m : t) =
  Option.map
    (fun v ->
      Expr.mul v (Expr.int (Tasklang.Types.dtype_size_bytes dtype)))
    (volume m)

let with_data data (m : t) = { m with Defs.m_data = data }
let with_subset subset (m : t) =
  { m with Defs.m_subset = subset; m_accesses = Subset.volume subset }
let with_wcr wcr (m : t) = { m with Defs.m_wcr = wcr }

let map_subsets f (m : t) =
  { m with
    Defs.m_subset = f m.Defs.m_subset;
    m_other = Option.map f m.Defs.m_other }

let subst_list bindings (m : t) =
  { (map_subsets (Subset.subst_list bindings) m) with
    Defs.m_accesses = Expr.subst_list bindings m.Defs.m_accesses }

let free_syms (m : t) =
  let s = Subset.free_syms m.Defs.m_subset in
  let s' =
    match m.Defs.m_other with
    | None -> []
    | Some o -> Subset.free_syms o
  in
  List.sort_uniq String.compare (s @ s' @ Expr.free_syms m.Defs.m_accesses)

let equal (a : t) (b : t) =
  String.equal a.Defs.m_data b.Defs.m_data
  && Subset.equal a.Defs.m_subset b.Defs.m_subset
  && (match a.Defs.m_other, b.Defs.m_other with
     | None, None -> true
     | Some x, Some y -> Subset.equal x y
     | _ -> false)
  && (match a.Defs.m_wcr, b.Defs.m_wcr with
     | None, None -> true
     | Some x, Some y -> Wcr.equal x y
     | _ -> false)
  && Bool.equal a.Defs.m_dynamic b.Defs.m_dynamic

let to_string (m : t) =
  let b = Buffer.create 32 in
  Buffer.add_string b m.Defs.m_data;
  Subset.to_buffer b m.Defs.m_subset;
  (match m.Defs.m_wcr with
  | Some w ->
    Buffer.add_string b " (CR: ";
    Buffer.add_string b (Wcr.name w);
    Buffer.add_char b ')'
  | None -> ());
  if m.Defs.m_dynamic then Buffer.add_string b " (dyn)";
  Buffer.contents b

let pp ppf m = Format.pp_print_string ppf (to_string m)
