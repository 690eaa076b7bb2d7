(* Analytic performance model: executes a scheduled SDFG against a
   machine description.

   The model is driven by exactly the information the IR carries (the
   paper's thesis): memlet volumes give data movement, propagated scope
   memlets give unique working sets (so tiling/local storage change
   modeled traffic the way they change measured traffic), schedules give
   parallelism, WCR edges give atomic traffic, and unrolled innermost
   maps give vector lanes.  Times come from a roofline over the target's
   peak compute and bandwidth plus explicit overheads (kernel launches,
   OpenMP forks, PCIe copies, FPGA initiation intervals). *)

module Expr = Symbolic.Expr
module Subset = Symbolic.Subset
open Sdfg_ir
open Defs

type target = Tcpu | Tgpu | Tfpga

exception Cost_error = Sdfg_ir.Errors.Cost_error

let cost_error fmt = Fmt.kstr (fun s -> raise (Cost_error s)) fmt

(* Modeling knobs, used both for SDFG evaluation and for the baseline
   compiler models in {!Baselines}. *)
type options = {
  force_sequential : bool;     (* drop all parallel schedules *)
  parallel_efficiency : float; (* fraction of linear speedup achieved *)
  vector_override : float option;  (* force a SIMD factor *)
  assume_cache_optimal : bool; (* charge only compulsory traffic *)
  copy_factor : float;         (* multiplier on host<->device copies *)
  naive_fpga : bool;           (* unpipelined HLS behaviour *)
  hints : (string * float) list;   (* tasklet-name -> avg inner trips *)
  visit_hints : (string * float) list;  (* state-label -> visit count *)
}

let default_options =
  { force_sequential = false;
    parallel_efficiency = 0.92;
    vector_override = None;
    assume_cache_optimal = false;
    copy_factor = 1.0;
    naive_fpga = false;
    hints = [];
    visit_hints = [] }

(* --- per-execution accounting ---------------------------------------------- *)

type acct = {
  flops : float;          (* floating-point operations *)
  iops : float;           (* integer/address operations *)
  bytes : float;          (* DRAM traffic, streaming *)
  rand_bytes : float;     (* DRAM traffic, irregular/indirect *)
  dyn_bytes : float;      (* dynamic-memlet traffic, invisible to scope
                             boundary volumes and thus never collapsed by
                             the cache model *)
  atomics : float;        (* conflicting WCR commits *)
  copies : float;         (* host<->device bytes *)
  launches : float;       (* device kernel launches *)
  vec_width : float;      (* innermost SIMD lanes exposed (1 = scalar) *)
  fpga_pes : float;       (* replicated processing elements *)
  fpga_ii : float;        (* initiation interval of the pipeline *)
  iterations : float;     (* dynamic innermost iterations *)
}

let zero_acct =
  { flops = 0.; iops = 0.; bytes = 0.; rand_bytes = 0.; dyn_bytes = 0.;
    atomics = 0.;
    copies = 0.; launches = 0.; vec_width = 1.; fpga_pes = 1.; fpga_ii = 1.;
    iterations = 0. }

let ( ++ ) a b =
  { flops = a.flops +. b.flops;
    iops = a.iops +. b.iops;
    bytes = a.bytes +. b.bytes;
    rand_bytes = a.rand_bytes +. b.rand_bytes;
    dyn_bytes = a.dyn_bytes +. b.dyn_bytes;
    atomics = a.atomics +. b.atomics;
    copies = a.copies +. b.copies;
    launches = a.launches +. b.launches;
    vec_width = Float.max a.vec_width b.vec_width;
    fpga_pes = Float.max a.fpga_pes b.fpga_pes;
    fpga_ii = Float.max a.fpga_ii b.fpga_ii;
    iterations = a.iterations +. b.iterations }

let scale k a =
  { a with
    flops = k *. a.flops;
    iops = k *. a.iops;
    bytes = k *. a.bytes;
    rand_bytes = k *. a.rand_bytes;
    dyn_bytes = k *. a.dyn_bytes;
    atomics = k *. a.atomics;
    copies = k *. a.copies;
    launches = k *. a.launches;
    iterations = k *. a.iterations }

(* --- tasklet operation counting -------------------------------------------- *)

let rec expr_ops (e : Tasklang.Ast.expr) =
  match e with
  | Float_lit _ | Int_lit _ | Bool_lit _ | Var _ -> (0., 0.)
  | Index (_, idxs) ->
    List.fold_left
      (fun (f, i) e ->
        let f', i' = expr_ops e in
        (f +. f', i +. i' +. 1.))
      (0., 0.) idxs
  | Unop (op, a) ->
    let f, i = expr_ops a in
    (match op with
    | Neg | Abs -> (f +. 1., i)
    | Sqrt | Exp | Log | Sin | Cos -> (f +. 10., i)  (* SFU-class op *)
    | Floor -> (f +. 1., i)
    | Not -> (f, i +. 1.))
  | Binop (op, a, b) ->
    let fa, ia = expr_ops a and fb, ib = expr_ops b in
    let f = fa +. fb and i = ia +. ib in
    (match op with
    | Add | Sub | Mul -> (f +. 1., i)
    | Div -> (f +. 4., i)
    | Pow -> (f +. 10., i)
    | Mod -> (f, i +. 4.)
    | Min | Max -> (f +. 1., i)
    | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> (f, i +. 1.))
  | Cond (c, t, fl) ->
    let fc, ic = expr_ops c in
    let ft, it = expr_ops t in
    let ff, if_ = expr_ops fl in
    (fc +. ((ft +. ff) /. 2.), ic +. ((it +. if_) /. 2.) +. 1.)

let rec stmt_ops ?(resolve = fun _ -> None) ~hint (s : Tasklang.Ast.stmt) =
  let stmt_ops = stmt_ops ~resolve in
  match s with
  | Assign (lhs, e) ->
    let f, i = expr_ops e in
    let f', i' =
      match lhs with
      | Lvar _ -> (0., 0.)
      | Lindex (_, idxs) ->
        List.fold_left
          (fun (f, i) e ->
            let f', i' = expr_ops e in
            (f +. f', i +. i' +. 1.))
          (0., 0.) idxs
    in
    (f +. f', i +. i')
  | If (c, t, fl) ->
    let fc, ic = expr_ops c in
    let sum branch =
      List.fold_left
        (fun (f, i) s ->
          let f', i' = stmt_ops ~hint s in
          (f +. f', i +. i'))
        (0., 0.) branch
    in
    let ft, it = sum t and ff, if_ = sum fl in
    (fc +. ((ft +. ff) /. 2.), ic +. ((it +. if_) /. 2.) +. 1.)
  | For (_, lo, hi, body) ->
    let trips =
      (* constant and symbolic bounds fold; data-dependent bounds use the
         caller's hint *)
      let const e =
        match e with
        | Tasklang.Ast.Int_lit n -> Some n
        | Tasklang.Ast.Var v -> resolve v
        | _ -> None
      in
      match const lo, const hi with
      | Some l, Some h -> float_of_int (max 0 (h - l))
      | _ -> hint
    in
    let fb, ib =
      List.fold_left
        (fun (f, i) s ->
          let f', i' = stmt_ops ~hint s in
          (f +. f', i +. i'))
        (0., 0.) body
    in
    (trips *. fb, trips *. (ib +. 1.))

(* Connectors accessed through data-dependent (indirect) indices, e.g.
   x[cols[j]]: a small taint analysis over the tasklet body.  Indirect
   accesses pay the random-access bandwidth penalty; all other dynamic
   accesses (sequential scans like vals[j] inside a For) stream. *)
let indirect_connectors (t : tasklet) : string list =
  match t.t_code with
  | External _ -> []
  | Code code ->
    let tainted = Hashtbl.create 8 in
    let result = ref [] in
    let rec expr_tainted (e : Tasklang.Ast.expr) =
      match e with
      | Float_lit _ | Int_lit _ | Bool_lit _ -> false
      | Var v -> Hashtbl.mem tainted v
      | Index (_, _) -> true  (* reading through a connector *)
      | Unop (_, a) -> expr_tainted a
      | Binop (_, a, b) -> expr_tainted a || expr_tainted b
      | Cond (c, a, b) -> expr_tainted c || expr_tainted a || expr_tainted b
    in
    let rec collect_expr (e : Tasklang.Ast.expr) =
      match e with
      | Float_lit _ | Int_lit _ | Bool_lit _ | Var _ -> ()
      | Index (c, idxs) ->
        if List.exists expr_tainted idxs then
          if not (List.mem c !result) then result := c :: !result;
        List.iter collect_expr idxs
      | Unop (_, a) -> collect_expr a
      | Binop (_, a, b) -> collect_expr a; collect_expr b
      | Cond (c, a, b) -> collect_expr c; collect_expr a; collect_expr b
    in
    let rec scan_stmt (s : Tasklang.Ast.stmt) =
      match s with
      | Assign (lhs, e) ->
        (match lhs with
        | Lvar x -> if expr_tainted e then Hashtbl.replace tainted x ()
        | Lindex (c, idxs) ->
          if List.exists expr_tainted idxs then
            if not (List.mem c !result) then result := c :: !result;
          List.iter collect_expr idxs);
        collect_expr e
      | If (c, a, b) ->
        collect_expr c;
        List.iter scan_stmt a;
        List.iter scan_stmt b
      | For (_, lo, hi, body) ->
        collect_expr lo;
        collect_expr hi;
        List.iter scan_stmt body
    in
    (* two passes reach a fixpoint for straight-line taint *)
    List.iter scan_stmt code;
    List.iter scan_stmt code;
    !result

let tasklet_ops ?resolve ~hint (t : tasklet) =
  match t.t_code with
  | Code code ->
    List.fold_left
      (fun (f, i) s ->
        let f', i' = stmt_ops ?resolve ~hint s in
        (f +. f', i +. i'))
      (0., 0.) code
  | External _ -> (hint, hint)

(* --- memlet volumes ---------------------------------------------------------- *)

let eval_env symbols params name =
  match List.assoc_opt name params with
  | Some v -> Some v
  | None -> List.assoc_opt name symbols

(* Bytes moved by a memlet, under an environment binding all parameters.
   Dynamic memlets report via the [dyn] branch. *)
let memlet_bytes g ~symbols ~params (m : memlet) =
  let d = Sdfg.desc g m.m_data in
  let elem = float_of_int (Tasklang.Types.dtype_size_bytes (ddesc_dtype d)) in
  if m.m_dynamic then `Dyn elem
  else
    let v =
      try float_of_int (Expr.eval (eval_env symbols params) m.m_accesses)
      with Expr.Unbound_symbol _ -> (
        try
          float_of_int
            (Expr.eval (eval_env symbols params)
               (Subset.volume m.m_subset))
        with Expr.Unbound_symbol _ -> 1.)
    in
    `Vol (Float.max 0. v *. elem)

(* --- scope analysis ------------------------------------------------------------ *)

(* What one pricer keeps between the graphs it prices.  A state's
   accounting reads the state, the descriptors it names, the visit
   environment and the pricer's fixed options, so it is kept by content
   stamp and visit environment, and reused while every descriptor the
   state names is physically the one priced.  Whether the state reads a
   loop symbol is kept beside it.  A successful transition walk reads
   the transitions, the start state and the pricer's symbols. *)
module Env_tbl = Hashtbl.Make (struct
  type t = (string * int) list
  let equal = ( = )
  let hash = Hashtbl.hash_param 64 128
end)

type kept = {
  mutable k_descs : (string * ddesc) list;  (* the descriptors priced with *)
  mutable k_reads : (string list * bool) list;  (* by loop symbols *)
  k_accts : acct Env_tbl.t;
}

type memo = {
  m_states : (int, kept) Hashtbl.t;  (* by content stamp *)
  mutable m_walks :
    (istate_edge list * int * (int * (string * int) list list) list) list;
      (* (transitions, start, visits), newest first *)
}

type ctx = {
  g : Sdfg.t;
  opts : options;
  symbols : (string * int) list;
  cache_bytes : float;
  target : target;
  memo : memo option;  (* only at the top level: see [priced] *)
}

let hint_for ctx name =
  Option.value ~default:1.0 (List.assoc_opt name ctx.opts.hints)

let eval_extent ctx params e =
  try float_of_int (Expr.eval (eval_env ctx.symbols params) e)
  with Expr.Unbound_symbol s ->
    cost_error "cost model: unbound symbol %S in extent %s" s
      (Expr.to_string e)

(* Representative binding for a parameter: its range start. *)
let bind_params ctx params (info : map_info) =
  params
  @ List.map2
      (fun p (r : Subset.range) ->
        ( p,
          try Expr.eval (eval_env ctx.symbols params) r.start
          with Expr.Unbound_symbol _ -> 0 ))
      info.mp_params info.mp_ranges

(* Map parameters of a state with the free symbols of their range
   expressions, for conflict derivation: an inner parameter i whose range
   depends on a tile parameter tile_i takes distinct values for distinct
   tile_i, so a subset containing i is also disambiguated by tile_i. *)
let param_deps st : (string * string list) list =
  State.nodes st
  |> List.concat_map (fun (_, n) ->
         match n with
         | Map_entry m ->
           List.map2
             (fun p (r : Subset.range) ->
               (p, Expr.free_syms r.start @ Expr.free_syms r.stop))
             m.mp_params m.mp_ranges
         | _ -> [])

(* [covers deps p syms]: does some symbol in [syms] (transitively) derive
   from parameter [p]? *)
let covers deps p syms =
  let rec go depth qs =
    depth < 5
    && List.exists
         (fun q ->
           String.equal q p
           ||
           match List.assoc_opt q deps with
           | Some ds -> go (depth + 1) ds
           | None -> false)
         qs
  in
  go 0 syms

let is_parallel_schedule = function
  | Cpu_multicore | Gpu_device | Gpu_threadblock | Mpi | Fpga_unrolled ->
    true
  | Sequential | Fpga_device -> false

(* Does pricing [st] read any of [syms] from the symbol environment?  A
   state reads its map ranges and consume PE counts, its memlets'
   subsets, reindex subsets and access counts, the shapes of the
   containers it touches and every identifier in its tasklet code; a
   nested SDFG is priced under the whole environment, so a state holding
   one reads every symbol. *)
let reads_any g (st : state) syms =
  let hit name = List.mem name syms in
  let expr e = List.exists hit (Expr.free_syms e) in
  let subset sub = List.exists hit (Subset.free_syms sub) in
  let shape d =
    match List.assoc_opt d g.g_descs with
    | Some desc -> List.exists expr (ddesc_shape desc)
    | None -> false
  in
  syms <> []
  && (List.exists
        (fun (_, n) ->
          match n with
          | Access d -> shape d
          | Tasklet { t_code = Code code; _ } ->
            List.exists hit (Tasklang.Ast.reads code)
            || List.exists hit (Tasklang.Ast.writes code)
          | Tasklet { t_code = External _; _ } -> false
          | Map_entry m -> subset m.mp_ranges
          | Consume_entry c -> expr c.cs_num_pes
          | Map_exit | Consume_exit | Reduce _ -> false
          | Nested_sdfg _ -> true)
        (State.nodes st)
     || List.exists
          (fun (e : edge) ->
            match e.e_memlet with
            | None -> false
            | Some m ->
              subset m.m_subset
              || Option.fold ~none:false ~some:subset m.m_other
              || expr m.m_accesses || shape m.m_data)
          (State.edges st))

(* Analyze one execution of a node at its scope level; returns the acct
   for the node including everything nested below it.  [par_params] are
   the map parameters whose iterations actually run concurrently: for
   CPU-multicore maps only the outermost parameter (OpenMP parallel-for
   without collapse, as the code generator emits), for GPU/unrolled-FPGA
   maps all parameters. *)
let rec node_acct ctx st ~params ~par_params nid : acct =
  match State.node st nid with
  | Access d ->
    (* copy edges *)
    List.fold_left
      (fun acc (e : edge) ->
        match State.node st e.e_dst, e.e_memlet with
        | Access d', Some m ->
          let bytes =
            match memlet_bytes ctx.g ~symbols:ctx.symbols ~params m with
            | `Vol b -> b
            | `Dyn elem -> elem *. hint_for ctx ("copy_" ^ d)
          in
          ignore d';
          let cross_device =
            let sp x = ddesc_storage (Sdfg.desc ctx.g x) in
            match sp d, sp d' with
            | (Gpu_global | Fpga_global), (Gpu_global | Fpga_global) ->
              false
            | (Gpu_global | Fpga_global), _ | _, (Gpu_global | Fpga_global)
              ->
              true
            | _ -> false
          in
          if cross_device then
            { zero_acct with copies = bytes *. ctx.opts.copy_factor }
          else { zero_acct with bytes = 2. *. bytes }
        | _ -> acc |> fun _ -> zero_acct)
      zero_acct (State.out_edges st nid)
  | Tasklet t ->
    let hint = hint_for ctx t.t_name in
    let resolve name = eval_env ctx.symbols params name in
    let f, i = tasklet_ops ~resolve ~hint t in
    let edges = State.in_edges st nid @ State.out_edges st nid in
    let indirect = indirect_connectors t in
    let conn_of (e : edge) =
      match e.e_dst_conn, e.e_src_conn with
      | Some c, _ when e.e_dst = nid -> Some c
      | _, Some c when e.e_src = nid -> Some c
      | _ -> None
    in
    (* containers that live entirely in registers/L1 cost no DRAM traffic *)
    let cache_resident m =
      let d = Sdfg.desc ctx.g m.m_data in
      ddesc_transient d
      &&
      try
        let sz =
          Expr.eval (eval_env ctx.symbols params)
            (Expr.product (ddesc_shape d))
        in
        float_of_int (sz * Tasklang.Types.dtype_size_bytes (ddesc_dtype d))
        <= 4096.
      with Expr.Unbound_symbol _ -> false
    in
    (* Spatial locality: the per-iteration cost of an access depends on
       how its address moves as the innermost map parameter advances.
       stride 0 stays in a register, small strides stream (one new element
       per iteration, neighbouring window reads hit cache), large strides
       touch a fresh cache line every iteration. *)
    let innermost = match List.rev params with (p, v) :: _ -> Some (p, v) | [] -> None in
    let elem_stride (m : memlet) =
      match innermost with
      | None -> None
      | Some (p, v) ->
        let d = Sdfg.desc ctx.g m.m_data in
        let shape = ddesc_shape d in
        let strides =
          let rec go = function
            | [] -> []
            | [ _ ] -> [ Expr.one ]
            | _ :: rest ->
              let tail = go rest in
              Expr.mul (List.hd tail) (List.hd rest) :: tail
          in
          go shape
        in
        if shape = [] then Some 0
        else
          let lin env =
            List.fold_left2
              (fun acc st (r : Subset.range) ->
                acc + (Expr.eval env st * Expr.eval env r.start))
              0 strides m.m_subset
          in
          let env_at x name =
            if String.equal name p then Some x
            else eval_env ctx.symbols params name
          in
          (try Some (abs (lin (env_at (v + 1)) - lin (env_at v)))
           with Expr.Unbound_symbol _ | Invalid_argument _ -> None)
    in
    (* streaming reads of the same container share cache lines: count the
       container once *)
    let stream_by_container : (string, float) Hashtbl.t = Hashtbl.create 4 in
    let bytes0, rand, dynb =
      List.fold_left
        (fun (b, r, dn) (e : edge) ->
          match e.e_memlet with
          | None -> (b, r, dn)
          | Some m when cache_resident m -> (b, r, dn)
          | Some m -> (
            let is_indirect =
              match conn_of e with
              | Some c -> List.mem c indirect
              | None -> false
            in
            let is_stream = ddesc_is_stream (Sdfg.desc ctx.g m.m_data) in
            match memlet_bytes ctx.g ~symbols:ctx.symbols ~params m with
            | `Vol v -> (
              if is_indirect then (b, r +. v, dn)
              else
                let d = Sdfg.desc ctx.g m.m_data in
                let esz =
                  float_of_int
                    (Tasklang.Types.dtype_size_bytes (ddesc_dtype d))
                in
                match elem_stride m with
                | Some 0 -> (b, r, dn)  (* register-resident *)
                | Some s when s <= 8 ->
                  (* streaming: one new element per iteration *)
                  let contrib = Float.min v (float_of_int s *. esz) in
                  let cur =
                    Option.value ~default:0.
                      (Hashtbl.find_opt stream_by_container m.m_data)
                  in
                  Hashtbl.replace stream_by_container m.m_data
                    (Float.max cur contrib);
                  (b, r, dn)
                | Some _ ->
                  (* large stride: a fresh cache line per iteration *)
                  (b +. Float.max v 64., r, dn)
                | None -> (b +. v, r, dn))
            | `Dyn elem ->
              if is_indirect then (b, r +. (elem *. hint), dn)
              else if is_stream then (b, r, dn +. elem)
              else (b, r, dn +. (elem *. hint))))
        (0., 0., 0.) edges
    in
    let bytes =
      Hashtbl.fold (fun _ v acc -> acc +. v) stream_by_container bytes0
    in
    (* a floating WCR commit is itself one flop (the combine) *)
    let wcr_flops =
      List.fold_left
        (fun a (e : edge) ->
          match e.e_memlet with
          | Some m when m.m_wcr <> None -> a +. 1.
          | _ -> a)
        0. (State.out_edges st nid)
    in
    let atomics =
      if ctx.opts.force_sequential || par_params = [] then 0.
      else
        List.fold_left
          (fun a (e : edge) ->
            match e.e_memlet with
            | Some m when m.m_wcr <> None ->
              (* Conflicting only if a concurrently-executing parameter is
                 missing from the subset (same-location commits from
                 different workers).  Writes into transients are
                 privatized (AccumulateTransient/LocalStorage) and free. *)
              if ddesc_transient (Sdfg.desc ctx.g m.m_data) then a
              else
                let syms = Subset.free_syms m.m_subset in
                let deps = param_deps st in
                let missing =
                  List.exists (fun p -> not (covers deps p syms)) par_params
                in
                if missing then a +. Float.max 1. hint else a
            | _ -> a)
          0. (State.out_edges st nid)
    in
    { zero_acct with
      flops = f +. wcr_flops; iops = i; bytes; rand_bytes = rand;
      dyn_bytes = dynb; atomics; iterations = 1. }
  | Reduce _ -> (
    match State.in_edges st nid, State.out_edges st nid with
    | [ e_in ], [ e_out ] ->
      let vol m =
        match memlet_bytes ctx.g ~symbols:ctx.symbols ~params m with
        | `Vol b -> b
        | `Dyn e -> e
      in
      let b_in = vol (Option.get e_in.e_memlet) in
      let b_out = vol (Option.get e_out.e_memlet) in
      { zero_acct with
        flops = b_in /. 8.;
        bytes = b_in +. b_out;
        iterations = b_in /. 8. }
    | _ -> zero_acct)
  | Map_entry info -> scope_acct ctx st ~params ~par_params nid info
  | Consume_entry info ->
    (* dynamic stream processing: trips from the hint *)
    let trips = hint_for ctx ("consume_" ^ info.cs_stream) in
    let parents = State.scope_parents st in
    let body =
      List.filter
        (fun n -> Hashtbl.find parents n = Some nid)
        (State.topological_order st)
    in
    let inner =
      List.fold_left
        (fun acc n ->
          acc
          ++ node_acct ctx st ~params
               ~par_params:(info.cs_pe_param :: par_params) n)
        zero_acct body
    in
    scale trips inner
  | Map_exit | Consume_exit -> zero_acct
  | Nested_sdfg nest ->
    let inner_symbols =
      List.map
        (fun (s, e) ->
          (s, Expr.eval (eval_env ctx.symbols params) e))
        nest.n_symbol_map
      @ ctx.symbols
    in
    let inner_ctx =
      { ctx with g = nest.n_sdfg; symbols = inner_symbols; memo = None }
    in
    sdfg_acct inner_ctx

and scope_acct ctx st ~params ~par_params entry (info : map_info) : acct =
  let trips =
    List.fold_left
      (fun acc (r : Subset.range) ->
        let n =
          Float.floor
            (eval_extent ctx params (Expr.sub r.stop r.start)
             /. Float.max 1. (eval_extent ctx params r.stride))
          +. 1.
        in
        acc *. Float.max 0. n)
      1. info.mp_ranges
  in
  let params' = bind_params ctx params info in
  let par_new =
    if ctx.opts.force_sequential then []
    else
      match info.mp_schedule with
      | Cpu_multicore | Mpi -> [ List.hd info.mp_params ]
      | Gpu_device | Gpu_threadblock | Fpga_unrolled -> info.mp_params
      | Sequential | Fpga_device -> []
  in
  let parents = State.scope_parents st in
  let body =
    List.filter
      (fun n -> Hashtbl.find parents n = Some entry)
      (State.topological_order st)
  in
  let per_iter =
    List.fold_left
      (fun acc n ->
        acc
        ++ node_acct ctx st ~params:params'
             ~par_params:(par_new @ par_params)
             n)
      zero_acct body
  in
  (* unrolled innermost map over unit-stride data = vector lanes *)
  let vec =
    if info.mp_unroll then Float.max per_iter.vec_width trips
    else per_iter.vec_width
  in
  let pes =
    if info.mp_schedule = Fpga_unrolled then
      Float.max per_iter.fpga_pes trips
    else per_iter.fpga_pes
  in
  let total = scale trips per_iter in
  (* cache model: if one iteration's data fits in cache, unique traffic
     at this scope's boundary replaces the re-read traffic *)
  let boundary =
    (* unique data crossing the scope boundary: the *subset volume* of the
       propagated memlets, not their access count *)
    let edges =
      State.in_edges st entry @ State.out_edges st (State.exit_of st entry)
    in
    List.fold_left
      (fun b (e : edge) ->
        match e.e_memlet with
        | None -> b
        | Some m ->
          if m.m_dynamic then b
          else
            let d = Sdfg.desc ctx.g m.m_data in
            let elem =
              float_of_int
                (Tasklang.Types.dtype_size_bytes (ddesc_dtype d))
            in
            let v =
              try
                float_of_int
                  (Expr.eval (eval_env ctx.symbols params)
                     (Subset.volume m.m_subset))
              with Expr.Unbound_symbol _ -> 0.
            in
            b +. (Float.max 0. v *. elem))
      0. edges
  in
  let bytes =
    (* the scope's unique data fits in cache: every byte is loaded once,
       so traffic collapses to the boundary volume (this is what makes
       MapTiling and LocalStorage pay off in the model exactly as on
       hardware) *)
    if ctx.opts.assume_cache_optimal then Float.min boundary total.bytes
    else if boundary > 0. && boundary <= ctx.cache_bytes then
      Float.min boundary total.bytes
    else total.bytes
  in
  { total with bytes; vec_width = vec; fpga_pes = pes }

(* --- states and the state machine ---------------------------------------------- *)

and state_acct ctx (st : state) : acct =
  let parents = State.scope_parents st in
  let top =
    List.filter
      (fun n -> Hashtbl.find parents n = None)
      (State.topological_order st)
  in
  let acc =
    List.fold_left
      (fun acc n -> acc ++ node_acct ctx st ~params:[] ~par_params:[] n)
      zero_acct top
  in
  (* each top-level parallel map costs a kernel launch (GPU) or an OpenMP
     fork (CPU) per state execution *)
  let launches =
    List.fold_left
      (fun l n ->
        match State.node st n with
        | Map_entry m when is_parallel_schedule m.mp_schedule -> l +. 1.
        | _ -> l)
      0. top
  in
  { acc with launches = acc.launches +. launches }

(* Walk the transition system on symbols alone, recording each state's
   visits together with the inter-state symbol environment at each visit —
   triangular loop nests (cholesky, lu, ...) need the loop symbol bound to
   evaluate their map extents.  [None] when a condition is data-dependent. *)
and walk_transitions ctx : (int * (string * int) list list) list option =
  let g = ctx.g in
  let visits : (int, (string * int) list list) Hashtbl.t = Hashtbl.create 8 in
  let record sid env =
    Hashtbl.replace visits sid
      (env :: Option.value ~default:[] (Hashtbl.find_opt visits sid))
  in
  let sym_table = Hashtbl.create 8 in
  (* the first binding wins, as in [eval_env]: a nested SDFG's mapped
     symbols come before the outer ones they shadow *)
  List.iter
    (fun (s, v) ->
      if not (Hashtbl.mem sym_table s) then Hashtbl.replace sym_table s v)
    ctx.symbols;
  let lookup name = Hashtbl.find_opt sym_table name in
  let snapshot () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) sym_table []
  in
  let exception Data_dependent in
  let ok =
    try
      let current = ref (State.id (Sdfg.start_state g)) in
      let steps = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        incr steps;
        if !steps > 200_000 then raise Data_dependent;
        record !current (snapshot ());
        let outgoing = Sdfg.out_transitions g !current in
        let taken =
          List.find_opt
            (fun (t : istate_edge) ->
              try Bexp.eval lookup t.is_cond
              with Expr.Unbound_symbol _ -> raise Data_dependent)
            outgoing
        in
        match taken with
        | None -> continue_ := false
        | Some t ->
          List.iter
            (fun (s, e) ->
              Hashtbl.replace sym_table s (Expr.eval lookup e))
            t.is_assign;
          current := t.is_dst
      done;
      true
    with Data_dependent | Expr.Unbound_symbol _ -> false
  in
  if ok then
    Some (Hashtbl.fold (fun sid envs acc -> (sid, envs) :: acc) visits [])
  else None

(* Each state's visits: the transition walk, kept by the pricer, or the
   caller's visit hints by state label (default one visit per state)
   where a condition is data-dependent. *)
and state_visits ctx : (int * (string * int) list list) list =
  let g = ctx.g in
  let walked =
    match ctx.memo with
    | None -> walk_transitions ctx
    | Some memo -> (
      match
        List.find_opt
          (fun (ts, start, _) -> ts == g.g_istate_edges && start = g.g_start)
          memo.m_walks
      with
      | Some (_, _, visits) -> Some visits
      | None ->
        let walked = walk_transitions ctx in
        Option.iter
          (fun visits ->
            memo.m_walks <-
              List.filteri
                (fun i _ -> i < 4)
                ((g.g_istate_edges, g.g_start, visits) :: memo.m_walks))
          walked;
        walked)
  in
  match walked with
  | Some visits -> visits
  | None ->
    Sdfg.states g
    |> List.map (fun st ->
           let n =
             Option.value ~default:1.
               (List.assoc_opt (State.label st) ctx.opts.visit_hints)
           in
           ( State.id st,
             List.init (max 1 (int_of_float n)) (fun _ -> ctx.symbols) ))

(* How [sdfg_acct] prices one state under a visit environment, and
   whether the state reads any of a list of symbols.  With a memo both
   are kept by content stamp; a state holding a nested SDFG is priced
   fresh, because its stamp does not see edits inside the nested graph
   (whose own states the memo never keeps: their walk reads symbols the
   enclosing state binds). *)
and priced ctx (st : state) =
  let price env = state_acct { ctx with symbols = env } st in
  let holds_nested () =
    List.exists
      (fun (_, n) -> match n with Nested_sdfg _ -> true | _ -> false)
      (State.nodes st)
  in
  match ctx.memo with
  | Some memo when not (holds_nested ()) ->
    let descs = ctx.g.g_descs in
    (* every container the state names has the descriptor priced with;
       then the new list serves as well, and later graphs sharing it
       skip the check *)
    let current k =
      k.k_descs == descs
      || List.for_all
           (fun d ->
             match (List.assoc_opt d k.k_descs, List.assoc_opt d descs) with
             | Some was, Some now -> was == now
             | None, None -> true
             | _ -> false)
           (State.used_containers st)
         && (k.k_descs <- descs; true)
    in
    let k =
      match Hashtbl.find_opt memo.m_states st.st_stamp with
      | Some k when current k -> k
      | _ ->
        let k = { k_descs = descs; k_reads = []; k_accts = Env_tbl.create 4 } in
        Hashtbl.replace memo.m_states st.st_stamp k;
        k
    in
    ( (fun env ->
        match Env_tbl.find_opt k.k_accts env with
        | Some a -> a
        | None ->
          let a = price env in
          Env_tbl.replace k.k_accts env a;
          a),
      fun syms ->
        match List.find_opt (fun (s, _) -> s = syms) k.k_reads with
        | Some (_, r) -> r
        | None ->
          let r = reads_any ctx.g st syms in
          k.k_reads <- (syms, r) :: k.k_reads;
          r )
  | _ -> (price, reads_any ctx.g st)

and sdfg_acct ctx : acct =
  let visits = state_visits ctx in
  (* sampled environments differ only in what inter-state edges assign *)
  let loop_syms =
    List.concat_map
      (fun (t : istate_edge) -> List.map fst t.is_assign)
      (Sdfg.transitions ctx.g)
  in
  List.fold_left
    (fun acc (sid, envs) ->
      let st = Sdfg.state ctx.g sid in
      let price, reads = priced ctx st in
      let n = List.length envs in
      (* evaluate the state under up to 32 sampled symbol environments and
         scale — exact for affine extents, accurate for triangular ones *)
      let samples =
        if n <= 32 then envs
        else begin
          let arr = Array.of_list envs in
          List.init 32 (fun i -> arr.(i * n / 32))
        end
      in
      let per =
        match samples with
        | first :: _ when not (reads loop_syms) ->
          (* every sample prices it the same: price it once and add that
             value once per sample, the sum the per-sample fold gives *)
          let a = price first in
          List.fold_left (fun sum _ -> sum ++ a) zero_acct samples
        | _ -> List.fold_left (fun a env -> a ++ price env) zero_acct samples
      in
      acc ++ scale (float_of_int n /. float_of_int (List.length samples)) per)
    zero_acct visits

(* --- time conversion -------------------------------------------------------------- *)

type report = {
  r_time_s : float;
  r_compute_s : float;
  r_memory_s : float;
  r_atomic_s : float;
  r_copy_s : float;
  r_overhead_s : float;
  r_flops : float;
  r_bytes : float;
  r_acct : acct;
}

let pp_report ppf r =
  Fmt.pf ppf
    "time=%.6gs (compute %.3g, memory %.3g, atomics %.3g, copies %.3g, \
     overhead %.3g) flops=%.4g bytes=%.4g"
    r.r_time_s r.r_compute_s r.r_memory_s r.r_atomic_s r.r_copy_s
    r.r_overhead_s r.r_flops r.r_bytes

(* Degree of parallelism available to the top-level scopes of the SDFG on
   the CPU: max trips over parallel-scheduled top maps.  A [Cpu_multicore]
   map only counts if the static race analysis would actually let the
   compiled engine parallelize it — the model prices what the runtime
   does, not what the schedule annotation wishes. *)
let cpu_parallel_degree ctx =
  let g = ctx.g in
  let provably_parallel st nid (m : map_info) =
    match m.mp_schedule with
    | Cpu_multicore -> (
      try Analysis.Races.parallelizable (Analysis.Races.verdict_of g st nid)
      with _ -> false)
    | _ -> true
  in
  Sdfg.states g
  |> List.concat_map (fun st ->
         let parents = State.scope_parents st in
         State.map_entries st
         |> List.filter_map (fun (nid, m) ->
                if
                  Hashtbl.find parents nid = None
                  && is_parallel_schedule m.mp_schedule
                  && provably_parallel st nid m
                  && not ctx.opts.force_sequential
                then
                  Some
                    (try
                       List.fold_left
                         (fun acc (r : Subset.range) ->
                           acc
                           *. (Float.floor
                                 (eval_extent ctx []
                                    (Expr.sub r.stop r.start)
                                  /. Float.max 1.
                                       (eval_extent ctx [] r.stride))
                               +. 1.))
                         1. m.mp_ranges
                     with Cost_error _ ->
                       (* extent depends on a loop symbol; assume the
                          average trip count saturates the cores *)
                       1e9)
                else None))
  |> List.fold_left Float.max 1.

(* Calibrate [parallel_efficiency] from a measured domain-count scaling
   curve [(domains, wall_seconds)].  The model applies efficiency
   linearly (effective degree = e * d), so each multi-domain point yields
   e_d = speedup(d) / d; the calibrated value is their mean, clamped to
   (0, 1].  Points without a sequential baseline, or degenerate timings,
   fall back to [default]. *)
let calibrate_parallel_efficiency
    ?(default = default_options.parallel_efficiency)
    (points : (int * float) list) : float =
  match List.assoc_opt 1 points with
  | Some t1 when t1 > 0. -> (
    let effs =
      List.filter_map
        (fun (d, td) ->
          if d > 1 && td > 0. then Some (t1 /. td /. float_of_int d)
          else None)
        points
    in
    match effs with
    | [] -> default
    | _ ->
      let e =
        List.fold_left ( +. ) 0. effs /. float_of_int (List.length effs)
      in
      Float.max 0.01 (Float.min 1.0 e))
  | _ -> default

let cpu_time (spec : Spec.cpu) ctx (a : acct) : report =
  let degree =
    Float.min (float_of_int spec.c_cores) (cpu_parallel_degree ctx)
  in
  let degree = Float.max 1. (degree *. ctx.opts.parallel_efficiency) in
  let vec =
    match ctx.opts.vector_override with
    | Some v -> v
    | None -> Float.min a.vec_width (float_of_int spec.c_vector_width_f64)
  in
  let core_flops = Spec.cpu_core_scalar_flops spec in
  let compute =
    (a.flops /. (core_flops *. degree *. Float.max 1. vec))
    +. (a.iops /. (2. *. core_flops *. degree))
  in
  let bw =
    (* a single core cannot saturate the memory controllers *)
    Float.min (spec.c_dram_gbs *. 1e9)
      (18e9 *. Float.max 1. degree)
  in
  let memory =
    ((a.bytes +. a.dyn_bytes) /. bw)
    +. (a.rand_bytes /. (bw *. spec.c_random_bw_frac))
  in
  let atomic = a.atomics *. spec.c_atomic_ns *. 1e-9 in
  let overhead =
    (a.launches *. spec.c_fork_us *. 1e-6) +. 1e-6
  in
  let time = Float.max compute memory +. atomic +. overhead in
  { r_time_s = time; r_compute_s = compute; r_memory_s = memory;
    r_atomic_s = atomic; r_copy_s = 0.; r_overhead_s = overhead;
    r_flops = a.flops;
    r_bytes = a.bytes +. a.dyn_bytes +. a.rand_bytes;
    r_acct = a }

let gpu_time (spec : Spec.gpu) _ctx (a : acct) : report =
  let occupancy =
    let max_threads = float_of_int (spec.g_sms * spec.g_threads_per_sm) in
    let per_launch = a.iterations /. Float.max 1. a.launches in
    Float.min 1. (Float.max (per_launch /. 64.) 1. /. max_threads)
    |> Float.max 0.02
  in
  let peak = spec.g_fp64_tflops *. 1e12 *. occupancy in
  let compute = (a.flops /. peak) +. (a.iops /. (2. *. peak)) in
  let memory =
    ((a.bytes +. a.dyn_bytes) /. (spec.g_hbm_gbs *. 1e9))
    +. (a.rand_bytes /. (spec.g_hbm_gbs *. 1e9 *. spec.g_random_bw_frac))
  in
  let atomic = a.atomics *. spec.g_atomic_ns *. 1e-9 in
  let copies =
    a.copies /. (spec.g_pcie_gbs *. 1e9)
  in
  let overhead = a.launches *. spec.g_launch_us *. 1e-6 in
  let time = Float.max compute memory +. atomic +. copies +. overhead in
  { r_time_s = time; r_compute_s = compute; r_memory_s = memory;
    r_atomic_s = atomic; r_copy_s = copies; r_overhead_s = overhead;
    r_flops = a.flops;
    r_bytes = a.bytes +. a.dyn_bytes +. a.rand_bytes;
    r_acct = a }

let fpga_time (spec : Spec.fpga) ctx (a : acct) : report =
  let freq = spec.f_freq_mhz *. 1e6 *. spec.f_route_freq_penalty in
  let ii =
    if ctx.opts.naive_fpga then
      spec.f_naive_ii
      *. Float.max 1. ((a.flops +. a.iops) /. Float.max 1. a.iterations)
    else a.fpga_ii
  in
  let pes =
    if ctx.opts.naive_fpga then 1.
    else
      (* PE replication bounded by DSP budget: ~8 DSPs per f64 FMA *)
      Float.min a.fpga_pes (float_of_int spec.f_dsp /. 8.)
  in
  let lanes = if ctx.opts.naive_fpga then 1. else Float.max 1. a.vec_width in
  let cycles = a.iterations *. ii /. (pes *. lanes) in
  let compute = cycles /. freq in
  let memory =
    (((a.bytes +. a.dyn_bytes) /. (spec.f_ddr_gbs *. 1e9))
     +. (a.rand_bytes /. (spec.f_ddr_gbs *. 1e9 *. 0.1)))
    *. if ctx.opts.naive_fpga then 8. else 1.
  in
  let copies = a.copies /. (spec.f_pcie_gbs *. 1e9) in
  let time = Float.max compute memory +. copies +. 1e-5 in
  { r_time_s = time; r_compute_s = compute; r_memory_s = memory;
    r_atomic_s = 0.; r_copy_s = copies; r_overhead_s = 1e-5;
    r_flops = a.flops;
    r_bytes = a.bytes +. a.dyn_bytes +. a.rand_bytes;
    r_acct = a }

(* --- entry point -------------------------------------------------------------------- *)

let pricer ?(opts = default_options) ~(spec : Spec.t) ~(target : target)
    ~symbols () =
  let cache_bytes =
    match target with
    | Tcpu ->
      (* fair share of the LLC per core plus the private L2 *)
      spec.cpu.c_l2_bytes
      +. (spec.cpu.c_l3_bytes /. float_of_int spec.cpu.c_cores)
    | Tgpu -> 131072.0 (* shared memory + L1 + L2 share per SM *)
    | Tfpga -> spec.fpga.f_bram_bytes
  in
  let memo = { m_states = Hashtbl.create 64; m_walks = [] } in
  fun (g : Sdfg.t) : report ->
    let ctx = { g; opts; symbols; cache_bytes; target; memo = Some memo } in
    let a = sdfg_acct ctx in
    match target with
    | Tcpu -> cpu_time spec.cpu ctx a
    | Tgpu -> gpu_time spec.gpu ctx a
    | Tfpga -> fpga_time spec.fpga ctx a

let estimate ?opts ~spec ~target ~symbols g =
  pricer ?opts ~spec ~target ~symbols () g

(* --- per-map predictive parallel policy --------------------------------------------- *)

(* The runtime analogue of [cpu_time]'s degree computation, specialized
   to the decision the compiled engine has to make per map invocation:
   given a Parallel race verdict, how many domains (if any) will actually
   pay?  PR 5's machinery parallelized every provably-safe map whenever
   SDFG_DOMAINS > 1 and recorded a *slowdown* on maps whose per-chunk
   work was smaller than the fork/merge overhead.  This module prices
   that trade from a calibration record — per-kernel-kind iteration
   throughput plus measured dispatch constants — so the engine can run
   unprofitable maps sequential by prediction rather than by env-var
   fiat.  The prediction is a pure function of (calibration, inputs):
   deterministic for a fixed calibration, monotone in the iteration
   count (more work never predicts fewer domains), and never consulted
   when the verdict is Serial (the engine forces those sequential
   before pricing). *)
module Parallel = struct
  type calibration = {
    cal_host_domains : int;
    cal_fork_s : float;
    cal_chunk_s : float;
    cal_merge_s_per_elem : float;
    cal_kernel_iter_ns : (string * float) list;
    cal_closure_iter_ns : float;
    cal_efficiency : float;
  }

  (* Conservative single-socket defaults, refreshed by the [calibrate]
     bench experiment (persisted in BENCH_interp.json); the shipped
     constants are of the measured order on the bench container.  The
     host core count is the one field read from the machine rather than
     guessed: extra domains beyond it time-slice one core and cannot
     multiply throughput, which is what makes the policy predict 1 on a
     single-core host no matter how optimistic the efficiency fit is. *)
  let default_calibration =
    { cal_host_domains = max 1 (Domain.recommended_domain_count ());
      cal_fork_s = 12e-6;
      cal_chunk_s = 0.4e-6;
      cal_merge_s_per_elem = 6e-9;
      cal_kernel_iter_ns =
        [ ("fill", 0.8); ("copy", 1.0);
          (* the calibrate experiment's contraction case: run-only wall
             over the map iterations of matmul 128^3 (its fill
             included), four output cells per reduction sweep,
             0.70-1.45 ns (median 1.06) over seven runs on a 2-core
             x86-64 container *)
          ("contract", 1.1);
          (* the calibrate experiment's row-evaluator case: run-only
             wall over the map iterations of jacobi-2d N=128 T=10 (one
             call per row node, 64-iteration blocks, the top operator
             in the store loop), 5.7 ns in the recorded run on a 2-core
             x86-64 container.  Nineteen runs there read 5.7-12.0 ns
             (median 10.1) against 7.4-14.5 (median 11.9) for the
             previous evaluator, alternating *)
          ("expr", 5.7);
          (* best of 7 x 50 launches of a 65,536-iteration 1-D gather
             ([o = a[ix]]) and WCR-sum scatter ([o[ix] = v]) through
             a 4,096-element window, compiled engine at 1 domain, on a
             2-core x86-64 container (closure path: ~100 ns there) *)
          ("gather", 10.0); ("scatter", 11.0) ];
      cal_closure_iter_ns = 45.0;
      cal_efficiency = 0.92 }

  let current = ref default_calibration
  let calibration () = !current
  let set_calibration c = current := c

  let iter_ns cal = function
    | None -> cal.cal_closure_iter_ns
    | Some kind -> (
      match List.assoc_opt kind cal.cal_kernel_iter_ns with
      | Some ns -> ns
      | None -> cal.cal_closure_iter_ns)

  type decision = { d_domains : int; d_reason : string }

  (* Modeled wall seconds of one invocation at [domains]: linear-speedup
     work scaled by the calibrated efficiency, plus the fork barrier, the
     dynamic chunk dealing (4 chunks per worker, the dispatcher's ratio)
     and the canonical-order merge of every private accumulator copy. *)
  let predicted_time_s ?cal ~kind ~trips ~inner ~merge_elems domains =
    let cal = match cal with Some c -> c | None -> !current in
    let work =
      float_of_int (max 0 trips)
      *. float_of_int (max 1 inner)
      *. iter_ns cal kind *. 1e-9
    in
    if domains <= 1 then work
    else
      let d = float_of_int domains in
      (* speedup saturates at the host's core count: domains beyond it
         time-slice rather than multiply throughput *)
      let useful =
        float_of_int (max 1 (min domains cal.cal_host_domains))
      in
      let eff = Float.max 0.05 (Float.min 1.0 cal.cal_efficiency) in
      work /. (useful *. eff)
      +. cal.cal_fork_s
      +. (cal.cal_chunk_s *. 4. *. d)
      +. (float_of_int (max 0 merge_elems) *. cal.cal_merge_s_per_elem *. d)

  (* The margin a parallel candidate must clear: predicted parallel time
     below 95% of sequential.  A sub-5% modeled win is within calibration
     noise and not worth occupying the pool. *)
  let profit_margin = 0.95

  let predict ?cal ~max_domains ~kind ~trips ~inner ~merge_elems () :
      decision =
    let cal = match cal with Some c -> c | None -> !current in
    if max_domains <= 1 then { d_domains = 1; d_reason = "single-domain" }
    else if trips <= 0 then { d_domains = 1; d_reason = "zero-trip" }
    else begin
      let seq =
        predicted_time_s ~cal ~kind ~trips ~inner ~merge_elems 1
      in
      let eff = Float.max 0.05 (Float.min 1.0 cal.cal_efficiency) in
      let best = ref 1 and best_t = ref seq in
      for d = 2 to min max_domains trips do
        (* a degree whose efficiency-scaled speedup cannot exceed 1 is
           never a candidate, whatever the overheads *)
        if float_of_int d *. eff > 1. then begin
          let t = predicted_time_s ~cal ~kind ~trips ~inner ~merge_elems d in
          if t < !best_t then begin
            best := d;
            best_t := t
          end
        end
      done;
      if !best > 1 && !best_t < seq *. profit_margin then
        { d_domains = !best; d_reason = "profitable" }
      else { d_domains = 1; d_reason = "below-threshold" }
    end
end
