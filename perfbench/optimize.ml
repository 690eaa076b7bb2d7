(* optimize (in-process, one caller).  One op is one model-only
   Opt.Search from a fresh build, round-robin over Polybench kernels and
   the cfd and attention workloads, then the chosen chain replayed on a
   fresh build, priced with Cost.estimate, race-analysed and hashed.
   Beam, step and candidate bounds are fixed and no wall-clock budget is
   set, so the work per op does not depend on host speed.  lib/opt,
   lib/transform and lib/machine do nearly all of the work here and
   none elsewhere. *)

module Cost = Machine.Cost
module Search = Opt.Search

(* Nominal ops per second; a run makes [seconds * rate] ops. *)
let rate = 12.

let setup_reps = 5
let beam = 2
let max_steps = 3
let max_candidates = 4

type program = {
  name : string;
  build : unit -> Sdfg_ir.Sdfg.t;  (* the fresh build Search replays from *)
  source : Pipeline.source;  (* how set-up loads it *)
  model : (string * int) list;  (* sizes the cost model is evaluated at *)
  mini : (string * int) list;  (* sizes set-up and crossvalidation run at *)
  model_hints : (string * int) list -> (string * float) list;
}

let programs () =
  let text build = Pipeline.Sdfg_text (Sdfg_ir.Serialize.to_string (build ())) in
  let polybench name =
    let k = Workloads.Polybench.find name in
    { name;
      build = k.Workloads.Polybench.k_build;
      source = text k.Workloads.Polybench.k_build;
      model = k.Workloads.Polybench.k_large;
      mini = k.Workloads.Polybench.k_mini;
      model_hints = k.Workloads.Polybench.k_hints }
  in
  List.map polybench [ "gemm"; "atax"; "bicg"; "mvt"; "2mm"; "jacobi-2d" ]
  @ [ { name = "cfd-batched";
        build = Workloads.Cfd.batched;
        source = text Workloads.Cfd.batched;
        model = Workloads.Cfd.paper;
        mini = Workloads.Cfd.mini;
        model_hints = (fun _ -> Workloads.Cfd.hints) };
      { name = "attention";
        build = Workloads.Attention.base;
        source = Pipeline.Ndlang Workloads.Attention.attention_src;
        model = Workloads.Attention.attention_paper;
        mini = Workloads.Attention.attention_mini;
        model_hints = (fun _ -> Workloads.Attention.hints) } ]

(* Model sizes for one op: the program's sizes scaled by a seeded factor
   in [3/4, 1]. *)
let scaled rs sizes =
  let num = 6 + Random.State.int rs 3 in
  List.map (fun (s, v) -> (s, max 2 (v * num / 8))) sizes

let search_config p symbols =
  Search.config
    ~opts:{ Cost.default_options with Cost.hints = p.model_hints symbols }
    ~exec:Pipeline.config ~objective:Search.Model_only ~beam ~max_steps
    ~max_candidates ~target:Cost.Tcpu ~symbols ()

let traced_build tr p () = Tr.span tr "builder.build" p.build

type result = {
  search : Search.result;
  graph : Sdfg_ir.Sdfg.t;  (* the chosen chain replayed on a fresh build *)
  search_ns : int;
  apply_ns : int;
  estimate_ns : int;
}

let op tr p symbols =
  let cfg = search_config p symbols in
  let search, search_ns =
    Tr.time (fun () ->
        Tr.span tr "opt.search" (fun () ->
            Search.optimize ~name:p.name cfg (traced_build tr p)))
  in
  let graph = traced_build tr p () in
  let (), apply_ns =
    Tr.time (fun () ->
        Tr.span tr "transform.apply_chain" (fun () ->
            Transform.Xform.apply_chain_exn graph search.Search.r_chain))
  in
  let _, estimate_ns =
    Tr.time (fun () ->
        Tr.span tr "machine.cost_estimate" (fun () ->
            Cost.estimate ~opts:cfg.Search.c_opts ~spec:cfg.Search.c_spec
              ~target:Cost.Tcpu ~symbols graph))
  in
  Pipeline.races tr graph;
  ignore (Pipeline.hash tr graph);
  { search; graph; search_ns; apply_ns; estimate_ns }

(* Set-up: the transformation registry, then each program loaded,
   instantiated at mini sizes and run twice, and one warm-up search per
   program so the optimizer's lazy state has settled. *)
let set_up tr programs =
  let inputs =
    List.map
      (fun p ->
        let args = Interp.Profile.make_args ~symbols:p.mini (p.build ()) in
        (p, args, Pipeline.clone_args args))
      programs
  in
  snd
    (Report.setup_rep ~cores:1 (fun () ->
         Transform.Std.register_all ();
         List.iter
           (fun (p, first, second) ->
             let g, _ = Pipeline.load tr p.source in
             let inst = Pipeline.create tr ~symbols:p.mini g in
             ignore (Pipeline.warm tr inst ~first ~second);
             ignore
               (Search.optimize ~name:p.name (search_config p p.model)
                  (traced_build tr p)))
           inputs))

let run ~tr ~seed ~seconds =
  let programs = programs () in
  let rs = Random.State.make [| 0x6f7074; seed |] in
  let n = max 16 (int_of_float (Float.round (seconds *. rate))) in
  let np = List.length programs in
  (* Each cycle of [np] ops visits every program once, in a seeded
     order: a window of one cycle always holds the same programs. *)
  let cycle () =
    let a = Array.of_list programs in
    for i = np - 1 downto 1 do
      let j = Random.State.int rs (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let seq =
    Array.sub (Array.concat (List.init ((n + np - 1) / np) (fun _ -> cycle ()))) 0 n
    |> Array.map (fun p -> (p, scaled rs p.model))
  in
  let digest =
    Array.to_list seq
    |> List.map (fun (p, sizes) ->
           p.name ^ " "
           ^ String.concat ","
               (List.map (fun (s, v) -> Printf.sprintf "%s=%d" s v) sizes))
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let setup = List.init setup_reps (fun _ -> set_up tr programs) in
  let latencies = Array.make n 0 and failed = ref 0 in
  let drift = Report.drift ~cores:1 2 in
  let tried = ref 0 and applied = ref 0 and pruned = ref 0 and nodes = ref 0 in
  let kernels = ref 0 and fallbacks = ref 0 and fallback_nodes = ref 0 in
  let times = Hashtbl.create 16 in
  let note name ns =
    let prev = Option.value ~default:[] (Hashtbl.find_opt times name) in
    Hashtbl.replace times name (Tr.ms ns :: prev)
  in
  Array.iteri
    (fun i (p, symbols) ->
      Report.tick drift i;
      let result, dt =
        Tr.op tr i (fun () -> try Some (op tr p symbols) with _ -> None)
      in
      latencies.(i) <- dt;
      match result with
      | None -> incr failed
      | Some r -> (
        List.iter
          (fun (l : Search.step_log) ->
            tried := !tried + l.Search.l_tried;
            applied := !applied + l.Search.l_applied;
            pruned := !pruned + l.Search.l_pruned)
          r.search.Search.r_steps;
        nodes := !nodes + Pipeline.ir_nodes r.graph;
        (* Plan coverage of the chosen program, from a first run at mini
           sizes outside the op. *)
        let covered =
          try
           let args = Interp.Profile.make_args ~symbols:p.mini r.graph in
           let inst = Pipeline.create tr ~symbols:p.mini r.graph in
           let k, f, fb =
             Pipeline.coverage
               (Pipeline.warm tr inst ~first:args
                  ~second:(Pipeline.clone_args args))
           in
           kernels := !kernels + k;
           fallbacks := !fallbacks + f;
           fallback_nodes := !fallback_nodes + fb;
           true
          with _ -> false
        in
        note ("opt.search_ms." ^ p.name) r.search_ns;
        note "transform.apply_chain_ms" r.apply_ns;
        note "machine.cost_estimate_ms" r.estimate_ns;
        (* The check: the chain replayed on a fresh build agrees bit for
           bit with the reference engine on the untransformed program. *)
        let checked =
          match Search.crossval ~symbols:p.mini p.build r.search.Search.r_chain with
          | Ok () -> true
          | Error _ | (exception _) -> false
        in
        if not (covered && checked) then incr failed))
    seq;
  Report.finish drift n;
  { Report.attempted = n;
    failed = !failed;
    latencies_ns = latencies;
    concurrency = 1;
    window = np;
    drift;
    setup;
    rss_mb = Report.peak_rss_mb "self";
    digest;
    values =
      [ ("core.ir_nodes", float_of_int !nodes);
        ("interp.kernel_maps", float_of_int !kernels);
        ("interp.kernel_fallbacks", float_of_int !fallbacks);
        ("interp.fallback_nodes", float_of_int !fallback_nodes) ];
    notes =
      [ ("opt.tried", float_of_int !tried);
        ("opt.applied", float_of_int !applied);
        ("opt.pruned", float_of_int !pruned) ]
      @ (Hashtbl.fold (fun k v acc -> (k, Tr.median v) :: acc) times []
        |> List.sort compare);
    tracers = [ tr ] }
