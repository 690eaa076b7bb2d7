(* compile-cold (in-process, closed loop, one caller).  Each op takes a
   never-seen program text to its first result at mini sizes, so
   execution is negligible and the op's time is the compile path: parse
   (Ndlang or .sdfg), Validate, Propagate, race analysis, hash,
   Instance.create, then a first and a second run, whose difference is
   plan time.  Three quarters of the texts are seeded Fuzz.Gen graphs,
   the rest seeded variants of the Ndlang attention and convolution
   sources.  It mirrors exec-suite: work moved between plan time and
   run time shows as a gain on one and a cost on the other. *)

module Exec = Interp.Exec
module Tensor = Interp.Tensor
module A = Workloads.Attention

(* Nominal ops per second; a run makes [seconds * rate] ops. *)
let rate = 600.

let setup_reps = 5
let setup_batch = 64

type input = {
  source : Pipeline.source;
  symbols : (string * int) list;
  args : (string * Tensor.t) list;
}

let fuzz seed =
  let g = Fuzz.Gen.generate seed in
  let symbols = Fuzz.Gen.symbols_for g in
  { source = Pipeline.Sdfg_text (Sdfg_ir.Serialize.to_string g);
    symbols;
    args = Interp.Profile.make_args ~symbols g }

(* The Ndlang sources of [Workloads.Attention] with seeded literal
   factors: the same structure, a never-seen text and hash. *)
let attention_text a b =
  String.concat "\n"
    [ "input Q[M, D]"; "input K[N, D]"; "input V[N, D]"; "input scale";
      "output O[M, D]"; "temp S[M, N]"; "temp m[M, 1]"; "temp E[M, N]";
      "temp Z[M, 1]";
      Printf.sprintf "S = Q @ transpose(K) * scale * %s" a;
      "m = amax(S, 1, keep)"; "E = exp(S - m)"; "Z = sum(E, 1, keep)";
      Printf.sprintf "O = (E / Z) @ V * %s" b; "" ]

let conv_text a =
  String.concat "\n"
    [ "input ImF[PAD]"; "input cidx[P, Q]"; "input Wf[Q, F]";
      "output O2[P, F]"; "temp Cols[P, Q]"; "Cols = ImF[cidx[p, q]]";
      Printf.sprintf "O2 = Cols @ Wf * %s" a; "" ]

let ndlang rs =
  let lit () = Printf.sprintf "%.6f" (0.5 +. Random.State.float rs 1.0) in
  if Random.State.bool rs then begin
    let a = lit () in
    let b = lit () in
    { source = Pipeline.Ndlang (attention_text a b);
      symbols = A.attention_mini;
      args = A.attention_args A.attention_mini }
  end
  else
    { source = Pipeline.Ndlang (conv_text (lit ()));
      symbols = A.conv_mini;
      args = A.conv_args A.conv_mini }

(* Input [i] of batch [batch]: batch 0 is the op sequence, batch 1 the
   set-up, so no op's text is seen before in a run.  Each input
   is made from (seed, batch, i) alone, just before its op, so a run
   never holds more than one. *)
let input ~seed ~batch i =
  let rs = Random.State.make [| 0x636f6c64; seed; batch; i |] in
  if Random.State.int rs 4 = 0 then ndlang rs
  else fuzz (Hashtbl.hash (seed, batch, i))

let op tr inp ~first ~second =
  let g, _ = Pipeline.load tr inp.source in
  let inst = Pipeline.create tr ~symbols:inp.symbols g in
  (g, Pipeline.warm tr inst ~first ~second)

(* The check: the reference engine on the op's own graph. *)
let matches_reference inp g got =
  let want = Pipeline.clone_args inp.args in
  match
    Exec.run ~config:Pipeline.reference_config ~symbols:inp.symbols ~args:want
      g
  with
  | (_ : Obs.Report.t) -> Pipeline.outputs_match ~expected:want got
  | exception _ -> false

let run ~tr ~seed ~seconds =
  let n = max 100 (int_of_float (Float.round (seconds *. rate))) in
  (* Every repetition compiles the same batch, the same for every seed,
     so the repetitions differ only by the host. *)
  let set_up _ =
    let copies =
      Array.init setup_batch (fun i ->
          let inp = input ~seed:0 ~batch:1 i in
          (inp, Pipeline.clone_args inp.args, Pipeline.clone_args inp.args))
    in
    snd
      (Report.setup_rep ~cores:1 (fun () ->
           Array.iter
             (fun (inp, first, second) -> ignore (op tr inp ~first ~second))
             copies))
  in
  let setup = List.init setup_reps set_up in
  let latencies = Array.make n 0 and failed = ref 0 in
  let texts = Buffer.create (16 * n) in
  let drift = Report.drift ~cores:1 100 in
  let nodes = ref 0 and kernels = ref 0 and fallbacks = ref 0
  and fallback_nodes = ref 0 in
  for i = 0 to n - 1 do
    let inp = input ~seed ~batch:0 i in
    Buffer.add_string texts (Digest.string (Pipeline.source_text inp.source));
    let first = Pipeline.clone_args inp.args
    and second = Pipeline.clone_args inp.args in
    Report.tick drift i;
    let result, dt =
      Tr.op tr i (fun () -> try Some (op tr inp ~first ~second) with _ -> None)
    in
    latencies.(i) <- dt;
    match result with
    | None -> incr failed
    | Some (g, report) ->
      let k, f, fb = Pipeline.coverage report in
      nodes := !nodes + Pipeline.ir_nodes g;
      kernels := !kernels + k;
      fallbacks := !fallbacks + f;
      fallback_nodes := !fallback_nodes + fb;
      if not (matches_reference inp g second) then incr failed
  done;
  Report.finish drift n;
  { Report.attempted = n;
    failed = !failed;
    latencies_ns = latencies;
    concurrency = 1;
    window = max 1 (n / 20);
    drift;
    setup;
    rss_mb = Report.peak_rss_mb "self";
    digest = Digest.to_hex (Digest.string (Buffer.contents texts));
    values =
      [ ("core.ir_nodes", float_of_int !nodes);
        ("interp.kernel_maps", float_of_int !kernels);
        ("interp.kernel_fallbacks", float_of_int !fallbacks);
        ("interp.fallback_nodes", float_of_int !fallback_nodes) ];
    notes = [];
    tracers = [ tr ] }
