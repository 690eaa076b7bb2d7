(* The system's path from program text to a planned instance — parse,
   Validate, Propagate, race analysis, hash, Instance.create, first and
   second run — with one span per public call.  Every workload loads
   its programs through here, so a per-call metric such as
   [core.validate_ms] means the same thing on each. *)

module Exec = Interp.Exec
module Tensor = Interp.Tensor
module T = Tasklang.Types

(* Every execution is pinned to one domain: an explicit count beats
   both SDFG_DOMAINS and the predictive per-map policy. *)
let config =
  Exec.Config.(default |> with_engine Interp.Plan.compiled |> with_domains 1)

let reference_config =
  Exec.Config.(default |> with_engine `Reference |> with_domains 1)

type source = Sdfg_text of string | Ndlang of string

let source_text = function Sdfg_text s | Ndlang s -> s

(* Benchmark-side faults for the self-test: a 1 ms delay inside every
   timed Validate call, and one corrupted output seen by the checks. *)
let validate_delay = ref false
let corrupt_output = ref false

let parse tr = function
  | Sdfg_text s ->
    Tr.span tr "core.sdfg_parse" (fun () -> Sdfg_ir.Serialize.of_string s)
  | Ndlang s ->
    Tr.span tr "builder.ndlang_parse" (fun () -> Builder.Ndlang.parse s)

let validate tr g =
  Tr.span tr "core.validate" (fun () ->
      if !validate_delay then Unix.sleepf 0.001;
      match Sdfg_ir.Validate.validate g with
      | Ok () -> ()
      | Error errs ->
        failwith
          (String.concat "; " (List.map Sdfg_ir.Validate.error_to_string errs)))

let propagate tr g =
  Tr.span tr "core.propagate" (fun () -> Sdfg_ir.Propagate.propagate g)

(* A fresh build from text: parse, validate, propagate. *)
let build tr src =
  let g = parse tr src in
  validate tr g;
  propagate tr g;
  g

let races tr g =
  Tr.span tr "analysis.races" (fun () -> ignore (Analysis.Races.analyze g))

let hash tr g = Tr.span tr "core.hash" (fun () -> Sdfg_ir.Sdfg.hash g)

(* Everything before instantiation: a fresh build, race-analysed and
   hashed.  Returns the graph and its content hash. *)
let load tr src =
  let g = build tr src in
  races tr g;
  (g, hash tr g)

let create tr ~symbols g =
  Tr.span tr "interp.create" (fun () -> Exec.Instance.create ~config ~symbols g)

let run tr ?stream_args ~args inst =
  Tr.span tr "interp.run" (fun () -> Exec.Instance.run ~args ?stream_args inst)

(* The first and second run of a fresh instance on identical inputs.
   Plans compile lazily on the first, so the difference is plan time
   (an [interp.plan_ms] sample).  Returns the first run's report, which
   carries the plan coverage. *)
let warm tr ?stream_args inst ~first ~second =
  let report, d1 =
    Tr.time (fun () ->
        Tr.span tr "interp.first_run" (fun () ->
            Exec.Instance.run ~args:first ?stream_args inst))
  in
  let _, d2 = Tr.time (fun () -> run tr ?stream_args ~args:second inst) in
  Tr.sample tr "interp.plan_ms" (Tr.ms (d1 - d2));
  report

let ir_nodes g =
  List.fold_left
    (fun n st -> n + Sdfg_ir.State.num_nodes st)
    0 (Sdfg_ir.Sdfg.states g)

(* Plan coverage of a first run: kernel-lowered maps, maps left on the
   closure path, and nodes executed through the reference path. *)
let coverage (r : Obs.Report.t) =
  match r.Obs.Report.r_coverage with
  | None -> (0, 0, 0)
  | Some c ->
    let total = List.fold_left (fun n (_, k) -> n + k) 0 in
    ( total c.Obs.Report.cov_kernels,
      total c.Obs.Report.cov_kernel_fallbacks,
      c.Obs.Report.cov_fallback )

(* --- inputs and checks --------------------------------------------------- *)

let clone t =
  let d = Tensor.create (Tensor.dtype t) (Array.copy (Tensor.shape t)) in
  Tensor.copy_into ~src:t ~dst:d;
  d

let clone_args args = List.map (fun (n, t) -> (n, clone t)) args

(* Restore working tensors from their pristine copies, so programs that
   accumulate in place start every run from the same values. *)
let restore ~pristine work =
  List.iter2 (fun (_, p) (_, w) -> Tensor.copy_into ~src:p ~dst:w) pristine work

(* IEEE-754 bit patterns in row-major order: NaN payloads and signed
   zeros compare exactly. *)
let bits t = List.map Int64.bits_of_float (Tensor.to_float_list t)

let digest t = Digest.string (Marshal.to_string (Tensor.shape t, bits t) [])

(* Bit equality without allocation on the dense tensors the checks see. *)
let same (a : Tensor.t) (b : Tensor.t) =
  Tensor.shape a = Tensor.shape b
  && Tensor.dtype a = Tensor.dtype b
  &&
  if Tensor.is_dense a && Tensor.is_dense b then begin
    let n = Tensor.num_elements a and oa = a.Tensor.offset
    and ob = b.Tensor.offset in
    match (a.Tensor.buf, b.Tensor.buf) with
    | Tensor.Fbuf x, Tensor.Fbuf y ->
      let rec go i =
        i >= n
        || Int64.equal
             (Int64.bits_of_float x.(oa + i))
             (Int64.bits_of_float y.(ob + i))
           && go (i + 1)
      in
      go 0
    | Tensor.Ibuf x, Tensor.Ibuf y ->
      let rec go i = i >= n || (x.(oa + i) = y.(ob + i) && go (i + 1)) in
      go 0
    | _ -> false
  end
  else bits a = bits b

let corrupted t =
  let c = clone t in
  if Tensor.num_elements c > 0 then
    Tensor.set_linear c 0
      (match Tensor.get_linear c 0 with
      | T.F x -> T.F (x +. 1.)
      | T.I n -> T.I (n + 1)
      | T.B b -> T.B (not b));
  c

(* Every expected tensor is present in [got] with the same bits.  Under
   the corrupt-output fault, the first check of the run sees its first
   expected tensor with one element changed. *)
let outputs_match ~expected got =
  let got =
    match expected with
    | (name, _) :: _ when !corrupt_output ->
      corrupt_output := false;
      List.map
        (fun (n, t) -> if String.equal n name then (n, corrupted t) else (n, t))
        got
    | _ -> got
  in
  List.for_all
    (fun (name, want) ->
      match List.assoc_opt name got with
      | Some t -> same t want
      | None -> false)
    expected
