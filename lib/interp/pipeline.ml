(* The streaming runtime: a graph whose consume scopes form a pipeline
   runs them as long-lived workers connected by bounded channels
   ({!Stream}), on either engine.  Workers execute the reference
   interpreter's batch consume schedule, with stage bodies compiled by
   {!Plan.compile_stage} on the compiled engine. *)

open Sdfg_ir
open Defs

(* Channel capacity for one stream: its declared [s_buffer] (evaluated
   against the run's symbols), or 256 for unbounded/unevaluable buffers.
   Clamped >= 1 — a bounded channel is what produces backpressure. *)
let channel_capacity (env : Reference.env) name =
  match (if Sdfg.has_desc env.g name then Some (Sdfg.desc env.g name) else None) with
  | Some (Stream s) ->
    let n = try Reference.eval_expr env [] s.s_buffer with _ -> 0 in
    if n >= 1 then n else 256
  | _ -> 256

(* Run [env]'s graph in streaming mode.  [source] is polled for input
   chunks ([None] = end of stream) fed into [input]'s channel; every
   consume scope becomes a long-lived worker connected to its peers by
   bounded channels; [sink] receives output chunks popped from [output].

   The overlapped schedule only engages when {!Analysis.Races.analyze_pipeline}
   proves it bit-identical to the batch schedule (single state, each
   channel single-producer single-consumer, stages acyclic with disjoint
   non-stream footprints).  Anything else degrades to batch emulation:
   drain the source fully into the input stream, run the state machine
   once, hand the whole output stream to the sink in one chunk.  Returns
   per-channel and per-worker statistics — empty on the degraded path. *)
let run (env : Reference.env) ~chunk ~input ~output ~source ~sink :
    Obs.Report.channel_stat list * Obs.Report.worker_stat list =
  let degrade () =
    (match Reference.get_container env input with
    | Reference.Strm s ->
      let rec feed () =
        match source () with
        | None -> ()
        | Some vs ->
          Reference.feed_stream env s vs;
          feed ()
      in
      feed ()
    | _ -> Reference.runtime_error "streaming: input %S is not a stream" input);
    Reference.run_state_machine env;
    (match output with
    | None -> ()
    | Some out -> (
      match Reference.get_container env out with
      | Reference.Strm s -> sink (Reference.pop_all s)
      | _ ->
        Reference.runtime_error "streaming: output %S is not a stream" out));
    ([], [])
  in
  if Sdfg.num_states env.g <> 1 then degrade ()
  else
    let st = Sdfg.start_state env.g in
    match Analysis.Races.analyze_pipeline env.g st with
    | Analysis.Races.No_pipeline _ -> degrade ()
    | Analysis.Races.Pipeline stages ->
      let consumed s =
        List.exists
          (fun stg -> String.equal stg.Analysis.Races.pl_stream s)
          stages
      in
      let pushed s =
        List.exists (fun stg -> List.mem s stg.Analysis.Races.pl_pushes) stages
      in
      let chan_names =
        List.sort_uniq String.compare
          (input
          :: List.concat_map
               (fun stg ->
                 stg.Analysis.Races.pl_stream :: stg.Analysis.Races.pl_pushes)
               stages)
      in
      let terminals = List.filter (fun n -> not (consumed n)) chan_names in
      let n_workers = 1 + List.length stages + List.length terminals in
      let eligible =
        consumed input
        && not (pushed input)
        && (match output with
           | None -> true
           | Some o -> pushed o && not (consumed o))
        && n_workers <= 64
      in
      if not eligible then degrade ()
      else begin
        (* Force the per-state caches (topological order, scope tree) on
           this domain: they memoize lazily and are not thread-safe. *)
        ignore (State.topological_order st);
        ignore (State.scope_parents st);
        List.iter
          (fun stg -> ignore (State.scope_nodes st stg.Analysis.Races.pl_entry))
          stages;
        let chans =
          List.map
            (fun n ->
              ( n,
                Stream.create ~name:n ~capacity:(channel_capacity env n) () ))
            chan_names
        in
        let chan n = List.assoc n chans in
        let close_all () = List.iter (fun (_, c) -> Stream.close c) chans in
        (* Workers see each stream as its channel; tensors are shared —
           the pipeline verdict proved the stages' footprints disjoint. *)
        let stbl = Hashtbl.copy env.containers in
        List.iter
          (fun (n, c) ->
            Hashtbl.replace stbl n
              (Reference.Strm { qs = [| c |]; q_shape = [||] }))
          chans;
        let err_lock = Mutex.create () in
        let first_err = ref None in
        let record e =
          Mutex.lock err_lock;
          (match !first_err with
          | None -> first_err := Some e
          | Some _ -> ());
          Mutex.unlock err_lock;
          close_all ()
        in
        (* A worker hitting a closed channel is being told to shut down
           (EOS or another worker's failure): exit silently. *)
        let guard f () = try f () with Stream.Closed _ -> () | e -> record e in
        let in_ch = chan input in
        let feeder_stats = Obs.Report.zero_counters () in
        let feeder_elems = ref 0 and feeder_busy = ref 0.0 in
        let feeder () =
          let rec loop () =
            let t0 = Obs.Collect.now () in
            let next = source () in
            feeder_busy := !feeder_busy +. (Obs.Collect.now () -. t0);
            match next with
            | None -> Stream.close in_ch
            | Some vs ->
              Array.iter
                (fun v ->
                  feeder_stats.stream_pushes <-
                    feeder_stats.stream_pushes + 1;
                  incr feeder_elems;
                  Stream.push in_ch v)
                vs;
              loop ()
          in
          loop ()
        in
        let stage_worker stg =
          let entry = stg.Analysis.Races.pl_entry in
          let info =
            match State.node st entry with
            | Consume_entry i -> i
            | _ -> assert false
          in
          (* exactly the batch executor's [exec_consume] schedule *)
          let body = Reference.scope_body st entry in
          let wstats = Obs.Report.zero_counters () in
          let wenv =
            (* domains = 1: the pool is not reentrant, so inner maps run
               sequentially inside a pipeline stage *)
            { env with stats = wstats; containers = stbl; domains = 1;
              policy = Reference.Fixed 1; par = Reference.fresh_par ();
              plans = Hashtbl.create 1 }
          in
          let st_in = chan stg.Analysis.Races.pl_stream in
          let st_out = List.map chan stg.Analysis.Races.pl_pushes in
          let elems = ref 0 and busy = ref 0.0 in
          (* compile here, on the main domain — plan construction records
             coverage into the shared collector *)
          let num_pes = max 1 (Reference.eval_expr wenv [] info.cs_num_pes) in
          let compiled =
            if wenv.engine = `Compiled then
              Plan.compile_stage wenv st entry info
            else None
          in
          let task () =
            let pe = ref 0 in
            let rec loop () =
              match Stream.pop st_in with
              | None -> List.iter Stream.close st_out
              | Some v ->
                wstats.stream_pops <- wstats.stream_pops + 1;
                wstats.map_iterations <- wstats.map_iterations + 1;
                let t0 = Obs.Collect.now () in
                (match compiled with
                | Some f -> f (!pe mod num_pes) v
                | None ->
                  Reference.exec_nodes wenv st
                    ~params:[ (info.cs_pe_param, !pe mod num_pes) ]
                    ~popped:[ (info.cs_stream, v) ]
                    body);
                busy := !busy +. (Obs.Collect.now () -. t0);
                incr elems;
                incr pe;
                loop ()
            in
            loop ()
          in
          ("consume:" ^ stg.Analysis.Races.pl_stream, task, wstats, elems, busy)
        in
        let drainer name =
          let ch = chan name in
          let elems = ref 0 and busy = ref 0.0 in
          let is_out =
            match output with Some o -> String.equal o name | None -> false
          in
          let task () =
            if is_out then begin
              let buf = ref [] and count = ref 0 in
              let flush () =
                if !count > 0 then begin
                  let arr = Array.of_list (List.rev !buf) in
                  buf := [];
                  count := 0;
                  let t0 = Obs.Collect.now () in
                  sink arr;
                  busy := !busy +. (Obs.Collect.now () -. t0)
                end
              in
              let rec loop () =
                match Stream.pop ch with
                | None -> flush ()
                | Some v ->
                  buf := v :: !buf;
                  incr count;
                  incr elems;
                  if !count >= chunk then flush ();
                  loop ()
              in
              loop ()
            end
            else
              (* unconsumed stream: drain and discard so producers never
                 block permanently on a full channel nobody reads *)
              let rec loop () =
                match Stream.pop ch with
                | None -> ()
                | Some _ ->
                  incr elems;
                  loop ()
              in
              loop ()
          in
          ("drain:" ^ name, task, Obs.Report.zero_counters (), elems, busy)
        in
        let workers =
          (("feed:" ^ input, feeder, feeder_stats, feeder_elems, feeder_busy)
          :: List.map stage_worker stages)
          @ List.map drainer terminals
        in
        let tasks = Array.of_list workers in
        let t0 = Obs.Collect.now () in
        Pool.run ~domains:(Array.length tasks) (fun i ->
            let _, task, _, _, _ = tasks.(i) in
            guard task ());
        let wall = Obs.Collect.now () -. t0 in
        (match !first_err with Some e -> raise e | None -> ());
        (* Drainers count nothing: their pops are bookkeeping, not
           program semantics (the batch path's sink hand-off does not
           count pops either). *)
        Array.iter
          (fun (_, _, s, _, _) -> Obs.Report.add_counters ~into:env.stats s)
          tasks;
        env.stats.states_executed <- env.stats.states_executed + 1;
        let channels = List.map (fun (_, c) -> Stream.stats c) chans in
        let worker_stats =
          List.map
            (fun (name, _, _, elems, busy) ->
              { Obs.Report.pw_name = name;
                pw_elements = !elems;
                pw_busy_s = !busy;
                pw_wall_s = wall })
            (Array.to_list tasks)
        in
        (channels, worker_stats)
      end
