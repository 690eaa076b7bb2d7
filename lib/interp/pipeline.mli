(** Streaming runtime behind [Exec.Instance.run_streaming]. *)

val run :
  Reference.env ->
  chunk:int ->
  input:string ->
  output:string option ->
  source:(unit -> Tasklang.Types.value array option) ->
  sink:(Tasklang.Types.value array -> unit) ->
  Obs.Report.channel_stat list * Obs.Report.worker_stat list
(** Run the environment's graph in streaming mode: poll [source] for
    input chunks ([None] = end of stream) into [input]'s channel and hand
    [output]'s elements to [sink] in chunks of at most [chunk].  When
    {!Analysis.Races.analyze_pipeline} admits the graph, every consume
    scope runs as a worker connected to its peers by channels sized by
    the streams' declared buffers (256 when unbounded); otherwise the
    source is drained and the state machine runs once, batch-style.
    Returns per-channel and per-worker statistics, empty on the batch
    path.  The first worker failure is re-raised after shutdown. *)
