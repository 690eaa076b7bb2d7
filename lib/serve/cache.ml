(* Content-addressed plan cache: cache key -> Exec.Instance.

   An entry is a live {!Interp.Exec.Instance} — a validated graph with
   its persistent execution environment, whose compiled plans and kernel
   bindings survive across requests.  The table is LRU-bounded (plans
   hold real memory: containers at concrete shapes plus closures) and
   every mutation happens behind one mutex, so the server's executor,
   its connection threads and test domains can share a cache freely.

   Persistence: plans are closures and cannot be written to disk, but
   their ingredients can.  A cache created with [~dir] keeps an on-disk
   index — one [<key>.sdfg] file per entry plus [index.json] carrying
   each entry's symbol valuation and config — and rebuilds the instances
   from it on startup, so a restarted daemon comes up warm (re-planning
   on first run, but skipping parse and validation of request
   payloads).  Requests and the warm-load insert through one [add],
   which writes the graph text to its file and keeps only the instance
   in memory. *)

module Json = Obs.Json
module Exec = Interp.Exec

type entry = {
  e_instance : Exec.Instance.t;
  mutable e_last_use : int;
}

type stats = {
  c_entries : int;
  c_capacity : int;
  c_hits : int;
  c_misses : int;
  c_evictions : int;
}

type t = {
  capacity : int;
  dir : string option;
  tbl : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let index_path dir = Filename.concat dir "index.json"
let graph_path dir key = Filename.concat dir (key ^ ".sdfg")

(* Write [<path>.tmp] beside [path], close it, then rename it over
   [path]: a rename within one directory replaces the file in one step,
   so a crash mid-write leaves at worst a stray [.tmp] file (which
   nothing reads) and never a truncated index or graph. *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents);
  Unix.rename tmp path

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Rewrite the on-disk index to mirror the in-memory table.  Caller
   holds the lock. *)
let persist_index c =
  match c.dir with
  | None -> ()
  | Some dir ->
    let entries =
      Hashtbl.fold
        (fun key e acc ->
          Json.Obj
            [ ("key", Json.Str key);
              ( "symbols",
                Protocol.symbols_to_json (Exec.Instance.symbols e.e_instance)
              );
              ( "config",
                Exec.Config.to_json (Exec.Instance.config e.e_instance) );
              ("last_use", Json.Int e.e_last_use) ]
          :: acc)
        c.tbl []
    in
    write_file (index_path dir) (Json.to_string (Json.Obj [ ("entries", Json.Arr entries) ]))

let size c = locked c (fun () -> Hashtbl.length c.tbl)

let stats c =
  locked c (fun () ->
      { c_entries = Hashtbl.length c.tbl;
        c_capacity = c.capacity;
        c_hits = c.hits;
        c_misses = c.misses;
        c_evictions = c.evictions })

(* Evict least-recently-used entries down to capacity.  Caller holds the
   lock; capacities are small, so a linear scan per eviction is fine. *)
let rec evict_over_capacity c =
  if Hashtbl.length c.tbl > c.capacity then begin
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, best) when best.e_last_use <= e.e_last_use -> acc
          | _ -> Some (key, e))
        c.tbl None
    in
    match victim with
    | None -> ()
    | Some (key, _) ->
      Hashtbl.remove c.tbl key;
      c.evictions <- c.evictions + 1;
      (match c.dir with
      | Some dir -> ( try Sys.remove (graph_path dir key) with Sys_error _ -> ())
      | None -> ());
      evict_over_capacity c
  end

(* Register a freshly created instance.  If another thread inserted the
   same key first, the earlier instance wins (everyone must share one
   instance so its internal lock serializes runs) and no counters move:
   the race's loser already paid its miss in [find]. *)
let add c ~key ~text instance =
  locked c (fun () ->
      match Hashtbl.find_opt c.tbl key with
      | Some e -> e.e_instance
      | None ->
        c.clock <- c.clock + 1;
        Hashtbl.replace c.tbl key { e_instance = instance; e_last_use = c.clock };
        evict_over_capacity c;
        (match c.dir with
        | Some dir -> write_file (graph_path dir key) text
        | None -> ());
        persist_index c;
        instance)

let load_persisted c dir =
  match Json.parse (read_file (index_path dir)) with
  | exception _ -> ()  (* no index yet, or unreadable: start cold *)
  | idx ->
    let entries =
      match Json.member "entries" idx with
      | Some (Json.Arr es) -> es
      | _ -> []
    in
    (* Oldest first, so the in-memory LRU order survives the restart. *)
    let with_age =
      List.filter_map
        (fun e ->
          match Option.bind (Json.member "key" e) Json.to_string_opt with
          | Some key ->
            let age =
              Option.bind (Json.member "last_use" e) Json.to_int_opt
              |> Option.value ~default:0
            in
            Some (age, key, e)
          | None -> None)
        entries
      |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
    in
    List.iter
      (fun (_, key, e) ->
        (* A corrupt or stale entry is skipped, never fatal: the daemon
           must come up even if the cache directory rotted. *)
        match
          let text = read_file (graph_path dir key) in
          let g = Sdfg_ir.Serialize.of_string text in
          let symbols =
            match Json.member "symbols" e with
            | Some s -> (
              match Protocol.symbols_of_json s with
              | Ok sy -> sy
              | Error _ -> [])
            | None -> []
          in
          let config =
            match Json.member "config" e with
            | Some cj -> (
              match Exec.Config.of_json cj with
              | Ok cfg -> cfg
              | Error _ -> Exec.Config.default)
            | None -> Exec.Config.default
          in
          (text, Exec.Instance.create ~config ~symbols g)
        with
        | text, instance -> ignore (add c ~key ~text instance)
        | exception _ -> ())
      with_age

let create ?(capacity = 32) ?dir () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  let c =
    { capacity; dir; tbl = Hashtbl.create 32; lock = Mutex.create ();
      clock = 0; hits = 0; misses = 0; evictions = 0 }
  in
  (match dir with
  | Some d ->
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    load_persisted c d
  | None -> ());
  c

let find c key =
  locked c (fun () ->
      match Hashtbl.find_opt c.tbl key with
      | Some e ->
        c.clock <- c.clock + 1;
        e.e_last_use <- c.clock;
        c.hits <- c.hits + 1;
        Some e.e_instance
      | None ->
        c.misses <- c.misses + 1;
        None)

let to_json (s : stats) : Json.t =
  Json.Obj
    [ ("entries", Json.Int s.c_entries);
      ("capacity", Json.Int s.c_capacity);
      ("hits", Json.Int s.c_hits);
      ("misses", Json.Int s.c_misses);
      ("evictions", Json.Int s.c_evictions) ]
