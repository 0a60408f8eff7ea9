(* Persistent graph snapshots.  See snapshot.mli for the format. *)

module Telemetry = Icost_util.Telemetry
module Category = Icost_core.Category
module Cost = Icost_core.Cost
module Config = Icost_uarch.Config
module Multisim = Icost_sim.Multisim
module Build = Icost_depgraph.Build
module Graph = Icost_depgraph.Graph
module Profile = Icost_profiler.Profile
module Sampler = Icost_profiler.Sampler
module Stream_core = Icost_stream.Core
module Runner = Icost_experiments.Runner

let magic = "icost.graphcache.v2\n"

type payload = {
  engine : string;
  key : string;
  prepared : Runner.prepared;
  graph : string option;  (** {!Graph.marshal} bytes, fullgraph engine only *)
  memo : (Category.Set.t * float) array;
}

let c_hits = Telemetry.counter "graph.snapshot_hits"
let c_misses = Telemetry.counter "graph.snapshot_misses"
let c_rejects = Telemetry.counter "graph.snapshot_rejects"
let c_quarantined = Telemetry.counter "graph.snapshot_quarantined"

let file_of ~dir ~key = Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".snap")

(* ---------- encoding ---------- *)

let add_u64 buf (n : int) =
  for i = 7 downto 0 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let get_u64 s off =
  let n = ref 0 in
  for i = 0 to 7 do
    n := (!n lsl 8) lor Char.code s.[off + i]
  done;
  !n

(* length | md5 | bytes *)
let add_section buf (data : string) =
  add_u64 buf (String.length data);
  Buffer.add_string buf (Digest.string data);
  Buffer.add_string buf data

let save ~dir ~key (p : payload) : unit =
  if not (Sys.file_exists dir) then begin
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end;
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  add_section buf key;
  add_section buf (Marshal.to_string p []);
  let file = file_of ~dir ~key in
  let tmp = Printf.sprintf "%s.tmp.%d" file (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try Buffer.output_buffer oc buf
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp file

exception Bad_snapshot of string

let load ~dir ~key : [ `Hit of payload | `Miss | `Reject of string ] =
  let file = file_of ~dir ~key in
  if not (Sys.file_exists file) then `Miss
  else begin
    let result =
      try
        let ic = open_in_bin file in
        let s =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let len = String.length s in
        let mlen = String.length magic in
        if len < mlen || String.sub s 0 mlen <> magic then
          raise (Bad_snapshot "bad magic or version");
        (* walk the length-prefixed sections, checking bounds and digests
           before touching the bytes; digest and unmarshal work at
           offsets so a multi-MB payload is never copied *)
        let section off =
          if off + 24 > len then raise (Bad_snapshot "truncated header");
          let dlen = get_u64 s off in
          if dlen < 0 || off + 24 + dlen > len then
            raise (Bad_snapshot "truncated section");
          let digest = String.sub s (off + 8) 16 in
          if Digest.substring s (off + 24) dlen <> digest then
            raise (Bad_snapshot "section digest mismatch");
          (off + 24, dlen, off + 24 + dlen)
        in
        let koff, klen, off = section mlen in
        if String.sub s koff klen <> key then
          raise (Bad_snapshot "session key mismatch");
        let poff, _, off = section off in
        if off <> len then raise (Bad_snapshot "trailing bytes");
        (* the digest has vouched for the bytes; unmarshal is now safe *)
        let p : payload =
          try Marshal.from_string s poff
          with Failure _ -> raise (Bad_snapshot "unreadable payload")
        in
        if p.key <> key then raise (Bad_snapshot "payload key mismatch");
        `Hit p
      with
      | Bad_snapshot reason -> `Reject reason
      | Sys_error _ | End_of_file -> `Reject "unreadable file"
    in
    (match result with
     | `Reject _ ->
       (* quarantine: move the corrupt file aside so the next load is a
          plain miss that rebuilds and overwrites, instead of re-reading
          and re-rejecting the same bytes on every restart.  The rename
          is atomic and keeps the evidence for post-mortems; a racing
          writer that just replaced the file with a good snapshot loses
          it to the quarantine and rebuilds once — correct, merely
          wasteful, and only possible while the file is actively torn. *)
       (try
          Sys.rename file (file ^ ".quarantined");
          Telemetry.incr c_quarantined
        with Sys_error _ -> ())
     | `Hit _ | `Miss -> ());
    result
  end

(* ---------- session establishment ---------- *)

type established = {
  est_engine : string;
  est_prepared : Runner.prepared;
  est_oracle : Cost.oracle;
  est_memo : Cost.memo;
  est_graph : unit -> Graph.t option;
  est_graph_bytes : string option;
  est_disk : [ `Hit | `Miss | `Reject | `Off ];
  est_persisted : int ref;
}

(* Memoize a thunk: [Lazy.force] is not thread-safe, so the cell is
   mutex-guarded; a build that raises leaves the cell empty and the lock
   released, so later calls retry. *)
let memoized (build : unit -> 'a) : unit -> 'a =
  let m = Mutex.create () in
  let cell = ref None in
  fun () ->
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () ->
        match !cell with
        | Some v -> v
        | None ->
          let v = build () in
          cell := Some v;
          v)

let lazy_oracle (build : unit -> Cost.oracle) : Cost.oracle =
  let force = memoized build in
  {
    Cost.point = (fun s -> Cost.query (force ()) s);
    batch = Some (fun sets -> Cost.query_batch (force ()) sets);
  }

let save_quiet ~dir ~key p =
  try save ~dir ~key p
  with Sys_error _ | Unix.Unix_error _ -> ()

let establish ?cache_dir ~key ~(kind : Runner.oracle_kind) ~(cfg : Config.t)
    ~seed ~(prepare : unit -> Runner.prepared) () : established =
  let engine = Runner.oracle_kind_name kind in
  let disk =
    match cache_dir with
    | None -> `Off
    | Some dir -> (
      match load ~dir ~key with
      | `Hit p when p.engine = engine ->
        (* a fullgraph snapshot without its graph cannot serve
           graph-stats; rebuild rather than limp *)
        if kind = Runner.Fullgraph && p.graph = None then
          `Reject "missing graph"
        else `Hit p
      | `Hit _ -> `Reject "engine mismatch"
      | (`Miss | `Reject _) as r -> r)
  in
  (* counted here, from the final outcome: a file [load] read cleanly
     may still be rejected above *)
  (match disk with
   | `Hit _ -> Telemetry.incr c_hits
   | `Miss -> Telemetry.incr c_misses
   | `Reject _ -> Telemetry.incr c_rejects
   | `Off -> ());
  match disk with
  | `Hit p ->
    let graph =
      match (kind, p.graph) with
      | Runner.Fullgraph, Some gs ->
        (* the bytes are digest-verified, so decoding is deferred off the
           warm-start path: memo-covered queries never pay for it.  An
           unreadable image (an encoding bug, not corruption) falls back
           to a fresh build. *)
        memoized (fun () ->
            Some
              (try Graph.unmarshal gs
               with Failure _ -> Runner.graph_of cfg p.prepared))
      | _ -> fun () -> None
    in
    let underlying =
      match kind with
      | Runner.Fullgraph ->
        lazy_oracle (fun () ->
            match graph () with
            | Some g -> Build.oracle g
            | None -> assert false (* fullgraph always decodes a graph *))
      | Runner.Multisim ->
        Multisim.oracle cfg p.prepared.Runner.trace p.prepared.Runner.evts
      | Runner.Profiler ->
        (* profiling is expensive; only pay for it if a query ever
           escapes the seeded memo *)
        lazy_oracle (fun () ->
            Profile.oracle
              (Runner.profiler_run
                 ~opts:{ Sampler.default_opts with seed }
                 cfg p.prepared))
      | Runner.Streamed ->
        (* segmented re-analysis is cheap relative to a cold prepare and
           needs no persistent image; defer it past the seeded memo *)
        lazy_oracle (fun () ->
            Stream_core.oracle (Runner.stream_run cfg p.prepared))
    in
    let memo = Cost.memo_make underlying in
    Cost.memo_seed memo p.memo;
    {
      est_engine = engine;
      est_prepared = p.prepared;
      est_oracle = Cost.memo_oracle memo;
      est_memo = memo;
      est_graph = graph;
      est_graph_bytes = p.graph;
      est_disk = `Hit;
      est_persisted = ref (Array.length p.memo);
    }
  | (`Miss | `Reject _ | `Off) as miss ->
    let prepared = prepare () in
    let graph, underlying =
      match kind with
      | Runner.Multisim ->
        (None, Multisim.oracle cfg prepared.Runner.trace prepared.Runner.evts)
      | Runner.Fullgraph ->
        let g = Runner.graph_of cfg prepared in
        (Some g, Build.oracle g)
      | Runner.Profiler ->
        ( None,
          Profile.oracle
            (Runner.profiler_run ~opts:{ Sampler.default_opts with seed } cfg
               prepared) )
      | Runner.Streamed ->
        (None, Stream_core.oracle (Runner.stream_run cfg prepared))
    in
    (* only the snapshot store reads the image: without one, encoding it
       would slow every cold build and keep a second copy of the graph
       for the session's lifetime *)
    let graph_bytes =
      Option.bind cache_dir (fun _ -> Option.map Graph.marshal graph)
    in
    let memo = Cost.memo_make underlying in
    Option.iter
      (fun dir ->
        save_quiet ~dir ~key
          { engine; key; prepared; graph = graph_bytes; memo = [||] })
      cache_dir;
    {
      est_engine = engine;
      est_prepared = prepared;
      est_oracle = Cost.memo_oracle memo;
      est_memo = memo;
      est_graph = (fun () -> graph);
      est_graph_bytes = graph_bytes;
      est_disk = (match miss with `Reject _ -> `Reject | (`Miss | `Off) as m -> m);
      est_persisted = ref 0;
    }

let persist ~dir ~key (e : established) : unit =
  if Cost.memo_size e.est_memo > !(e.est_persisted) then begin
    let entries = Cost.memo_entries e.est_memo in
    save_quiet ~dir ~key
      {
        engine = e.est_engine;
        key;
        prepared = e.est_prepared;
        graph = e.est_graph_bytes;
        memo = entries;
      };
    e.est_persisted := Array.length entries
  end
