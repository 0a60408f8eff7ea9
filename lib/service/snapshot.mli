(** Persistent graph snapshots — the [icost.graphcache.v2] format.

    A snapshot captures everything a session needs to answer queries
    without re-running the expensive preparation pipeline: the prepared
    workload (interpreted trace + annotated events), the dependence
    graph's flat arrays (fullgraph engine) and the memoized subset-time
    table the session has accumulated.  Snapshots are keyed by the same
    [workload|window|config-digest|engine|seed] string as the server's
    session cache, so [icost serve --cache-dir] warm-starts after a
    restart and one-shot CLI runs can reuse each other's work.

    {2 File format}

    {v
    "icost.graphcache.v2\n"                         magic + version
    8-byte big-endian length | 16-byte MD5 | bytes   section: session key
    8-byte big-endian length | 16-byte MD5 | bytes   section: payload
    v}

    The payload section is an OCaml [Marshal] image; its digest is
    verified {e before} unmarshaling, so truncated or bit-flipped files
    are rejected without ever feeding attacker-controlled bytes to
    [Marshal.from_string].  Writes go to a temp file in the same
    directory and [rename] into place, so readers never observe a
    partial snapshot.  Any rejection ([`Reject]) or absence ([`Miss])
    falls back to a clean rebuild; a snapshot is never load-bearing.
    Version 2 stores the graph as {!Icost_depgraph.Graph.marshal}'s image
    of its flat arrays; a version 1 file (boxed edge records) is rejected
    for its magic, quarantined and rebuilt once.

    A rejected file is additionally {b quarantined}: renamed to
    [<file>.quarantined] (atomic, evidence kept for post-mortems) so the
    next load of the same key is a plain [`Miss] that rebuilds and
    overwrites — a crash-corrupted snapshot costs one rejection ever,
    not one per restart.

    {!establish} counts each store outcome once, after its own checks, in
    the [graph.snapshot_hits] / [graph.snapshot_misses] /
    [graph.snapshot_rejects] telemetry counters; {!load} counts
    quarantined files in [graph.snapshot_quarantined]. *)

type payload = {
  engine : string;  (** {!Icost_experiments.Runner.oracle_kind_name} *)
  key : string;  (** full session key; verified against the request *)
  prepared : Icost_experiments.Runner.prepared;
  graph : string option;
      (** {!Icost_depgraph.Graph.marshal} bytes, fullgraph engine only *)
  memo : (Icost_core.Category.Set.t * float) array;
      (** memoized subset times, {!Icost_core.Cost.memo_entries} order *)
}

val file_of : dir:string -> key:string -> string
(** Snapshot path for a key: [dir/<md5-hex-of-key>.snap]. *)

val save : dir:string -> key:string -> payload -> unit
(** Write atomically (temp file + rename), creating [dir] if missing.
    Raises [Sys_error]/[Unix.Unix_error] on I/O failure — callers on the
    serving path use {!establish}/{!persist}, which swallow those. *)

val load : dir:string -> key:string -> [ `Hit of payload | `Miss | `Reject of string ]
(** [`Miss] when no snapshot exists for the key; [`Reject reason] for a
    bad magic/version, truncated or corrupted sections, a key mismatch,
    or an engine/shape mismatch.  A rejected file is quarantined (see
    module doc): renamed [*.quarantined], so asking again is [`Miss].
    Never raises on malformed input. *)

(** {2 Session establishment}

    The shared build-or-warm-start path used by the server's session
    cache and the one-shot CLI: consult the snapshot store (when a cache
    directory is configured), otherwise build fresh and seed the store. *)

type established = {
  est_engine : string;  (** {!Icost_experiments.Runner.oracle_kind_name} *)
  est_prepared : Icost_experiments.Runner.prepared;
  est_oracle : Icost_core.Cost.oracle;  (** memoized *)
  est_memo : Icost_core.Cost.memo;  (** handle for snapshot dumps *)
  est_graph : unit -> Icost_depgraph.Graph.t option;
      (** memoized, thread-safe; on a warm start the first call decodes
          the snapshot's graph bytes, so memo-covered queries never pay
          for graph reconstruction *)
  est_graph_bytes : string option;
      (** {!Icost_depgraph.Graph.marshal} image of the graph, kept so
          {!persist} never re-encodes it; [None] without a cache dir *)
  est_disk : [ `Hit | `Miss | `Reject | `Off ];
      (** what the snapshot store said; [`Off] without a cache dir *)
  est_persisted : int ref;  (** memo entries already on disk *)
}

val establish :
  ?cache_dir:string ->
  key:string ->
  kind:Icost_experiments.Runner.oracle_kind ->
  cfg:Icost_uarch.Config.t ->
  seed:int ->
  prepare:(unit -> Icost_experiments.Runner.prepared) ->
  unit ->
  established
(** Establish a session for [key].  On a snapshot hit the prepared
    workload, graph and memo table come from disk and the underlying
    engine is rebuilt lazily (mutex-guarded, [Lazy] is not
    thread-safe) only if a query ever misses the seeded memo; [prepare]
    is not called.  Otherwise the session is built
    fresh — exactly the constructors the server used before snapshots
    existed — and, when a cache dir is configured, saved best-effort.
    [seed] only reaches the profiler's sampling PRNG. *)

val persist : dir:string -> key:string -> established -> unit
(** Re-save the snapshot if the memo grew since the last save (analysis
    answered new subsets), so the next cold start replays them from
    disk.  No-op when nothing grew; I/O errors are swallowed. *)
