(** Shard router: fan one service endpoint across K worker processes.

    [run] first forks a {!Supervise} supervisor — while this process is
    still quiescent — and the supervisor forks the shard fleet: [shards]
    child processes, each a full {!Server} (its own scheduler, caches,
    breaker, shedding and — inherited through the fork — fault
    injection) listening on a private Unix socket ([<socket>.shard<i>])
    with a private snapshot directory ([<cache-dir>/shard-<i>]).  The
    router then serves the public Unix socket (and optional TCP
    endpoint) through the shared {!Acceptor} and routes each analysis
    request to the shard owning its target:

    - {b routing}: FNV-1a 64-bit hash of the target's preparation key
      ([workload|warmup|measure]), so every variant/engine session of one
      prepared workload lands on the same shard and shares its prep
      cache.  The hash is position-independent state — the same key maps
      to the same shard across restarts and across processes.
    - {b passthrough}: single analysis frames are forwarded verbatim and
      the shard's reply line is relayed untouched, so replies stay
      bit-identical to a direct connection.
    - {b batch}: a [batch] frame whose analysis items all route to one
      shard is relayed verbatim (the affinity fast path — router cost
      per frame, not per item).  Otherwise the frame is partitioned by
      shard, the sub-batches are scattered concurrently, and the
      per-item results are stitched back in the original order.
      [status]/[health] items are answered by the router itself
      (aggregated).
    - {b aggregation}: top-level [status]/[health] fan out to every shard
      and roll up (sums for counters, worst-of for health, [shards = K]);
      [uptime_s]/[requests_total]/[respawns]/[failovers] are the
      router's own.

    {2 Self-healing}

    The supervisor watches the fleet (waitpid + periodic health probes)
    and respawns dead shards with decorrelated-jitter backoff; its
    [Up]/[Down]/[Breaker_open] events drive a per-shard state the
    routing paths consult:

    - {b down / restarting}: requests for the shard {e park} (bounded by
      the failover budget) and are delivered to the respawned
      replacement — which warm-starts from the shard's snapshot
      directory — so a crash costs latency, not errors.  All traffic on
      the relay paths is idempotent, so re-delivery after a mid-flight
      death is safe; a scatter-gather sub-batch lost to an uncommanded
      crash instead degrades to per-item typed [unavailable] errors (the
      other shards' items are unaffected).
    - {b breaker open}: a shard crashing more than the storm budget
      allows stops being respawned for a cooldown; its requests fail
      fast with [unavailable] carrying [retry_after_ms].
    - {b rolling restart}: the [drain] op cycles the fleet one shard at
      a time — drain (finish in-flight, persist snapshots, exit),
      respawn, wait for up — with the cycling shard's traffic parked, so
      a fleet restart is client-invisible.  Serialized; a concurrent
      [drain] is refused.
    - {b lifecycle}: [shutdown] (or SIGINT/SIGTERM) stops accepting,
      drains connections, then stops the supervisor, which SIGTERMs the
      fleet (graceful shard drain) with SIGKILL escalation. *)

type opts = {
  socket : string;  (** public Unix socket; shards get [<socket>.shard<i>] *)
  tcp : (string * int) option;  (** optional public TCP endpoint *)
  shards : int;  (** worker processes (>= 1) *)
  shard : Server.opts;
      (** template for each shard: workers, queue limit, cache caps,
          breaker, memory high-water, snapshot root ([cache_dir] gets a
          per-shard subdirectory).  [socket]/[tcp]/hooks are overridden;
          shards always handle SIGTERM (the supervisor stops them with
          signals). *)
  supervise : Supervise.opts;  (** respawn/backoff/breaker/probe knobs *)
  failover_budget_s : float;
      (** how long a request parks waiting out a respawn before giving
          up with [unavailable] (default 8) *)
  handle_signals : bool;
  on_ready : (unit -> unit) option;
      (** called once every shard is up and the public sockets listen *)
  on_tcp_port : (int -> unit) option;  (** bound TCP port (port 0 ok) *)
}

val default_opts : opts
(** 2 shards over {!Server.default_opts}, {!Supervise.default_opts}, no
    TCP, signals handled. *)

val shard_of_key : shards:int -> string -> int
(** FNV-1a 64-bit hash of the key, reduced mod [shards].  Deterministic
    across restarts and processes (no randomized seed). *)

val route_key : Protocol.target -> string
(** The routing key of a target: {!Protocol.prep_key}, the key of the
    shard's prep cache — variant/engine/seed intentionally excluded so all
    sessions of one prepared workload share a shard. *)

val shard_socket : string -> int -> string
(** [shard_socket public i] is shard [i]'s private socket path. *)

val reap : ?grace_s:float -> int list -> unit
(** Escalating, non-blocking reap of child pids — alias of
    {!Supervise.reap}: poll, SIGTERM after [grace_s], SIGKILL after
    [2*grace_s], abandon rather than hang on an unkillable process. *)

type stats = { uptime_s : float; requests_total : int }

val run : opts -> stats
(** Serve until shutdown; blocks, like {!Server.run}.  Forks the
    supervisor {e before} creating any listener or thread, so it must be
    called from a quiescent process (the CLI does; beware domains).
    @raise Failure if the fleet fails to come up or an endpoint cannot
    be bound (the supervisor and already-started shards are torn down
    first). *)
