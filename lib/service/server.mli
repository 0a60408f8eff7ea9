(** The resident icost analysis daemon ([icost serve]).

    Listens on a Unix domain socket — and, with [opts.tcp], a TCP
    endpoint sharing the same accept loop and connection bookkeeping
    ({!Acceptor}) — and answers [icost.rpc.v1] requests ({!Protocol}).
    Pipelined requests on one connection are answered in request order
    (the acceptor's sequence-ordered writer), and a [batch] frame runs
    its items under per-item supervision in one scheduler slot.
    The expensive per-query work of the one-shot CLI —
    interpreting the workload, annotating events, running the baseline
    simulation, compiling the dependence graph, building a memoized cost
    oracle — is done once per session key and then served from four
    {!Cache}s:

    - {b prep}: (workload, warmup, measure) -> prepared execution
      (machine-variant independent, shared by every variant and engine);
    - {b session}: prep key + config digest + engine + seed -> the
      established {!Snapshot} session: memoized oracle (whose memo holds
      every subset it has priced) and, for the graph engine, the
      dependence graph.  Built through one path with or without a snapshot
      store; a disk hit seeds the prep cache with the loaded execution;
    - {b frames}: canonical frame text minus its id -> encoded result
      fragment of a frame whose items all succeeded, answered inline by
      the connection reader without decoding or queueing;
    - {b sweep}: prep key + perturbed-config digest + engine -> one
      priced sweep point (no session memo holds perturbed configs).

    Beyond LRU eviction and pressure shedding (below), only failures
    invalidate: a raising analysis evicts its session
    entry and drops every memoized frame (so a tripped breaker cannot be
    dodged by a cached frame); the frame memo also steps aside while
    faults are armed or the server drains, and a sweep with per-point
    errors is never memoized.

    Analysis requests flow through a bounded {!Scheduler}; a full queue
    is answered with an [overloaded] error (backpressure) and a draining
    server with [shutting_down].  Requests may carry a deadline, checked
    cooperatively between oracle evaluations ([deadline_exceeded]).
    [status], [health] and [shutdown] are answered inline by the
    connection reader so they work even when the compute queue is
    saturated.

    {b Supervision.}  An analysis that raises is converted to a typed
    [internal] error reply; the failed target's session-cache entry is
    evicted so a retry rebuilds it rather than inheriting poisoned state.
    Repeated failures on the same session key trip a per-key circuit
    {!Breaker}: further requests for that target fail fast with
    [unavailable] until the cooldown elapses (then one trial request is
    let through).

    {b Graceful degradation.}  Before queueing each analysis the server
    checks two high-water marks — queue depth at 3/4 of [queue_limit],
    and the OCaml heap against [mem_high_mb].  Tripping either sheds the
    coldest session and prep cache entries down to half of [cache_cap]
    and reports [health = "degraded"] for a short hold window.  Shed
    counts surface in [health] replies and the [service.shed] telemetry
    counter.

    {b Fault injection.}  Every seam of the request path — accept, read,
    write, decode, enqueue/dequeue, worker body, cache build, deadline
    check — is an {!Icost_util.Fault} injection point (see
    [doc/protocol.md] for the point list); all are single-branch no-ops
    unless armed via [ICOST_FAULTS] or [icost serve --faults].

    Shutdown (a [shutdown] request, SIGINT or SIGTERM) is graceful: stop
    accepting connections, complete every accepted request, flush replies,
    close connections, remove the socket file, return. *)

type opts = {
  socket : string;  (** Unix domain socket path *)
  tcp : (string * int) option;
      (** additional TCP listener (host, port); port [0] binds an
          ephemeral port, reported through [on_tcp_port] *)
  workers : int;  (** scheduler worker threads (see {!Scheduler}) *)
  queue_limit : int;  (** accepted-but-not-running bound *)
  cache_cap : int;  (** max entries per cache layer *)
  breaker_threshold : int;
      (** consecutive failures on one session key that trip its breaker *)
  breaker_cooldown : float;
      (** seconds an open breaker fails fast before a half-open trial *)
  mem_high_mb : int;
      (** heap high-water mark (MiB) that triggers cache shedding *)
  cache_dir : string option;
      (** persistent {!Snapshot} store directory; [None] disables disk
          warm starts (sessions are rebuilt from scratch after restart) *)
  handle_signals : bool;
      (** install SIGINT/SIGTERM handlers that trigger graceful shutdown
          (the CLI wants this; in-process tests do not) *)
  on_ready : (unit -> unit) option;
      (** called once the socket is listening, before the accept loop *)
  on_tcp_port : (int -> unit) option;
      (** called with the bound TCP port once listening (before
          [on_ready]); never called when [tcp] is [None] *)
}

val default_opts : opts
(** socket ["icostd.sock"], no TCP listener, 4 workers, queue limit 64,
    cache cap 8, breaker threshold 3 / cooldown 5s, memory high-water
    4096 MiB, no cache dir, signals handled, no ready hook. *)

val sweep_point_key :
  Protocol.target -> Icost_uarch.Config.t -> engine:string -> string
(** The sweep-point cache key for one priced grid point:
    [workload|warmup|measure|config-digest(point)|engine].  The digest
    marshals the whole config record, so two points differing in {e any}
    swept field get distinct keys (asserted by the test suite), and a
    sweep point can never alias a prep entry ({!Protocol.prep_key} has no
    digest segment). *)

val session_key :
  Protocol.target ->
  Icost_uarch.Config.t ->
  Icost_experiments.Runner.oracle_kind ->
  string
(** The session cache / snapshot store key for a target:
    [workload|warmup|measure|config-digest|engine|seed] (seed normalized
    to 0 for non-profiler engines).  Exposed so the one-shot CLI can
    address the same {!Snapshot} store as a running daemon. *)

type stats = { uptime_s : float; requests_total : int }
(** Returned by {!run} for the exit report and the telemetry manifest.
    [requests_total] is the [service.requests] counter's growth since
    [run] started, as every count in [status] and [health] is. *)

val run : opts -> stats
(** Serve until shutdown.  Blocks the calling thread; everything else
    (connection readers, scheduler workers) runs on threads spawned here
    and is joined before returning.
    @raise Failure if the socket path is already served by a live daemon
    (a stale socket file left by a crash is silently replaced), or the
    TCP endpoint cannot be bound. *)
