(** The [icost.rpc.v1] wire protocol.

    Newline-delimited JSON over a Unix domain socket or a TCP connection:
    each request is one JSON object on one line, each reply is one JSON
    object on one line.  Replies carry the request's [id] and are
    delivered {b in request order} when a client pipelines several
    requests on one connection.  The full wire
    format is specified in [doc/protocol.md]; this module is the only
    encoder/decoder on either side (server and client share it, so a
    round-trip through {!encode_request}/{!decode_request} is the
    identity by construction and the test suite checks it).

    Reproducibility: a request fully determines its answer.  The [target]
    carries every input of the analysis — workload, machine variant, cost
    engine, warm-up/measure window and the sampling [seed] (fed to the
    profiler's SplitMix64 {!Icost_util.Prng}) — so two clients issuing the
    same request receive bit-identical replies, equal to what the one-shot
    CLI produces for the same flags. *)

val version : string
(** ["icost.rpc.v1"] — sent in every message; the server rejects other
    values with [Bad_request] rather than guessing. *)

val max_request_bytes : int
(** Upper bound on one request line (65536).  Longer lines are answered
    with a typed [Bad_request] error and the connection is closed (the
    stream is no longer in sync). *)

val max_batch_items : int
(** Upper bound on the number of sub-queries in one [Batch] frame (256);
    larger batches are rejected whole as [Bad_request]. *)

val max_sweep_axes : int
(** Upper bound on the number of parameter axes in one [Sweep] frame (8);
    each axis is further capped at {!Icost_sensitivity.Param.max_points_per_axis}
    grid points by the spec parser. *)

(** What to analyze.  Defaults (applied by {!decode_request} for missing
    fields) mirror the CLI: variant [base], engine [graph], the standard
    warm-up/measure window, the profiler's default seed. *)
type target = {
  workload : string;  (** required; a {!Icost_workloads.Workload} name *)
  variant : string;  (** base | dl1 | wakeup | bmisp *)
  engine : string;
      (** graph | multisim | profiler | stream (segmented bounded-memory
          re-analysis; answers are bit-identical to [graph] on the same
          window) *)
  warmup : int;
  measure : int;
  seed : int;  (** profiler sampling seed (see module doc) *)
}

val default_target : target
(** [workload] is [""] (no default — requests without one are rejected). *)

val prep_key : target -> string
(** [workload|w<warmup>|m<measure>]: what a preparation depends on.  The
    server keys its prep cache by it and the router places shards by it,
    so every variant and engine of one prepared workload share a shard and
    that shard's prep cache. *)

type op =
  | Breakdown of { target : target; focus : string }
      (** Table 4-style breakdown; [focus] selects the interaction rows. *)
  | Icost of { target : target; sets : string list }
      (** Cost + interaction cost of each category set, e.g. ["dl1,win"]. *)
  | Graph_stats of { target : target }
      (** Dependence-graph shape (always uses the graph engine). *)
  | Sweep of { target : target; params : string list }
      (** Parametric sensitivity sweep ({!Icost_sensitivity.Sweep}): each
          element of [params] is one axis grid spec
          (["window=16..256:16"], see {!Icost_sensitivity.Param.parse_axis}).
          The target's engine selects how points are priced (graph
          critical path or re-simulated cycles; the profiler is
          rejected); points are evaluated against the target's prepared
          workload and cached per config digest.  A point whose
          evaluation fails yields a typed per-point error, mirroring
          batch items.  At most {!max_sweep_axes} axes. *)
  | Batch of { ops : op list }
      (** N sub-queries in one frame: one decode, one queue slot, one
          reply ([R_batch]) with per-item results in request order.  A
          semantically bad item (unknown workload, nested batch, ...)
          yields a per-item typed error without poisoning its siblings;
          at most {!max_batch_items} items. *)
  | Status  (** server statistics: uptime, queue, cache, jobs *)
  | Health
      (** cheap liveness/degradation probe, answered inline even under
          full load: ok | degraded | draining, open breakers, shed count *)
  | Drain
      (** rolling restart.  A standalone server (or a shard) acks with
          [R_drain], finishes in-flight work, persists its snapshots and
          exits — the supervisor respawns it.  A router restarts its
          shard fleet one shard at a time, parking traffic bound for the
          shard being cycled, and answers [R_drain] with the number of
          shards restarted once the whole fleet has been cycled with zero
          failed requests.  Not idempotent (a retry restarts the fleet
          again), so the client never auto-retries it. *)
  | Shutdown  (** graceful drain-then-exit *)

type request = { req_id : int; deadline_ms : int option; op : op }

type breakdown_row = { row_label : string; row_percent : float; row_cycles : float }

type icost_row = {
  set_name : string;
  set_cost : float;
  set_icost : float;
  set_class : string;  (** independent | parallel | serial *)
}

(** Every count in a [status] or [health] body is a telemetry registry
    counter, counted since the server or router started, metrics sink
    enabled or not; the other fields are current state. *)
type status_body = {
  uptime_s : float;
  requests_total : int;
  inflight : int;
  queue_depth : int;
  sessions : int;  (** entries in the session cache *)
  cache_hits : int;
      (** summed over the prep/session/sweep caches (the frame memo is
          excluded — its hits re-serve bytes, not analysis state) *)
  cache_misses : int;
  cache_evictions : int;
  snapshot_hits : int;  (** persistent graph-snapshot store; all 0 without --cache-dir *)
  snapshot_misses : int;
  snapshot_rejects : int;
  sweep_points : int;  (** sweep grid points attempted since start *)
  sweep_cache_hits : int;  (** of which the sweep-point cache already held *)
  segments : int;
      (** streaming segments analyzed since start (stream-engine
          preparations); 0 when the stream engine was never used *)
  stream_peak_mb : float;
      (** largest peak heap observed by any stream-engine preparation,
          in MB; 0 when the stream engine was never used *)
  pool_jobs : int;
  shards : int;
      (** worker shards behind this endpoint: 0 for a standalone server,
          K for a router aggregating K shard processes *)
  respawns : int;
      (** shard processes respawned by the supervisor since start (death
          detected by waitpid/probe, or cycled by a [Drain]); 0 for a
          standalone server *)
  failovers : int;
      (** relayed frames that hit a dead or restarting shard and were
          transparently re-delivered after its respawn; 0 standalone *)
  health : string;  (** ok | degraded | draining (see [doc/protocol.md]) *)
  draining : bool;
}

type health_body = {
  h_health : string;  (** ok | degraded | draining *)
  h_breakers_open : int;  (** session keys currently tripped open *)
  h_shed : int;  (** cache entries shed under pressure since start *)
}

type error_code =
  | Bad_request  (** malformed/oversized/unknown-name request *)
  | Overloaded  (** accept queue full — retry later (backpressure) *)
  | Unavailable
      (** the target's circuit breaker is open after repeated failures,
          or a shard is unreachable; fail-fast — retry after cooldown *)
  | Deadline_exceeded  (** the request's [deadline_ms] elapsed *)
  | Shutting_down  (** server is draining; no new work accepted *)
  | Internal  (** analysis raised; message carries the exception text *)

(** One grid point of a sweep curve, in ascending [sp_value] order within
    its curve: [Ok (cycles, delta)] where [delta] is the first difference
    d(cycles)/d(param) against the previous evaluated point (0 for the
    lowest point), or a typed per-point error that does not poison the
    rest of the sweep (the batch-item error model). *)
type sweep_point = {
  sp_value : int;
  sp_outcome : (float * float, error_code * string) result;
}

type sweep_knee = {
  kn_value : int;  (** the saturation knee on this axis *)
  kn_marginal : float;  (** cycles saved per unit over the step reaching it *)
  kn_saturated : bool;
      (** false when the curve was still paying off at the grid edge *)
}

type sweep_curve = {
  curve_param : string;  (** axis name, e.g. ["window"] *)
  curve_base : int;  (** the session config's own value on this axis *)
  curve_knee : sweep_knee option;  (** absent with fewer than two points *)
  curve_points : sweep_point list;
}

type result_body =
  | R_breakdown of { baseline : float; rows : breakdown_row list }
  | R_icost of { baseline : float; rows : icost_row list }
  | R_graph_stats of { instrs : int; nodes : int; edges : int; critical_path : int }
  | R_sweep of { baseline : float; curves : sweep_curve list }
      (** [baseline] is the unperturbed session config's cycles — always
          bit-identical to the same target's [R_breakdown.baseline] *)
  | R_batch of { results : (result_body, error_code * string) result list }
      (** per-item outcomes, positionally matching the batch's [ops] *)
  | R_status of status_body
  | R_health of health_body
  | R_drain of { restarted : int }
      (** shards cycled by a router's rolling restart; 0 from a
          standalone server or shard (it acks, then exits itself) *)
  | R_shutdown

val error_code_name : error_code -> string
val error_code_of_name : string -> error_code option

val idempotent : op -> bool
(** Whether re-sending the operation can change server state beyond its
    caches: true for every op except [Shutdown] (and a [Batch] containing
    one).  The client's retry machinery refuses to retry non-idempotent
    ops. *)

val retryable : error_code -> bool
(** Whether an error is worth retrying unchanged after a backoff:
    [Overloaded], [Unavailable] and [Internal] (transient by design —
    supervision evicts the failed session, so a retry rebuilds).
    [Bad_request], [Deadline_exceeded] and [Shutting_down] would fail
    identically again. *)

type reply = { rep_id : int; body : (result_body, error_code * string) result }

(** {2 Retry hints}

    A fail-fast [Unavailable] produced by shard supervision (the
    restart-storm breaker) tells the client how long the condition is
    expected to last.  On the wire the hint is a structured
    ["retry_after_ms"] integer next to [code]/[msg] (decoders that
    predate it ignore unknown fields); in the OCaml [(code, msg)] error
    it is embedded in the message text, where {!retry_after_of_msg}
    recovers it and the client's backoff uses it as a sleep floor. *)

val retry_after_clause : int -> string
(** ["retry_after_ms=N"] — splice into an error message. *)

val retry_after_of_msg : string -> int option
(** Recover the first ["retry_after_ms=N"] clause of a message. *)

val encode_error_reply :
  rep_id:int -> error_code -> string -> retry_after_ms:int -> string
(** A full error reply line whose error object carries the structured
    ["retry_after_ms"] field.  {!decode_reply} still yields the plain
    [(code, msg)] pair — embed the clause in [msg] too when the OCaml
    client must see it. *)

val encode_request : request -> string
(** One line, no trailing newline. *)

val decode_request : string -> (request, string) result
(** [Error msg] for anything that is not a well-formed v1 request; the
    server turns it into a [Bad_request] reply. *)

val encode_reply : reply -> string
val decode_reply : string -> (reply, string) result

(** {2 Pre-encoded reply assembly}

    The server's frame memo stores result objects in already-encoded
    form; these helpers build reply lines around such fragments.  Their
    output is byte-identical to {!encode_reply} on the equivalent tree,
    so cached and freshly computed replies cannot be told apart on the
    wire. *)

val encode_result : result_body -> string
(** The bare result object of a successful reply. *)

val encode_ok_reply : rep_id:int -> result:string -> string
(** Wrap an [encode_result] fragment in a success envelope. *)

val encode_batch_result :
  results:(string, error_code * string) result list -> string
(** The bare batch result object assembled from per-item fragments
    ([Ok] carries an [encode_result] string) in request order. *)

val encode_batch_reply :
  rep_id:int ->
  results:(string, error_code * string) result list ->
  string
(** [encode_batch_result] wrapped in a success envelope. *)

val has_substring : string -> string -> bool
(** [has_substring line needle]: whether [needle] occurs in [line].  An
    allocation-free scan, for classifying raw frames (control ops, error
    codes) without decoding them. *)

val split_frame_id : string -> (int * int) option
(** [Some (id, pos)] when the line starts with the canonical
    [{"v":"icost.rpc.v1","id":] prefix followed by the request id whose
    digits end at [pos]; [None] for any other field order.  The suffix
    from [pos] identifies the frame up to its id — the memo key used by
    the router's route cache and the server's frame cache (see
    [doc/protocol.md]). *)
