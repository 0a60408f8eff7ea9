(* Resident analysis daemon.  See server.mli for the architecture. *)

module Telemetry = Icost_util.Telemetry
module Pool = Icost_util.Pool
module Fault = Icost_util.Fault
module Config = Icost_uarch.Config
module Category = Icost_core.Category
module Cost = Icost_core.Cost
module Breakdown = Icost_core.Breakdown
module Trace = Icost_isa.Trace
module Build = Icost_depgraph.Build
module Graph = Icost_depgraph.Graph
module Sampler = Icost_profiler.Sampler
module Workload = Icost_workloads.Workload
module Stream_core = Icost_stream.Core
module Runner = Icost_experiments.Runner
module Texport = Icost_report.Telemetry_export
module Sparam = Icost_sensitivity.Param
module Sweep = Icost_sensitivity.Sweep
module P = Protocol

type opts = {
  socket : string;
  tcp : (string * int) option;
  workers : int;
  queue_limit : int;
  cache_cap : int;
  breaker_threshold : int;
  breaker_cooldown : float;
  mem_high_mb : int;
  cache_dir : string option;
  handle_signals : bool;
  on_ready : (unit -> unit) option;
  on_tcp_port : (int -> unit) option;
}

let default_opts =
  {
    socket = "icostd.sock";
    tcp = None;
    workers = 4;
    queue_limit = 64;
    cache_cap = 8;
    breaker_threshold = 3;
    breaker_cooldown = 5.;
    mem_high_mb = 4096;
    cache_dir = None;
    handle_signals = true;
    on_ready = None;
    on_tcp_port = None;
  }

type stats = { uptime_s : float; requests_total : int }

(* a request failed validation before any analysis ran *)
exception Bad of string

(* a request's deadline elapsed (checked between oracle evaluations) *)
exception Deadline

(* A session keeps the full establishment record (not just the oracle):
   the memo handle and session key are what [Snapshot.persist] needs to
   re-save a grown memo table after each successful analysis. *)
type session = {
  est : Snapshot.established;
  skey : string;
  gstats : P.result_body option Atomic.t;
      (* memoized graph-stats reply: the stats are a pure function of the
         established session, and recomputing them walks the whole graph
         (critical_length is a full topological pass), so warm queries
         would otherwise pay a per-item cost proportional to the trace *)
}

type t = {
  opts : opts;
  started : float;
  base : (string * int) list;
      (* the telemetry counters at [started]: status, health and the run
         stats report growth since then (see [Telemetry.since]) *)
  sched : Scheduler.t;
  prep_cache : Runner.prepared Cache.t;
  session_cache : session Cache.t;
  sweep_cache : float Cache.t;
      (* priced sweep grid points keyed by prep key + config digest of
         the perturbed point + engine (see [sweep_point_key]): the unit
         of reuse is one (workload window, config point) evaluation, so
         two sweeps over overlapping grids — or one sweep re-issued with
         a wider range — only pay for the new points.  No session memo
         holds these: every point is a perturbed config.  Values are bare
         cycle counts, so the cap can be generous. *)
  frame_cache : string Cache.t;
      (* encoded result fragments of whole frames, keyed by the frame
         text minus its request id ({!P.split_frame_id}): every analysis
         op is a pure function of its target, so a repeated frame is
         answered from the wire bytes of the first, skipping decoding,
         analysis and reply assembly.  Populated only by frames whose
         every item is an analysis op that succeeded; bypassed while
         faults are armed or the server is draining, and purged whenever
         supervision charges a failure, so breaker/fault semantics are
         identical to the uncached path. *)
  shutdown_requested : bool Atomic.t;
  breaker : Breaker.t;
  degraded_until : float Atomic.t;  (* monotonic-ish; 0. means healthy *)
  acc : Acceptor.t;  (* accept loop + connection bookkeeping + ordered writes *)
}

let c_requests = Telemetry.counter "service.requests"
let c_ok = Telemetry.counter "service.replies_ok"
let c_err = Telemetry.counter "service.replies_error"
let c_shed = Telemetry.counter "service.shed"

let c_sweep_points = Telemetry.counter "sweep.points"
let c_sweep_hits = Telemetry.counter "sweep.cache_hits"

(* counted where the work happens; interned here by name for [status] *)
let c_snap_hits = Telemetry.counter "graph.snapshot_hits"
let c_snap_misses = Telemetry.counter "graph.snapshot_misses"
let c_snap_rejects = Telemetry.counter "graph.snapshot_rejects"
let c_segments = Telemetry.counter "stream.segments"

(* injection points threaded through every seam of the request path; each
   is a no-op single branch unless armed via ICOST_FAULTS / --faults (the
   transport points — accept_reset, conn_reset, write_short — live in
   Acceptor, shared with the shard router) *)
let fp_decode = Fault.point "decode_fail"
let fp_worker = Fault.point "worker_raise"
let fp_deadline = Fault.point "deadline_expire"

let fp_shard_exit = Fault.point "shard_exit"
(* simulates kill -9 mid-request: the process vanishes without draining,
   flushing or unlinking its socket — the supervisor's job is to make
   this invisible to clients.  Only analysis traffic advances the hit
   count: the supervisor's own health probes (and other control frames)
   must not perturb a deterministic @K schedule. *)

let control_frame line =
  P.has_substring line "\"op\":\"health\""
  || P.has_substring line "\"op\":\"status\""
  || P.has_substring line "\"op\":\"drain\""
  || P.has_substring line "\"op\":\"shutdown\""

(* ---------- request validation ---------- *)

let config_of_variant = function
  | "base" -> Config.default
  | "dl1" -> Config.loop_dl1
  | "wakeup" -> Config.loop_wakeup
  | "bmisp" -> Config.loop_bmisp
  | other -> raise (Bad (Printf.sprintf "unknown variant %S" other))

let kind_of_engine = function
  | "graph" | "fullgraph" -> Runner.Fullgraph
  | "multisim" -> Runner.Multisim
  | "profiler" -> Runner.Profiler
  | "stream" -> Runner.Streamed
  | other -> raise (Bad (Printf.sprintf "unknown engine %S" other))

let workload_of_name name =
  match Workload.find name with
  | Some w -> w
  | None -> raise (Bad (Printf.sprintf "unknown workload %S" name))

let category_of_name name =
  match Category.of_name name with
  | Some c -> c
  | None -> raise (Bad (Printf.sprintf "unknown category %S" name))

let set_of_spec spec =
  String.split_on_char ',' spec
  |> List.map (fun n -> category_of_name (String.trim n))
  |> Category.Set.of_list

(* ---------- session construction (the cached preparation path) ---------- *)

(* The four variant constants cover every non-sweep request, so their
   digests are precomputed once — the digest sits on the per-item hot
   path twice (breaker key + session lookup).  Anything else (sweep
   points carry fresh perturbed configs) falls through to a real
   marshalled digest: the digest covers every field of the record, so
   any swept parameter separates the keys, and unknown configs must not
   be memoized by physical identity or a long sweep would grow the memo
   without bound. *)
let cfg_digest =
  let known =
    List.map
      (fun c -> (c, Texport.digest c))
      [ Config.default; Config.loop_dl1; Config.loop_wakeup; Config.loop_bmisp ]
  in
  fun cfg ->
    match List.assq_opt cfg known with
    | Some d -> d
    | None -> Texport.digest cfg

(* One priced grid point of a sweep: workload window + the digest of the
   whole perturbed config + pricing engine.  Deliberately *not* derived
   from the variant name — two sweep points must never alias each other
   (or a prep entry) even when every human-visible field matches, so the
   digest does the separating. *)
let sweep_point_key (tg : P.target) cfg ~engine =
  Printf.sprintf "%s|%s|%s" (P.prep_key tg) (cfg_digest cfg) engine

(* Cache keys nest: prep ({!P.prep_key}) ⊂ session, so a session hit
   implies agreement on everything its preparation depends on.  The seed
   only reaches the profiler's sampling PRNG, so non-profiler sessions
   normalize it away rather than splitting the cache. *)
let session_key (tg : P.target) cfg kind =
  let seed = match kind with Runner.Profiler -> tg.seed | _ -> 0 in
  Printf.sprintf "%s|%s|%s|s%d" (P.prep_key tg) (cfg_digest cfg)
    (Runner.oracle_kind_name kind) seed

let prepared_of t (tg : P.target) =
  let w = workload_of_name tg.workload in
  let settings =
    { Runner.warmup = tg.warmup; measure = tg.measure; benches = [ tg.workload ] }
  in
  Cache.find_or_add t.prep_cache (P.prep_key tg) (fun () ->
      Runner.prepare settings w)

(* One establishment path with or without a snapshot store: preparation
   is deferred into [establish], so a disk hit skips it entirely and then
   seeds the prep cache, letting later requests on other variants and
   engines share the loaded execution. *)
let session_of t (tg : P.target) : session =
  let cfg = config_of_variant tg.variant in
  let kind = kind_of_engine tg.engine in
  let skey = session_key tg cfg kind in
  Cache.find_or_add t.session_cache skey (fun () ->
      let est =
        Snapshot.establish ?cache_dir:t.opts.cache_dir ~key:skey ~kind ~cfg
          ~seed:tg.seed
          ~prepare:(fun () -> prepared_of t tg)
          ()
      in
      if est.Snapshot.est_disk = `Hit then
        Cache.add t.prep_cache (P.prep_key tg) est.Snapshot.est_prepared;
      { est; skey; gstats = Atomic.make None })

(* Re-save the session's snapshot when an analysis grew its memo table,
   so the next cold start replays those subsets from disk. *)
let maybe_persist t (session : session) =
  Option.iter
    (fun dir -> Snapshot.persist ~dir ~key:session.skey session.est)
    t.opts.cache_dir

(* ---------- analysis ---------- *)

let check_deadline = function
  | None -> ()
  | Some t -> if Fault.fire fp_deadline || Unix.gettimeofday () > t then raise Deadline

(* The guard makes long queries cooperatively cancellable: Breakdown and
   icost evaluations are loops over subset queries, so the deadline is
   honored between (not within) individual oracle evaluations. *)
let guard deadline (oracle : Cost.oracle) : Cost.oracle =
  {
    Cost.point =
      (fun s ->
        check_deadline deadline;
        oracle.Cost.point s);
    batch =
      Option.map
        (fun b sets ->
          check_deadline deadline;
          b sets)
        oracle.Cost.batch;
  }

(* Render a sweep engine result into wire shape, mapping each failed
   point's exception to the same typed codes a failed batch item gets. *)
let sweep_body (res : Sweep.result) : P.result_body =
  let code_of = function
    | Deadline -> (P.Deadline_exceeded, "deadline elapsed")
    | Bad msg -> (P.Bad_request, msg)
    | Fault.Injected p ->
      (P.Internal, Printf.sprintf "injected fault at point %S" p)
    | Failure m | Invalid_argument m -> (P.Internal, m)
    | e -> (P.Internal, Printexc.to_string e)
  in
  let curve (cv : Sweep.curve) =
    {
      P.curve_param = cv.Sweep.cv_param.Sparam.p_name;
      curve_base = cv.Sweep.cv_base_value;
      curve_knee =
        Option.map
          (fun (k : Sweep.knee) ->
            {
              P.kn_value = k.Sweep.kn_value;
              kn_marginal = k.Sweep.kn_marginal;
              kn_saturated = k.Sweep.kn_saturated;
            })
          cv.Sweep.cv_knee;
      curve_points =
        List.map
          (fun (pt : Sweep.point) ->
            match pt.Sweep.pt_outcome with
            | Ok cycles ->
              let delta =
                Option.value ~default:0.
                  (List.assoc_opt pt.Sweep.pt_value cv.Sweep.cv_deltas)
              in
              { P.sp_value = pt.Sweep.pt_value; sp_outcome = Ok (cycles, delta) }
            | Error e ->
              { P.sp_value = pt.Sweep.pt_value; sp_outcome = Error (code_of e) })
          cv.Sweep.cv_points;
    }
  in
  P.R_sweep
    { baseline = res.Sweep.sw_baseline;
      curves = List.map curve res.Sweep.sw_curves }

let analyze t ~deadline (op : P.op) : P.result_body =
  match op with
  | P.Breakdown { target; focus } ->
    let focus_cat = category_of_name focus in
    let session = session_of t target in
    check_deadline deadline;
    let bd =
      Breakdown.focus
        ~oracle:(guard deadline session.est.Snapshot.est_oracle)
        ~focus_cat
    in
    maybe_persist t session;
    P.R_breakdown
      {
        baseline = bd.baseline_cycles;
        rows =
          List.map
            (fun (r : Breakdown.row) ->
              {
                P.row_label = Breakdown.row_label r;
                row_percent = r.percent;
                row_cycles = r.cycles;
              })
            bd.rows;
      }
  | P.Icost { target; sets } ->
    let specs = List.map set_of_spec sets in
    let session = session_of t target in
    check_deadline deadline;
    let o = guard deadline session.est.Snapshot.est_oracle in
    let base = Cost.query o Category.Set.empty in
    let rows =
      List.map
        (fun set ->
          {
            P.set_name = Category.Set.name set;
            set_cost = Cost.cost o set;
            set_icost = Cost.icost_ie o set;
            set_class =
              Cost.interaction_name (Cost.classify (Cost.icost_ie o set));
          })
        specs
    in
    maybe_persist t session;
    P.R_icost { baseline = base; rows }
  | P.Graph_stats { target } ->
    let target = { target with P.engine = "graph" } in
    let session = session_of t target in
    check_deadline deadline;
    (match Atomic.get session.gstats with
     | Some body -> body
     | None ->
       (match session.est.Snapshot.est_graph () with
        | Some g ->
          let body =
            P.R_graph_stats
              {
                instrs = Trace.length session.est.Snapshot.est_prepared.trace;
                nodes = Graph.num_nodes g;
                edges = Graph.num_edges g;
                critical_path = Graph.critical_length g;
              }
          in
          (* racing threads compute the same deterministic value, so the
             last write winning is harmless *)
          Atomic.set session.gstats (Some body);
          body
        | None -> raise (Bad "graph engine produced no graph")))
  | P.Sweep { target; params } ->
    (* Per-point evaluation reuses the target's prepared execution (the
       prep cache) and goes through the digest-keyed sweep-point cache;
       the deadline is honored between points (an expired point answers
       deadline_exceeded individually, like a batch item after expiry).
       The baseline point failing is fatal and propagates — the curves
       are meaningless without their reference. *)
    let cfg = config_of_variant target.variant in
    let engine =
      match Sweep.engine_of_string target.engine with
      | Ok e -> e
      | Error m -> raise (Bad m)
    in
    let axes =
      match Sparam.parse_axes params with
      | Ok a -> a
      | Error m -> raise (Bad m)
    in
    if List.length axes > P.max_sweep_axes then
      raise
        (Bad
           (Printf.sprintf "sweep exceeds %d axes (%d)" P.max_sweep_axes
              (List.length axes)));
    let prepared = prepared_of t target in
    check_deadline deadline;
    let ename = Sweep.engine_name engine in
    let point_cache cfg_pt build =
      let fresh = ref false in
      let v =
        Cache.find_or_add t.sweep_cache
          (sweep_point_key target cfg_pt ~engine:ename)
          (fun () ->
            fresh := true;
            check_deadline deadline;
            build ())
      in
      (v, not !fresh)
    in
    let res = Sweep.run ~point_cache ~engine ~cfg ~prepared ~axes () in
    Telemetry.add c_sweep_points res.Sweep.sw_points;
    Telemetry.add c_sweep_hits res.Sweep.sw_cache_hits;
    sweep_body res
  | P.Batch _ | P.Status | P.Health | P.Drain | P.Shutdown ->
    assert false (* batch items are dispatched individually; the rest are
                    handled inline, never queued *)

(* ---------- health & graceful degradation ---------- *)

let health_of t =
  if Atomic.get t.shutdown_requested then "draining"
  else if Unix.gettimeofday () < Atomic.get t.degraded_until then "degraded"
  else "ok"

(* High-water checks run on the connection thread before each analysis is
   queued.  Tripping either (queue nearly full, or the OCaml heap past the
   configured budget) sheds the coldest session and prep entries — the
   expensive state — and holds [health] at "degraded" for a short window so
   clients polling [health] see the pressure even after it clears. *)
let check_pressure t =
  let queue_high = max 1 (3 * t.opts.queue_limit / 4) in
  let heap_mb =
    (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) / (1024 * 1024)
  in
  if Scheduler.queue_depth t.sched >= queue_high || heap_mb >= t.opts.mem_high_mb
  then begin
    Atomic.set t.degraded_until (Unix.gettimeofday () +. 2.0);
    let keep = t.opts.cache_cap / 2 in
    Telemetry.add c_shed
      (Cache.trim t.session_cache ~keep
      + Cache.trim t.prep_cache ~keep
      + Cache.trim t.frame_cache ~keep:(16 * t.opts.cache_cap)
      + Cache.trim t.sweep_cache ~keep:(32 * t.opts.cache_cap))
  end

(* The circuit-breaker key is the session cache key: failures are tracked
   per analysis target.  Validation errors surface from inside the job (as
   Bad_request) rather than here, so an unknown name yields [None]. *)
let breaker_key_of (op : P.op) : string option =
  let of_target (tg : P.target) =
    match
      (config_of_variant tg.variant, kind_of_engine tg.engine)
    with
    | cfg, kind -> Some (session_key tg cfg kind)
    | exception Bad _ -> None
  in
  match op with
  | P.Breakdown { target; _ } | P.Icost { target; _ } | P.Sweep { target; _ } ->
    of_target target
  | P.Graph_stats { target } -> of_target { target with P.engine = "graph" }
  | P.Batch _ | P.Status | P.Health | P.Drain | P.Shutdown -> None

let status_body t : P.status_body =
  let since = Telemetry.since t.base in
  let sum_caches f =
    f (Cache.stats ~since:t.base t.prep_cache)
    + f (Cache.stats ~since:t.base t.session_cache)
    + f (Cache.stats ~since:t.base t.sweep_cache)
  in
  {
    P.uptime_s = Unix.gettimeofday () -. t.started;
    requests_total = since c_requests;
    inflight = Scheduler.inflight t.sched;
    queue_depth = Scheduler.queue_depth t.sched;
    sessions = Cache.length t.session_cache;
    cache_hits = sum_caches (fun (s : Cache.stats) -> s.hits);
    cache_misses = sum_caches (fun (s : Cache.stats) -> s.misses);
    cache_evictions = sum_caches (fun (s : Cache.stats) -> s.evictions);
    snapshot_hits = since c_snap_hits;
    snapshot_misses = since c_snap_misses;
    snapshot_rejects = since c_snap_rejects;
    sweep_points = since c_sweep_points;
    sweep_cache_hits = since c_sweep_hits;
    segments = since c_segments;
    stream_peak_mb = Stream_core.peak_mb_hwm ();
    pool_jobs = Pool.jobs ();
    shards = 0;
    respawns = 0;
    failovers = 0;
    health = health_of t;
    draining = Atomic.get t.shutdown_requested;
  }

let health_body t : P.health_body =
  {
    P.h_health = health_of t;
    h_breakers_open = Breaker.open_count t.breaker;
    h_shed = Telemetry.since t.base c_shed;
  }

(* ---------- wire I/O ---------- *)

(* Replies go through the acceptor's sequence-ordered writer: the reader
   assigns each request line a sequence slot, and a reply — whether
   written inline or by a worker thread finishing out of order — reaches
   the wire only after every earlier slot, giving pipelined clients
   replies in request order. *)
let write_reply (c : Acceptor.conn) ~seq (reply : P.reply) =
  Acceptor.write_line c ~seq (P.encode_reply reply ^ "\n");
  match reply.P.body with
  | Ok _ -> Telemetry.incr c_ok
  | Error _ -> Telemetry.incr c_err

(* success reply assembled from a pre-encoded result fragment *)
let write_ok_line (c : Acceptor.conn) ~seq (line : string) =
  Acceptor.write_line c ~seq (line ^ "\n");
  Telemetry.incr c_ok

let error_reply id code msg = { P.rep_id = id; body = Error (code, msg) }

(* ---------- request dispatch ---------- *)

let initiate_shutdown t =
  if not (Atomic.exchange t.shutdown_requested true) then
    Acceptor.request_stop t.acc

let exn_message = function
  | Failure m -> m
  | Invalid_argument m -> m
  | Fault.Injected p -> Printf.sprintf "injected fault at point %S" p
  | e -> Printexc.to_string e

(* A sweep with a failed grid point is a valid success reply, yet it must
   stay out of the frame memo: point failures are transient by design
   (injected faults, mid-sweep deadlines), so re-asking must re-evaluate. *)
let memoizable = function
  | P.R_sweep { curves; _ } ->
    List.for_all
      (fun cv ->
        List.for_all (fun pt -> Result.is_ok pt.P.sp_outcome) cv.P.curve_points)
      curves
  | _ -> true

(* Run one analysis op under full supervision (breaker check, worker
   fault point, session eviction + breaker charge on raise) and return a
   typed outcome as an already-encoded result object.  Shared by the
   single-op job and each batch item, so a batch exercises exactly the
   same failure machinery per item.

   The second component of the return value says whether the result may
   be memoized one level up (the frame cache): true everywhere except a
   sweep that carries per-point errors, whose failures are transient and
   must stay re-executable. *)
let exec_op t ~deadline (op : P.op) :
    (string, P.error_code * string) result * bool =
  match op with
  | P.Status -> (Ok (P.encode_result (P.R_status (status_body t))), true)
  | P.Health -> (Ok (P.encode_result (P.R_health (health_body t))), true)
  | P.Shutdown ->
    (Error (P.Bad_request, "shutdown is not allowed inside a batch"), true)
  | P.Drain ->
    (Error (P.Bad_request, "drain is not allowed inside a batch"), true)
  | P.Batch _ -> (Error (P.Bad_request, "batch items cannot nest"), true)
  | (P.Breakdown _ | P.Icost _ | P.Graph_stats _ | P.Sweep _) as op ->
    let skey = breaker_key_of op in
    let breaker_open =
      match skey with
      | Some k -> Breaker.check t.breaker k = `Open
      | None -> false
    in
    if breaker_open then
      ( Error
          ( P.Unavailable,
            "circuit breaker open for this target; retry after cooldown" ),
        true )
    else begin
      match
        check_deadline deadline;
        Fault.trip fp_worker;
        analyze t ~deadline op
      with
      | body ->
        Option.iter (fun k -> Breaker.success t.breaker k) skey;
        (Ok (P.encode_result body), memoizable body)
      | exception Bad msg -> (Error (P.Bad_request, msg), true)
      | exception Deadline ->
        (Error (P.Deadline_exceeded, "deadline elapsed"), true)
      | exception e ->
        (* supervision: the raise must not poison later requests — evict
           the session so a retry rebuilds it, and charge the failure to
           this target's breaker *)
        Option.iter
          (fun k ->
            ignore (Cache.remove t.session_cache k);
            Breaker.failure t.breaker k)
          skey;
        (* a charged failure may have tripped this target's breaker:
           drop every memoized frame so no frame naming the target can
           dodge the breaker's fail-fast answer.  (Frames cannot be
           purged per-target — the key is opaque text — and failures
           are rare enough that a full drop is cheap.) *)
        ignore (Cache.trim t.frame_cache ~keep:0);
        (Error (P.Internal, exn_message e), true)
    end

let span_attrs (op : P.op) =
  match op with
  | P.Breakdown { target; _ } | P.Icost { target; _ } | P.Graph_stats { target }
  | P.Sweep { target; _ } ->
    [
      ("op", (match op with
              | P.Breakdown _ -> "breakdown"
              | P.Icost _ -> "icost"
              | P.Sweep _ -> "sweep"
              | _ -> "graph-stats"));
      ("workload", target.P.workload);
      ("engine", target.P.engine);
    ]
  | P.Batch { ops } ->
    [ ("op", "batch"); ("items", string_of_int (List.length ops)) ]
  | P.Status | P.Health | P.Drain | P.Shutdown -> []

(* The request id and frame-memo key (the frame text after the id), or
   [None] when the frame is not in canonical form or the memo must step
   aside (armed faults change per-item outcomes; a draining server must
   answer [Shutting_down]). *)
let frame_key t (line : string) : (int * string) option =
  match P.split_frame_id line with
  | Some (id, pos)
    when not (Fault.enabled () || Atomic.get t.shutdown_requested) ->
    Some (id, String.sub line pos (String.length line - pos))
  | _ -> None

let handle_decoded t (c : Acceptor.conn) ~seq ~fkey (line : string) =
  let decoded =
    if Fault.fire fp_decode then Error "injected decode fault"
    else P.decode_request line
  in
  match decoded with
  | Error msg -> write_reply c ~seq (error_reply 0 P.Bad_request msg)
  | Ok req ->
    let id = req.P.req_id in
    (match req.P.op with
     | P.Status ->
       write_reply c ~seq { P.rep_id = id; body = Ok (P.R_status (status_body t)) }
     | P.Health ->
       write_reply c ~seq { P.rep_id = id; body = Ok (P.R_health (health_body t)) }
     | P.Shutdown ->
       write_reply c ~seq { P.rep_id = id; body = Ok P.R_shutdown };
       initiate_shutdown t
     | P.Drain ->
       (* drain-for-restart: finish in-flight work and exit.  Snapshots
          are already on disk (persisted after every analysis), so the
          ack can go out before the shutdown sequence starts.  A
          standalone server restarts nothing itself — [restarted] counts
          shards, and only the router has those. *)
       write_reply c ~seq { P.rep_id = id; body = Ok (P.R_drain { restarted = 0 }) };
       initiate_shutdown t
     | (P.Breakdown _ | P.Icost _ | P.Graph_stats _ | P.Sweep _ | P.Batch _) as
       op ->
       check_pressure t;
       let deadline =
         Option.map
           (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1e3))
           req.P.deadline_ms
       in
       (* One scheduler slot per frame — a batch amortizes queueing the
          way it amortizes decoding.  The shared deadline is checked
          between items, so items after expiry answer deadline_exceeded
          individually instead of losing the whole frame. *)
       (* Memoize the whole frame's result fragment when every item is a
          pure analysis query that succeeded (status/health are
          time-varying; failures must stay re-executable).  The armed-
          faults/draining bypass happened before [fkey] was produced. *)
       let memo_frame frag =
         match fkey with
         | None -> ()
         | Some key -> Cache.add t.frame_cache key frag
       in
       let analysis_only ops =
         List.for_all
           (function
             | P.Breakdown _ | P.Icost _ | P.Graph_stats _ | P.Sweep _ -> true
             | _ -> false)
           ops
       in
       let job () =
         Telemetry.with_span "service.request" ~attrs:(span_attrs op)
         @@ fun () ->
         match op with
         | P.Batch { ops } ->
           let outcomes = List.map (fun o -> exec_op t ~deadline o) ops in
           let results = List.map fst outcomes in
           let frag = P.encode_batch_result ~results in
           if
             analysis_only ops
             && List.for_all Result.is_ok results
             && List.for_all snd outcomes
           then memo_frame frag;
           write_ok_line c ~seq (P.encode_ok_reply ~rep_id:id ~result:frag)
         | op ->
           (match exec_op t ~deadline op with
            | Ok result, memoizable ->
              if memoizable then memo_frame result;
              write_ok_line c ~seq (P.encode_ok_reply ~rep_id:id ~result)
            | Error (code, msg), _ ->
              write_reply c ~seq (error_reply id code msg))
       in
       (match Scheduler.submit t.sched job with
        | `Accepted -> ()
        | `Overloaded ->
          write_reply c ~seq
            (error_reply id P.Overloaded
               (Printf.sprintf "queue full (limit %d); retry later"
                  t.opts.queue_limit))
        | `Draining ->
          write_reply c ~seq
            (error_reply id P.Shutting_down "server is draining")))

let handle_line t (c : Acceptor.conn) ~seq (line : string) =
  if Fault.enabled () && (not (control_frame line)) && Fault.fire fp_shard_exit
  then Unix._exit 70;
  Telemetry.incr c_requests;
  match frame_key t line with
  | None -> handle_decoded t c ~seq ~fkey:None line
  | Some (id, key) -> (
    match Cache.find_opt t.frame_cache key with
    | Some frag ->
      write_ok_line c ~seq (P.encode_ok_reply ~rep_id:id ~result:frag)
    | None -> handle_decoded t c ~seq ~fkey:(Some key) line)

let conn_loop t (c : Acceptor.conn) =
  let rec loop () =
    match Acceptor.read_line_bounded c ~max:P.max_request_bytes with
    | `Eof -> ()
    | `Too_long ->
      (* the stream cannot be re-synchronized after an oversized request:
         answer with a typed error, then drop the connection *)
      write_reply c ~seq:(Acceptor.next_seq c)
        (error_reply 0 P.Bad_request
           (Printf.sprintf "request exceeds %d bytes" P.max_request_bytes))
    | `Line line ->
      if String.trim line <> "" then
        handle_line t c ~seq:(Acceptor.next_seq c) line;
      loop ()
  in
  loop ()

(* ---------- lifecycle ---------- *)

let run (opts : opts) : stats =
  (* a client that disconnects mid-reply must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* validate the endpoints before spawning any worker threads, so an
     "already served" / "cannot listen" failure leaks nothing *)
  let unix_listener = Endpoint.listen (Endpoint.Unix_path opts.socket) in
  let tcp_listener =
    match opts.tcp with
    | None -> None
    | Some (host, port) -> (
        match Endpoint.listen (Endpoint.Tcp (host, port)) with
        | l ->
          Option.iter
            (fun f -> Option.iter f (Endpoint.bound_port l))
            opts.on_tcp_port;
          Some l
        | exception e ->
          Endpoint.close_listener unix_listener;
          raise e)
  in
  let listeners =
    unix_listener :: (match tcp_listener with None -> [] | Some l -> [ l ])
  in
  let t =
    {
      opts;
      started = Unix.gettimeofday ();
      base = Telemetry.counters ();
      sched = Scheduler.create ~workers:opts.workers ~queue_limit:opts.queue_limit;
      prep_cache = Cache.create ~name:"prep" ~cap:opts.cache_cap;
      session_cache = Cache.create ~name:"session" ~cap:opts.cache_cap;
      (* encoded frames are ~1 KB each, so the cap can be far more
         generous than for sessions *)
      frame_cache = Cache.create ~name:"frames" ~cap:(32 * opts.cache_cap);
      (* bare floats: even a generous cap costs next to nothing *)
      sweep_cache = Cache.create ~name:"sweep" ~cap:(64 * opts.cache_cap);
      shutdown_requested = Atomic.make false;
      breaker =
        Breaker.create ~threshold:opts.breaker_threshold
          ~cooldown:opts.breaker_cooldown ();
      degraded_until = Atomic.make 0.;
      acc = Acceptor.create listeners;
    }
  in
  if opts.handle_signals then begin
    let h = Sys.Signal_handle (fun _ -> initiate_shutdown t) in
    (try Sys.set_signal Sys.sigint h with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm h with Invalid_argument _ -> ())
  end;
  Option.iter (fun f -> f ()) opts.on_ready;
  Acceptor.serve t.acc ~on_conn:(conn_loop t);
  (* --- graceful shutdown: listeners are closed; drain, then dismantle --- *)
  Scheduler.drain t.sched;
  Acceptor.finish t.acc;
  { uptime_s = Unix.gettimeofday () -. t.started;
    requests_total = Telemetry.since t.base c_requests }
