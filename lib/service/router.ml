(* Shard router process.  See router.mli for the architecture. *)

module Telemetry = Icost_util.Telemetry
module P = Protocol

type opts = {
  socket : string;
  tcp : (string * int) option;
  shards : int;
  shard : Server.opts;
  supervise : Supervise.opts;
  failover_budget_s : float;
  handle_signals : bool;
  on_ready : (unit -> unit) option;
  on_tcp_port : (int -> unit) option;
}

let default_opts =
  {
    socket = "icostd.sock";
    tcp = None;
    shards = 2;
    shard = Server.default_opts;
    supervise = Supervise.default_opts;
    failover_budget_s = 8.;
    handle_signals = true;
    on_ready = None;
    on_tcp_port = None;
  }

type stats = { uptime_s : float; requests_total : int }

let c_requests = Telemetry.counter "service.requests"
let c_respawns = Telemetry.counter "service.respawns"
let c_failovers = Telemetry.counter "service.failovers"

(* ---------- routing ---------- *)

let fnv1a64 (s : string) : int64 =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let shard_of_key ~shards key =
  if shards <= 1 then 0
  else Int64.to_int (Int64.unsigned_rem (fnv1a64 key) (Int64.of_int shards))

(* The preparation key, not the full session key: all variants/engines of
   one prepared workload share a shard (and that shard's prep cache). *)
let route_key = P.prep_key

let shard_socket public i = Printf.sprintf "%s.shard%d" public i

(* What the supervisor last told us about a shard.  [Sh_down] parks
   traffic until the respawn completes; an open breaker fails fast with a
   retry hint.  An expired breaker whose respawn has not reported [Up]
   yet behaves like [Sh_down]. *)
type shard_state = Sh_up | Sh_down | Sh_breaker of { until : float }

type t = {
  opts : opts;
  shards : int;
  started : float;
  base : (string * int) list;
      (* the telemetry counters when [run] started: status and the run
         stats report growth since then (see [Telemetry.since]) *)
  draining : bool Atomic.t;
  acc : Acceptor.t;
  routes : int Cache.t;
      (* frame text (minus the request id) -> destination shard, for
         frames relayed whole.  Routing is a pure function of the frame
         text, so a repeated query skips the full JSON decode — the
         dominant per-frame cost for large relayed batches. *)
  (* --- supervision --- *)
  sstate : shard_state Atomic.t array;
  up_count : int Atomic.t array;  (* [Up] events seen; first is startup *)
  drain_flag : bool Atomic.t array;  (* rolling restart is cycling this shard *)
  cmd_w : Unix.file_descr;  (* commands to the supervisor *)
  drain_lock : Mutex.t;  (* serializes rolling restarts *)
  sup_gone : bool Atomic.t;
      (* the supervisor died without the [Stopped] handshake: no more
         respawns will ever happen, and the shards it owned are orphans
         the router must sweep itself at shutdown *)
}

let shard_of_op t (op : P.op) =
  let tg =
    match op with
    | P.Breakdown { target; _ } | P.Icost { target; _ }
    | P.Graph_stats { target }
    | P.Sweep { target; _ } ->
      target
    | P.Batch _ | P.Status | P.Health | P.Drain | P.Shutdown -> assert false
  in
  shard_of_key ~shards:t.shards (route_key tg)

let sleep_s s = ignore (Unix.select [] [] [] s)

let send_command_fd cmd_w cmd =
  let line = Supervise.command_to_line cmd ^ "\n" in
  let b = Bytes.of_string line in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write cmd_w b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> ()
  in
  go 0

let send_command t cmd = send_command_fd t.cmd_w cmd

(* Park until shard [sh] accepts traffic again: up and not being cycled
   by a rolling restart.  Fail-fast on an open breaker (the caller turns
   the hint into a typed [unavailable]); give up at [deadline] or once
   the router itself is draining. *)
let await_shard t sh ~deadline =
  let rec go () =
    match Atomic.get t.sstate.(sh) with
    | Sh_breaker { until } when Unix.gettimeofday () < until ->
      `Breaker
        (int_of_float (Float.ceil ((until -. Unix.gettimeofday ()) *. 1e3)))
    | Sh_up when not (Atomic.get t.drain_flag.(sh)) -> `Ready
    | _ ->
      (* no supervisor, no respawn: parking would just burn the budget *)
      if
        Atomic.get t.draining || Atomic.get t.sup_gone
        || Unix.gettimeofday () >= deadline
      then `Gave_up
      else begin
        sleep_s 0.01;
        go ()
      end
  in
  go ()

(* ---------- per-connection shard links ----------

   Each client connection lazily opens its own connection to each shard
   it talks to (no cross-connection multiplexing: frames of different
   clients never interleave on one shard link, so passthrough replies
   can be relayed verbatim without an id-routing table). *)

type links = Client.t option array

let drop_link (links : links) i =
  Option.iter Client.close links.(i);
  links.(i) <- None

let link t (links : links) i =
  match links.(i) with
  | Some c -> c
  | None ->
    (* short connect retry only: waiting out a respawn is the failover
       loop's job (it parks on supervisor state instead of polling a
       dead socket) *)
    let c = Client.connect ~retry_for:0.5 ~socket:(shard_socket t.opts.socket i) () in
    links.(i) <- Some c;
    c

let try_shard t links i f =
  match f (link t links i) with
  | v -> Ok v
  | exception Client.Disconnected msg ->
    drop_link links i;
    Error msg
  | exception Failure msg ->
    drop_link links i;
    Error msg

(* One transparent reconnect: the shard may have restarted between
   requests.  Only idempotent traffic flows through here (analysis ops
   and aggregation queries), so a re-send is safe. *)
let with_shard t links i f =
  match try_shard t links i f with
  | Ok v -> Ok v
  | Error _ -> try_shard t links i f

(* ---------- aggregation ---------- *)

let shard_up t i = match Atomic.get t.sstate.(i) with Sh_up -> true | _ -> false

let query_shard t links i op =
  (* a down or breaker-parked shard is unreachable by definition; asking
     would stall the aggregation behind a connect retry *)
  if not (shard_up t i) then None
  else
    match
      with_shard t links i (fun c ->
          Client.call c { P.req_id = 0; deadline_ms = None; op })
    with
    | Ok reply -> Some reply
    | Error _ -> None

let health_of t ~unreachable ~worst =
  if Atomic.get t.draining then "draining"
  else if unreachable > 0 || worst || Atomic.get t.sup_gone then "degraded"
  else "ok"

let agg_status t links : P.status_body =
  let bodies =
    List.init t.shards (fun i ->
        match query_shard t links i P.Status with
        | Some { P.body = Ok (P.R_status s); _ } -> Some s
        | _ -> None)
  in
  let reachable = List.filter_map Fun.id bodies in
  let unreachable = t.shards - List.length reachable in
  let sum f = List.fold_left (fun a s -> a + f s) 0 reachable in
  let worst =
    List.exists (fun (s : P.status_body) -> s.P.health <> "ok") reachable
  in
  let since = Telemetry.since t.base in
  {
    P.uptime_s = Unix.gettimeofday () -. t.started;
    requests_total = since c_requests;
    inflight = sum (fun s -> s.P.inflight);
    queue_depth = sum (fun s -> s.P.queue_depth);
    sessions = sum (fun s -> s.P.sessions);
    cache_hits = sum (fun s -> s.P.cache_hits);
    cache_misses = sum (fun s -> s.P.cache_misses);
    cache_evictions = sum (fun s -> s.P.cache_evictions);
    snapshot_hits = sum (fun s -> s.P.snapshot_hits);
    snapshot_misses = sum (fun s -> s.P.snapshot_misses);
    snapshot_rejects = sum (fun s -> s.P.snapshot_rejects);
    sweep_points = sum (fun s -> s.P.sweep_points);
    sweep_cache_hits = sum (fun s -> s.P.sweep_cache_hits);
    segments = sum (fun s -> s.P.segments);
    stream_peak_mb =
      List.fold_left
        (fun a (s : P.status_body) -> Float.max a s.P.stream_peak_mb)
        0. reachable;
    pool_jobs = sum (fun s -> s.P.pool_jobs);
    shards = t.shards;
    respawns = since c_respawns;
    failovers = since c_failovers;
    health = health_of t ~unreachable ~worst;
    draining = Atomic.get t.draining;
  }

let agg_health t links : P.health_body =
  let bodies =
    List.init t.shards (fun i ->
        match query_shard t links i P.Health with
        | Some { P.body = Ok (P.R_health h); _ } -> Some h
        | _ -> None)
  in
  let reachable = List.filter_map Fun.id bodies in
  let unreachable = t.shards - List.length reachable in
  let sum f = List.fold_left (fun a h -> a + f h) 0 reachable in
  let worst =
    List.exists (fun (h : P.health_body) -> h.P.h_health <> "ok") reachable
  in
  {
    P.h_health = health_of t ~unreachable ~worst;
    h_breakers_open = sum (fun h -> h.P.h_breakers_open);
    h_shed = sum (fun h -> h.P.h_shed);
  }

(* ---------- dispatch ---------- *)

let write_reply c ~seq (reply : P.reply) =
  Acceptor.write_line c ~seq (P.encode_reply reply ^ "\n")

let error_reply id code msg = { P.rep_id = id; body = Error (code, msg) }

let unreachable_error i msg =
  (P.Unavailable, Printf.sprintf "shard %d unreachable: %s" i msg)

let breaker_error sh retry_after_ms =
  ( P.Unavailable,
    Printf.sprintf "shard %d breaker open after restart storm; %s" sh
      (P.retry_after_clause retry_after_ms) )

let write_breaker_reply c ~seq ~id sh retry_after_ms =
  let code, msg = breaker_error sh retry_after_ms in
  Acceptor.write_line c ~seq
    (P.encode_error_reply ~rep_id:id code msg ~retry_after_ms ^ "\n")

(* A relayed frame only comes back [shutting_down] when the shard itself
   is draining — and a shard drains for exactly two reasons: the whole
   service is going down (don't retry), or the supervisor is cycling it
   and a replacement is seconds away (park and re-deliver).  Detected
   textually: the reply is relayed verbatim, never decoded. *)
let is_shutting_down_line line = P.has_substring line "\"code\":\"shutting_down\""

(* Forward one frame verbatim to shard [sh] and relay the shard's reply
   line untouched — byte-identical to asking the shard directly.  A dead,
   restarting or draining shard does not fail the frame: the loop parks
   on supervisor state and re-delivers to the respawned shard within the
   failover budget (frames on this path are idempotent by construction),
   so a crash or rolling restart costs latency, not an error. *)
let forward_to t links c ~seq ~id ~sh line =
  let deadline = Unix.gettimeofday () +. t.opts.failover_budget_s in
  let rec attempt ~failing_over =
    match await_shard t sh ~deadline with
    | `Breaker retry_after_ms -> write_breaker_reply c ~seq ~id sh retry_after_ms
    | `Ready | `Gave_up -> (
      match
        try_shard t links sh (fun sc ->
            Client.send_line sc line;
            Client.recv_line sc)
      with
      | Ok reply_line
        when is_shutting_down_line reply_line
             && (not (Atomic.get t.draining))
             && Unix.gettimeofday () < deadline ->
        drop_link links sh;
        sleep_s 0.02;
        attempt ~failing_over:true
      | Ok reply_line ->
        if failing_over then Telemetry.incr c_failovers;
        Acceptor.write_line c ~seq (reply_line ^ "\n")
      | Error msg ->
        if
          (not (Atomic.get t.draining))
          && (not (Atomic.get t.sup_gone))
          && Unix.gettimeofday () < deadline
        then begin
          sleep_s 0.02;
          attempt ~failing_over:true
        end
        else begin
          let code, emsg = unreachable_error sh msg in
          write_reply c ~seq (error_reply id code emsg)
        end)
  in
  attempt ~failing_over:false

let forward_single t links c ~seq ~id ~line op =
  forward_to t links c ~seq ~id ~sh:(shard_of_op t op) line

(* Affinity fast path: a batch whose items are all analysis ops bound
   for the same shard can be relayed verbatim like a single frame — the
   shard executes the whole batch in one scheduler slot and its reply
   needs no stitching.  This skips the scatter-gather's decode and
   re-encode of every per-item result (the expensive half: replies are
   an order of magnitude larger than requests), so clients that group
   their queries by workload — the natural pattern, since all sessions
   of one workload live on one shard — pay router overhead per frame,
   not per item. *)
let single_shard_batch t (ops : P.op list) : int option =
  let rec go acc = function
    | [] -> acc
    | (P.Breakdown _ | P.Icost _ | P.Graph_stats _ | P.Sweep _) as op :: rest -> (
      let sh = shard_of_op t op in
      match acc with
      | None -> go (Some sh) rest
      | Some sh' when sh' = sh -> go acc rest
      | Some _ -> raise Exit)
    (* status/health need aggregation, shutdown/drain/batch per-item
       errors: the slow path answers those without involving a shard *)
    | (P.Status | P.Health | P.Drain | P.Shutdown | P.Batch _) :: _ -> raise Exit
  in
  try go None ops with Exit -> None

(* Scatter-gather: partition items by shard (preserving order inside each
   group), send every sub-batch before reading any reply, then stitch the
   per-item results back into the frame's original item order.  Items the
   router can answer itself (status/health, nested batch, drain,
   shutdown) never leave the process.

   Failure semantics per sub-batch: a shard being cycled by a rolling
   restart ([drain_flag]) is waited out and its sub-batch re-delivered to
   the replacement — a drain must cost zero failed requests.  An
   {e uncommanded} crash between send and reply instead degrades to
   per-item typed [unavailable] errors: the frame as a whole survives,
   the client retries just those items (or the frame — it is idempotent)
   against the respawned shard. *)
let handle_batch t links ~deadline_ms ~id (ops : P.op list) : P.result_body =
  let n = List.length ops in
  let slots = Array.make n (Error (P.Internal, "unrouted batch item")) in
  let by_shard = Hashtbl.create 4 in
  List.iteri
    (fun idx op ->
      match op with
      | P.Breakdown _ | P.Icost _ | P.Graph_stats _ | P.Sweep _ ->
        let sh = shard_of_op t op in
        let prev = try Hashtbl.find by_shard sh with Not_found -> [] in
        Hashtbl.replace by_shard sh ((idx, op) :: prev)
      | P.Status -> slots.(idx) <- Ok (P.R_status (agg_status t links))
      | P.Health -> slots.(idx) <- Ok (P.R_health (agg_health t links))
      | P.Drain ->
        slots.(idx) <- Error (P.Bad_request, "drain is not allowed inside a batch")
      | P.Shutdown ->
        slots.(idx) <- Error (P.Bad_request, "shutdown is not allowed inside a batch")
      | P.Batch _ -> slots.(idx) <- Error (P.Bad_request, "batch items cannot nest"))
    ops;
  let groups =
    Hashtbl.fold (fun sh items acc -> (sh, List.rev items) :: acc) by_shard []
    |> List.sort compare
  in
  let deadline = Unix.gettimeofday () +. t.opts.failover_budget_s in
  let sub_of items =
    { P.req_id = id; deadline_ms; op = P.Batch { ops = List.map snd items } }
  in
  (* scatter: the shards compute their sub-batches concurrently.  A shard
     with an open breaker is refused up front (fail-fast, with the retry
     hint in each item's message). *)
  let sent =
    List.map
      (fun (sh, items) ->
        match await_shard t sh ~deadline with
        | `Breaker retry_after_ms ->
          (sh, items, `Refused (breaker_error sh retry_after_ms))
        | `Ready | `Gave_up ->
          (sh, items, `Sent (with_shard t links sh (fun sc -> Client.send sc (sub_of items)))))
      groups
  in
  (* one full re-delivery of a sub-batch to a respawned shard *)
  let redeliver sh items fill =
    match await_shard t sh ~deadline with
    | `Breaker retry_after_ms -> fill (breaker_error sh retry_after_ms)
    | `Ready | `Gave_up -> (
      match with_shard t links sh (fun sc -> Client.call sc (sub_of items)) with
      | Ok { P.body = Ok (P.R_batch { results }); _ }
        when List.length results = List.length items ->
        Telemetry.incr c_failovers;
        List.iter2 (fun (idx, _) r -> slots.(idx) <- r) items results
      | Ok { P.body = Error (code, msg); _ } -> fill (code, msg)
      | Ok _ -> fill (P.Internal, Printf.sprintf "shard %d: malformed batch reply" sh)
      | Error msg -> fill (unreachable_error sh msg))
  in
  List.iter
    (fun (sh, items, sent_ok) ->
      let fill err = List.iter (fun (idx, _) -> slots.(idx) <- Error err) items in
      (* A sub-batch lost to a {e commanded} drain (rolling restart) is
         re-delivered to the replacement — a drain must cost zero failed
         requests.  One lost to an uncommanded crash instead degrades to
         per-item typed errors, deterministically: the client retries
         those items against the respawned shard. *)
      let failover_or fill_err =
        if Atomic.get t.drain_flag.(sh) && not (Atomic.get t.draining) then
          redeliver sh items fill
        else fill fill_err
      in
      match sent_ok with
      | `Refused err -> fill err
      | `Sent (Error msg) -> failover_or (unreachable_error sh msg)
      | `Sent (Ok ()) -> (
        let recv () =
          match links.(sh) with
          | Some sc -> Client.recv sc
          | None -> raise (Client.Disconnected "shard link lost")
        in
        match recv () with
        | { P.body = Ok (P.R_batch { results }); _ }
          when List.length results = List.length items ->
          List.iter2 (fun (idx, _) r -> slots.(idx) <- r) items results
        | { P.body = Error (P.Shutting_down, _); _ }
          when not (Atomic.get t.draining) ->
          (* the shard is draining for a restart, not the service: wait
             for the replacement and re-deliver *)
          drop_link links sh;
          redeliver sh items fill
        | { P.body = Error (code, msg); _ } ->
          (* whole sub-batch refused (overloaded / draining / breaker):
             every item of this shard inherits the typed error *)
          fill (code, msg)
        | _ -> fill (P.Internal, Printf.sprintf "shard %d: malformed batch reply" sh)
        | exception Client.Disconnected msg ->
          drop_link links sh;
          failover_or (unreachable_error sh msg)
        | exception Failure msg ->
          drop_link links sh;
          failover_or (unreachable_error sh msg)))
    sent;
  P.R_batch { results = Array.to_list slots }

(* ---------- rolling restart ---------- *)

(* Cycle the fleet one shard at a time: park the shard's traffic, ask the
   supervisor to drain it (the shard finishes in-flight work, persists
   its snapshots and exits; the supervisor respawns it immediately), wait
   for the replacement to come up, unpark, move on.  Requests bound for
   the cycling shard meanwhile wait in {!forward_to}/{!handle_batch}
   rather than failing, so a rolling restart is invisible to clients
   beyond latency. *)
let rolling_restart t : (int, P.error_code * string) result =
  if Atomic.get t.sup_gone then
    Error
      ( P.Unavailable,
        "rolling restart refused: the supervisor process is gone, nothing \
         can respawn a drained shard" )
  else if not (Mutex.try_lock t.drain_lock) then
    Error (P.Unavailable, "a rolling restart is already in progress")
  else
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.drain_lock)
      (fun () ->
        let failed = ref None in
        let restarted = ref 0 in
        for sh = 0 to t.shards - 1 do
          if !failed = None && not (Atomic.get t.draining) then begin
            let ups_before = Atomic.get t.up_count.(sh) in
            Atomic.set t.drain_flag.(sh) true;
            send_command t (Supervise.Drain sh);
            let deadline =
              Unix.gettimeofday () +. t.opts.supervise.Supervise.spawn_wait_s
              +. 30.
            in
            let rec wait () =
              if Atomic.get t.up_count.(sh) > ups_before && shard_up t sh then
                incr restarted
              else if
                Unix.gettimeofday () >= deadline || Atomic.get t.draining
              then failed := Some sh
              else begin
                sleep_s 0.02;
                wait ()
              end
            in
            wait ();
            Atomic.set t.drain_flag.(sh) false
          end
        done;
        match !failed with
        | None -> Ok !restarted
        | Some sh ->
          Error
            ( P.Internal,
              Printf.sprintf
                "rolling restart aborted: shard %d did not respawn (restarted %d)"
                sh !restarted ))

(* ---------- route cache ----------

   A frame the router relays verbatim (one analysis op, or a batch whose
   items all land on one shard) is routed by a pure function of its
   text, so the decision is memoized on the frame text minus its request
   id (see {!P.split_frame_id}). *)

exception Unrouted
(* the frame needs the aggregating/stitching slow path (status, health,
   drain, shutdown, mixed-shard or malformed batches) and must not be
   cached *)

let route_decision t line : int =
  match P.decode_request line with
  | Error _ -> raise Unrouted
  | Ok req -> (
    match req.P.op with
    | (P.Breakdown _ | P.Icost _ | P.Graph_stats _ | P.Sweep _) as op ->
      shard_of_op t op
    | P.Batch { ops } -> (
      match single_shard_batch t ops with
      | Some sh -> sh
      | None -> raise Unrouted)
    | P.Status | P.Health | P.Drain | P.Shutdown -> raise Unrouted)

let handle_decoded t links c ~seq line =
  match P.decode_request line with
  | Error msg -> write_reply c ~seq (error_reply 0 P.Bad_request msg)
  | Ok req -> (
    let id = req.P.req_id in
    match req.P.op with
    | P.Status ->
      write_reply c ~seq { P.rep_id = id; body = Ok (P.R_status (agg_status t links)) }
    | P.Health ->
      write_reply c ~seq { P.rep_id = id; body = Ok (P.R_health (agg_health t links)) }
    | P.Shutdown ->
      write_reply c ~seq { P.rep_id = id; body = Ok P.R_shutdown };
      Atomic.set t.draining true;
      Acceptor.request_stop t.acc
    | _ when Atomic.get t.draining ->
      write_reply c ~seq (error_reply id P.Shutting_down "server is draining")
    | P.Drain -> (
      match rolling_restart t with
      | Ok restarted ->
        write_reply c ~seq { P.rep_id = id; body = Ok (P.R_drain { restarted }) }
      | Error (code, msg) -> write_reply c ~seq (error_reply id code msg))
    | P.Batch { ops } -> (
      match single_shard_batch t ops with
      | Some sh -> forward_to t links c ~seq ~id ~sh line
      | None ->
        let body =
          handle_batch t links ~deadline_ms:req.P.deadline_ms ~id ops
        in
        write_reply c ~seq { P.rep_id = id; body = Ok body })
    | (P.Breakdown _ | P.Icost _ | P.Graph_stats _ | P.Sweep _) as op ->
      forward_single t links c ~seq ~id ~line op)

let handle_line t links c ~seq line =
  Telemetry.incr c_requests;
  (* draining must answer analysis frames with [Shutting_down], so the
     relay fast path only runs while accepting work *)
  if Atomic.get t.draining then handle_decoded t links c ~seq line
  else
    match P.split_frame_id line with
    | None -> handle_decoded t links c ~seq line
    | Some (id, pos) -> (
      let key = String.sub line pos (String.length line - pos) in
      match Cache.find_or_add t.routes key (fun () -> route_decision t line) with
      | sh -> forward_to t links c ~seq ~id ~sh line
      | exception Unrouted -> handle_decoded t links c ~seq line)

let conn_loop t (c : Acceptor.conn) =
  let links : links = Array.make t.shards None in
  let rec loop () =
    match Acceptor.read_line_bounded c ~max:P.max_request_bytes with
    | `Eof -> ()
    | `Too_long ->
      write_reply c ~seq:(Acceptor.next_seq c)
        (error_reply 0 P.Bad_request
           (Printf.sprintf "request exceeds %d bytes" P.max_request_bytes))
    | `Line line ->
      if String.trim line <> "" then
        handle_line t links c ~seq:(Acceptor.next_seq c) line;
      loop ()
  in
  (try loop () with _ -> ());
  Array.iteri (fun i _ -> drop_link links i) links

(* ---------- lifecycle ---------- *)

let rec mkdirs dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Fork one shard server.  Runs inside the supervisor process (which is
   single-threaded for its whole life, so forking is always safe there);
   [close_in_child] are the supervisor's pipe ends, which the shard must
   not hold open or the router would never see EOF when the supervisor
   dies.  Shards always handle SIGTERM themselves: the supervisor's stop
   path terminates the fleet with signals, and graceful handling is what
   unlinks the shard's socket file on the way out. *)
let spawn_shard (opts : opts) ~close_in_child i =
  let sock = shard_socket opts.socket i in
  let cache_dir =
    Option.map
      (fun root -> Filename.concat root (Printf.sprintf "shard-%d" i))
      opts.shard.Server.cache_dir
  in
  Option.iter mkdirs cache_dir;
  match Unix.fork () with
  | 0 ->
    (* child: a full private server; never returns to the caller's code *)
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      close_in_child;
    let sopts =
      {
        opts.shard with
        Server.socket = sock;
        tcp = None;
        cache_dir;
        handle_signals = true;
        on_ready = None;
        on_tcp_port = None;
      }
    in
    let code = match Server.run sopts with _ -> 0 | exception _ -> 1 in
    Unix._exit code
  | pid -> pid

(* the public, escalating reap (see router.mli); shutdown uses it on the
   supervisor, tests use it on daemon processes *)
let reap ?grace_s pids = Supervise.reap ?grace_s pids

let take_line buf =
  let s = Buffer.contents buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear buf;
    Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
    Some (String.sub s 0 i)

let run (opts : opts) : stats =
  if opts.shards < 1 then invalid_arg "Router.run: shards must be >= 1";
  (* before the startup events below, which may count respawns *)
  let base = Telemetry.counters () in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Fork the supervisor before any listener or thread exists in this
     process — fork and threads do not mix, and every later fork (the
     respawns) happens inside the still-single-threaded supervisor. *)
  let cmd_r, cmd_w = Unix.pipe () in
  let evt_r, evt_w = Unix.pipe () in
  let sup_pid =
    match Unix.fork () with
    | 0 -> (
      (try Unix.close cmd_w with Unix.Unix_error _ -> ());
      (try Unix.close evt_r with Unix.Unix_error _ -> ());
      try
        Supervise.run_supervisor opts.supervise ~shards:opts.shards
          ~spawn:(spawn_shard opts ~close_in_child:[ cmd_r; evt_w ])
          ~socket_of:(shard_socket opts.socket)
          ~cmd:cmd_r ~evt:evt_w ~handle_signals:opts.handle_signals
      with _ -> Unix._exit 1)
    | pid -> pid
  in
  (try Unix.close cmd_r with Unix.Unix_error _ -> ());
  (try Unix.close evt_w with Unix.Unix_error _ -> ());
  let sstate = Array.init opts.shards (fun _ -> Atomic.make Sh_down) in
  let up_count = Array.init opts.shards (fun _ -> Atomic.make 0) in
  let sup_stopped = Atomic.make false in
  let sup_gone = Atomic.make false in
  let apply_event = function
    | Supervise.Stopped -> Atomic.set sup_stopped true
    | Supervise.Up { shard; _ } when shard >= 0 && shard < opts.shards ->
      (* every [Up] after a shard's first is a real respawn *)
      if Atomic.fetch_and_add up_count.(shard) 1 > 0 then
        Telemetry.incr c_respawns;
      Atomic.set sstate.(shard) Sh_up
    | Supervise.Down { shard; _ } when shard >= 0 && shard < opts.shards ->
      Atomic.set sstate.(shard) Sh_down
    | Supervise.Breaker_open { shard; retry_after_ms }
      when shard >= 0 && shard < opts.shards ->
      Atomic.set sstate.(shard)
        (Sh_breaker
           {
             until = Unix.gettimeofday () +. (float_of_int retry_after_ms /. 1e3);
           })
    | Supervise.Up _ | Supervise.Down _ | Supervise.Breaker_open _ -> ()
  in
  let ebuf = Buffer.create 256 in
  let read_evt_chunk ~timeout =
    match Unix.select [ evt_r ] [] [] timeout with
    | [ _ ], _, _ -> (
      let chunk = Bytes.create 512 in
      match Unix.read evt_r chunk 0 (Bytes.length chunk) with
      | 0 -> `Eof
      | n ->
        Buffer.add_subbytes ebuf chunk 0 n;
        `Data
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Timeout
      | exception Unix.Unix_error _ -> `Eof)
    | _ -> `Timeout
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Timeout
  in
  let teardown e =
    send_command_fd cmd_w Supervise.Stop;
    Supervise.reap ~grace_s:opts.supervise.Supervise.grace_s [ sup_pid ];
    (try Unix.close cmd_w with Unix.Unix_error _ -> ());
    (try Unix.close evt_r with Unix.Unix_error _ -> ());
    raise e
  in
  (* readiness: the supervisor reports [Up] per shard as each socket
     starts accepting; consume events on this (still threadless) thread
     until the whole fleet is up *)
  let ready_deadline =
    Unix.gettimeofday () +. 30. +. opts.supervise.Supervise.spawn_wait_s
  in
  let all_up () =
    Array.for_all (fun a -> Atomic.get a = Sh_up) sstate
  in
  (try
     let rec wait_ready () =
       if all_up () then ()
       else
         match take_line ebuf with
         | Some line ->
           Option.iter apply_event (Supervise.event_of_line line);
           wait_ready ()
         | None ->
           if Unix.gettimeofday () >= ready_deadline then
             failwith "shards failed to start"
           else (
             match read_evt_chunk ~timeout:0.25 with
             | `Data | `Timeout -> wait_ready ()
             | `Eof -> failwith "supervisor exited during startup")
     in
     wait_ready ()
   with e -> teardown e);
  let listeners =
    try
      let unix_listener = Endpoint.listen (Endpoint.Unix_path opts.socket) in
      match opts.tcp with
      | None -> [ unix_listener ]
      | Some (host, port) -> (
        match Endpoint.listen (Endpoint.Tcp (host, port)) with
        | l ->
          Option.iter
            (fun f -> Option.iter f (Endpoint.bound_port l))
            opts.on_tcp_port;
          [ unix_listener; l ]
        | exception e ->
          Endpoint.close_listener unix_listener;
          raise e)
    with e -> teardown e
  in
  let t =
    {
      opts;
      shards = opts.shards;
      started = Unix.gettimeofday ();
      base;
      draining = Atomic.make false;
      acc = Acceptor.create listeners;
      routes = Cache.create ~name:"routes" ~cap:256;
      sstate;
      up_count;
      drain_flag = Array.init opts.shards (fun _ -> Atomic.make false);
      cmd_w;
      drain_lock = Mutex.create ();
      sup_gone;
    }
  in
  (* from here on the supervisor's events are consumed by a dedicated
     thread (EOF — the supervisor exiting — ends it) *)
  let evt_thread =
    Thread.create
      (fun () ->
        let rec loop () =
          match take_line ebuf with
          | Some line ->
            Option.iter apply_event (Supervise.event_of_line line);
            loop ()
          | None -> (
            match read_evt_chunk ~timeout:0.5 with
            | `Data | `Timeout -> loop ()
            | `Eof ->
              (* pipe EOF before the [Stopped] handshake means the
                 supervisor itself died — it never exits on its own.
                 The fleet keeps serving, but health degrades (self-
                 healing is lost) and shutdown must sweep the orphans. *)
              if not (Atomic.get sup_stopped) then Atomic.set sup_gone true)
        in
        loop ())
      ()
  in
  if opts.handle_signals then begin
    let h =
      Sys.Signal_handle
        (fun _ ->
          Atomic.set t.draining true;
          Acceptor.request_stop t.acc)
    in
    (try Sys.set_signal Sys.sigint h with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm h with Invalid_argument _ -> ())
  end;
  Option.iter (fun f -> f ()) opts.on_ready;
  Acceptor.serve t.acc ~on_conn:(conn_loop t);
  Atomic.set t.draining true;
  (* stop-the-fleet: the supervisor SIGTERMs the shards (graceful drain:
     they finish in-flight work, persist snapshots, unlink sockets),
     escalates to SIGKILL on a wedged one, reaps them all and exits;
     EOF on the event pipe then ends the reader thread. *)
  send_command t Supervise.Stop;
  Acceptor.finish t.acc;
  Supervise.reap ~grace_s:(3. *. opts.supervise.Supervise.grace_s) [ sup_pid ];
  Thread.join evt_thread;
  (* If the supervisor was killed out from under us (no [Stopped]
     handshake), the shards it forked were re-parented to init when it
     died: nobody is left to signal or reap them, and they would leak
     past our own exit still holding their sockets.  They are not our
     children, so the sweep goes over the wire instead of via signals:
     a live shard answers [shutdown] by draining, persisting its
     snapshots, unlinking its socket and exiting on its own. *)
  if not (Atomic.get sup_stopped) then
    for i = 0 to opts.shards - 1 do
      let sock = shard_socket opts.socket i in
      match Endpoint.probe_unix_socket sock with
      | `Live -> (
        try
          let c = Client.connect ~retry_for:0.5 ~socket:sock () in
          Fun.protect
            ~finally:(fun () -> try Client.close c with _ -> ())
            (fun () ->
              ignore
                (Client.call c
                   { P.req_id = 0; deadline_ms = None; op = P.Shutdown }))
        with _ -> ())
      | `Absent | `Stale -> ()
    done;
  (try Unix.close cmd_w with Unix.Unix_error _ -> ());
  (try Unix.close evt_r with Unix.Unix_error _ -> ());
  { uptime_s = Unix.gettimeofday () -. t.started;
    requests_total = Telemetry.since t.base c_requests }
