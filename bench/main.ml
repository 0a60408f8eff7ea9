(* Bench harness.

   Running with no arguments regenerates every table and figure of the
   paper (Figure 1, Tables 4a/4b/4c, Figure 3 + the Section 4.3 sensitivity
   comparison, Table 7, the Section 5 profiler statistics and the sampling
   ablation), printing PASS/FAIL shape checks against the paper's
   qualitative findings, and then times the analysis engines.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- <id> ...     -- selected experiments
                                                 (fig1 table4a table4b table4c
                                                  fig3 table7 profstats ablation)
     dune exec bench/main.exe -- micro        -- only the micro-benchmarks
     dune exec bench/main.exe -- service      -- daemon warm-query vs cold
                                                 one-shot, per engine (gates:
                                                 >= 10x warm, >= 5x snapshot,
                                                 bit-identical replies)
     dune exec bench/main.exe -- check        -- time one full conformance
                                                 law-table sweep per case
                                                 class (kernel + generated)
     dune exec bench/main.exe -- load         -- closed-loop load: 2-shard
                                                 pipelined batches vs 1-shard
                                                 one-at-a-time, then a chaos
                                                 soak (kill -9 a random shard
                                                 every 250 ms under load;
                                                 zero client-visible failures,
                                                 bit-identical replies,
                                                 bounded worst-case latency);
                                                 cannot combine with other
                                                 modes — it forks daemons
     dune exec bench/main.exe -- sweep        -- parametric sensitivity grid,
                                                 sequential vs 4 pool jobs
                                                 (bit-identical; >= 2x gate
                                                 when >= 4 cores; cannot
                                                 combine with other modes —
                                                 it re-pins the pool)
     dune exec bench/main.exe -- stream       -- bounded-memory streaming
                                                 analysis of a 10M-instruction
                                                 run plus a 10x-smaller one
                                                 (gates: bit-identical to
                                                 monolithic on one window, big
                                                 run's peak heap <= 2x small
                                                 run's; writes no rows)
     dune exec bench/main.exe -- compare DIR  -- judge the paired runs that
                                                 bench/check_regression.sh
                                                 leaves in DIR

   Flags:
     --json FILE        dump the measured rows as JSON (the committed
                        BENCH_*.json files are records of such runs)
     --trace FILE / --metrics FILE
                        enable telemetry and export it at exit

   Environment (the load phase only; CI sets them for a short smoke):
     ICOST_LOAD_DURATION_S  seconds per throughput phase (default 3)
     ICOST_LOAD_GATE=0      waive the >= 2x qps and p99 bars; bit-identity
                            is still enforced
     ICOST_SOAK_DURATION_S  seconds of chaos soak (default 3)
     ICOST_SOAK_MAX_LAT_MS  the soak's worst-case latency bound (default
                            5000) *)

module Runner = Icost_experiments.Runner
module Drive = Icost_experiments.Drive
module Workload = Icost_workloads.Workload
module Config = Icost_uarch.Config
module Category = Icost_core.Category
module Cost = Icost_core.Cost
module Ooo = Icost_sim.Ooo
module Multisim = Icost_sim.Multisim
module Build = Icost_depgraph.Build
module Graph = Icost_depgraph.Graph
module Profile = Icost_profiler.Profile
module Pool = Icost_util.Pool

(* ------------------------------------------------------------------ *)
(* paper artifacts                                                     *)
(* ------------------------------------------------------------------ *)

let run_experiments ids =
  let settings = Runner.default_settings in
  let reports =
    match ids with
    | [] -> Drive.all_reports ~settings ()
    | ids ->
      let prepared = Runner.prepare_all settings in
      let t7 =
        List.filter
          (fun (p : Runner.prepared) ->
            List.mem p.name Icost_experiments.Exp_table7.default_benches)
          prepared
      in
      List.map
        (function
          | "fig1" -> Drive.fig1 prepared
          | "table4a" -> Drive.table4a prepared
          | "table4b" -> Drive.table4b prepared
          | "table4c" -> Drive.table4c prepared
          | "fig3" -> Drive.fig3 prepared
          | "table7" -> Drive.table7 t7
          | "profstats" -> Drive.profstats t7
          | "ablation" -> Drive.ablation t7
          | "prefetch" -> Drive.prefetch ~settings ()
          | "conclusion" -> Drive.conclusion ~settings ()
          | "advisor" -> Drive.advisor prepared
          | other -> failwith (Printf.sprintf "unknown experiment %S" other))
        ids
  in
  List.iter Drive.print_report reports;
  let checks = List.concat_map (fun (r : Drive.report) -> r.checks) reports in
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  Printf.printf "shape checks: %d/%d passed\n"
    (List.length checks - List.length failed)
    (List.length checks);
  List.iter (fun (d, _) -> Printf.printf "  FAILED: %s\n" d) failed

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks of the analysis machinery                          *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  (* one mid-size prepared workload shared by all engine benchmarks *)
  let settings =
    { Runner.default_settings with benches = [ "gcc" ]; measure = 10_000 }
  in
  let p = List.hd (Runner.prepare_all settings) in
  let cfg = Config.loop_dl1 in
  let result = Runner.baseline_run cfg p in
  let graph = Build.of_sim cfg p.trace p.evts result in
  let dl1_win = Category.Set.pair Category.Dl1 Category.Win in
  let all_subsets = Array.of_list (Category.Set.subsets Category.Set.full) in
  (* empty + the eight singletons: the fan-out of one Table 4 column *)
  let singleton_sets =
    Array.of_list
      (Category.Set.empty :: List.map Category.Set.singleton Category.all)
  in
  let seq_batch sets =
    let oracle = Multisim.oracle cfg p.trace p.evts in
    Array.map (Cost.query oracle) sets
  in
  [
    ("engines/sim-10k-instrs", fun () -> ignore (Ooo.cycles cfg p.trace p.evts));
    ("engines/sim-run-10k", fun () -> ignore (Ooo.run cfg p.trace p.evts));
    ("engines/graph-build-10k", fun () -> ignore (Build.of_sim cfg p.trace p.evts result));
    ("engines/graph-eval-baseline", fun () -> ignore (Graph.critical_length graph));
    ( "engines/graph-eval-idealized",
      fun () -> ignore (Graph.critical_length ~ideal:dl1_win graph) );
    ( "engines/eval-subsets-256",
      fun () -> ignore (Graph.eval_subsets graph all_subsets) );
    ("engines/multisim-batch-seq", fun () -> ignore (seq_batch singleton_sets));
    ( "engines/multisim-batch-par",
      fun () -> ignore (Multisim.oracle_batch cfg p.trace p.evts singleton_sets) );
    ( "engines/icost-pair-graph-oracle",
      fun () ->
        let oracle = Build.oracle graph in
        ignore (Cost.icost_pair oracle Category.Dl1 Category.Win) );
    ( "engines/profiler-end-to-end",
      fun () -> ignore (Profile.profile cfg p.program p.trace p.evts result) );
  ]

(* Best-of-batches timing.  Each test [(name, target, f)] gets a batch
   sized to ~[target] seconds of calls (one call when [target] is 0);
   seven rounds then time one batch of every test in turn, and each test
   keeps its fastest per-call time, in ms.  The minimum is what the
   code can do when the machine leaves it alone: means and OLS fits on a
   shared box swing far more than the gate's 25% bound (observed: same
   binary, +67% on consecutive runs).  Interleaving spreads each test's
   batches over the whole phase, so a noisy stretch of a few seconds
   slows a few batches of many rows rather than every batch of one. *)
let time_min (tests : (string * float * (unit -> unit)) list) =
  let sized =
    List.map
      (fun (name, target, f) ->
        let t0 = Unix.gettimeofday () in
        f ();
        let once = Unix.gettimeofday () -. t0 in
        (name, f, max 1 (int_of_float (target /. Float.max 1e-9 once)), ref infinity))
      tests
  in
  for _ = 1 to 7 do
    List.iter
      (fun (_, f, iters, best) ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to iters do
          f ()
        done;
        best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int iters))
      sized
  done;
  List.map (fun (name, _, _, best) -> (name, !best *. 1e3)) sized

let run_micro () : (string * float) list =
  let rows =
    time_min (List.map (fun (name, f) -> (name, 0.15, f)) (micro_tests ()))
  in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "\nmicro-benchmarks (best time per call):\n";
  List.iter (fun (name, ms) -> Printf.printf "  %-36s %10.3f ms/run\n" name ms) rows;
  rows

(* ------------------------------------------------------------------ *)
(* Service mode: resident daemon vs one-shot CLI                       *)
(* ------------------------------------------------------------------ *)

module Server = Icost_service.Server
module Client = Icost_service.Client
module Protocol = Icost_service.Protocol
module Snapshot = Icost_service.Snapshot
module Breakdown = Icost_core.Breakdown

(* Time a warm [icost query breakdown] against an in-process daemon and
   the equivalent cold one-shot computation (prepare + baseline + oracle +
   breakdown, i.e. what [icost breakdown] does past process startup), per
   engine, and verify the served reply is bit-identical to the direct
   computation.  The committed record is BENCH_service.json. *)
let run_service () : (string * float) list =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "icost-bench-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket then Sys.remove socket;
  let srv =
    Thread.create
      (fun () ->
        ignore
          (Server.run
             { Server.default_opts with socket; workers = 2;
               handle_signals = false }))
      ()
  in
  let bench = "gcc" and warmup = 20_000 and measure = 5_000 in
  let target engine =
    {
      Protocol.workload = bench;
      variant = "base";
      engine;
      warmup;
      measure;
      seed = Icost_profiler.Sampler.default_opts.seed;
    }
  in
  let breakdown_req engine =
    { Protocol.req_id = 1; deadline_ms = None;
      op = Protocol.Breakdown { target = target engine; focus = "dl1" } }
  in
  let kind_of = function
    | "multisim" -> Runner.Multisim
    | "profiler" -> Runner.Profiler
    | _ -> Runner.Fullgraph
  in
  let settings = { Runner.warmup; measure; benches = [ bench ] } in
  let w = Workload.find_exn bench in
  (* the full one-shot pipeline, rebuilt from scratch every call *)
  let direct engine () =
    let p = Runner.prepare settings w in
    let oracle = Runner.oracle_of_kind (kind_of engine) Config.default p in
    Breakdown.focus ~oracle ~focus_cat:Category.Dl1
  in
  (* the same one-shot, but established through a snapshot store
     (--cache-dir): after priming, every call warm-starts from disk *)
  let cached_of engine =
    let cache_dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "icost-bench-cache-%d-%s" (Unix.getpid ()) engine)
    in
    let cfg = Config.default in
    let kind = kind_of engine in
    let key = Server.session_key (target engine) cfg kind in
    let establish () =
      Snapshot.establish ~cache_dir ~key ~kind ~cfg
        ~seed:Icost_profiler.Sampler.default_opts.seed
        ~prepare:(fun () -> Runner.prepare settings w)
        ()
    in
    let run () =
      let est = establish () in
      (est, Breakdown.focus ~oracle:est.Snapshot.est_oracle ~focus_cat:Category.Dl1)
    in
    (* prime: the first establishment builds and the persist saves the
       grown memo, so measured calls replay entirely from disk *)
    let est0, bd0 = run () in
    Snapshot.persist ~dir:cache_dir ~key est0;
    (cache_dir, bd0, fun () -> snd (run ()))
  in
  let body_of bd =
    Protocol.R_breakdown
      {
        baseline = bd.Breakdown.baseline_cycles;
        rows =
          List.map
            (fun (r : Breakdown.row) ->
              { Protocol.row_label = Breakdown.row_label r;
                row_percent = r.Breakdown.percent;
                row_cycles = r.Breakdown.cycles })
            bd.Breakdown.rows;
      }
  in
  let encode body = Protocol.encode_reply { Protocol.rep_id = 0; body } in
  Printf.printf "\nservice mode: warm daemon query vs cold one-shot (%s, %d+%d):\n"
    bench warmup measure;
  let ok = ref true in
  let rows =
    Client.with_client ~retry_for:10.0 ~socket (fun c ->
        (* prime the daemon's caches and a snapshot store per engine,
           checking both replies bit-identical to the direct computation *)
        let primed =
          List.map
            (fun engine ->
              let reply = Client.call c (breakdown_req engine) in
              (match reply.Protocol.body with
               | Ok _ -> ()
               | Error (_, msg) -> failwith ("service bench: " ^ msg));
              let expected = encode (Ok (body_of (direct engine ()))) in
              let cache_dir, bd_cached, cached = cached_of engine in
              let identical =
                encode reply.Protocol.body = expected
                && encode (Ok (body_of bd_cached)) = expected
              in
              (* cold: single runs, each rebuilding everything; cached: the
                 same from nothing in memory, replaying prepare/build/memo
                 from disk; warm: daemon round trips *)
              ( engine, identical, cache_dir,
                [
                  ( Printf.sprintf "service/cold-breakdown-%s" engine, 0.,
                    fun () -> ignore (direct engine ()) );
                  ( Printf.sprintf "service/warm-query-%s" engine, 0.15,
                    fun () -> ignore (Client.call c (breakdown_req engine)) );
                  ( Printf.sprintf "service/cold-breakdown-%s-cached" engine, 0.,
                    fun () -> ignore (cached ()) );
                ] ))
            [ "multisim"; "graph"; "profiler" ]
        in
        let times =
          time_min (List.concat_map (fun (_, _, _, tests) -> tests) primed)
        in
        List.iter
          (fun (engine, identical, cache_dir, _) ->
            Array.iter
              (fun f -> Sys.remove (Filename.concat cache_dir f))
              (Sys.readdir cache_dir);
            Sys.rmdir cache_dir;
            let ms fmt = List.assoc (Printf.sprintf fmt engine) times in
            let cold_ms = ms "service/cold-breakdown-%s" in
            let warm_ms = ms "service/warm-query-%s" in
            let cached_ms = ms "service/cold-breakdown-%s-cached" in
            let speedup = cold_ms /. warm_ms in
            let cached_speedup = cold_ms /. cached_ms in
            let pass = speedup >= 10. && cached_speedup >= 5. && identical in
            if not pass then ok := false;
            Printf.printf
              "  %-10s cold %8.2f ms  warm %7.3f ms (%6.1fx)  snapshot \
               %7.2f ms (%5.1fx)  bit-identical %-5s %s\n"
              engine cold_ms warm_ms speedup cached_ms cached_speedup
              (if identical then "yes" else "NO")
              (if pass then "PASS" else "FAIL"))
          primed;
        times)
  in
  Client.with_client ~retry_for:5.0 ~socket (fun c ->
      ignore
        (Client.call c
           { Protocol.req_id = 0; deadline_ms = None; op = Protocol.Shutdown }));
  Thread.join srv;
  Printf.printf
    "service gate (>= 10x warm speedup, >= 5x snapshot cold start, \
     bit-identical replies): %s\n"
    (if !ok then "PASS" else "FAIL");
  if not !ok then exit 1;
  rows

(* ------------------------------------------------------------------ *)
(* Closed-loop load: sharded pipelined batches vs one-at-a-time        *)
(* ------------------------------------------------------------------ *)

module Router = Icost_service.Router
module Supervise = Icost_service.Supervise

(* Environment knobs so CI can run a seconds-long smoke with the same
   code path that produces the committed BENCH_load.json. *)
let env_float name default =
  match Option.bind (Sys.getenv_opt name) float_of_string_opt with
  | Some v when v > 0. -> v
  | _ -> default

(* Weighted percentile over (latency, weight) samples: a batch frame is
   one timing observation that completes [weight] requests at once. *)
let percentile samples q =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) samples in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 sorted in
  if total = 0 then 0.
  else begin
    let want = Float.max 1. (Float.of_int total *. q) in
    let rec walk acc = function
      | [] -> 0.
      | [ (lat, _) ] -> lat
      | (lat, w) :: rest ->
        let acc = acc + w in
        if Float.of_int acc >= want then lat else walk acc rest
    in
    walk 0 sorted
  end

(* Fork a daemon into its own process: the load numbers must measure
   cross-process parallelism, not thread interleaving inside the bench
   binary.  Must run before anything spawns a domain (Unix.fork is
   forbidden after that), which is why [-- load] dispatches first. *)
let fork_daemon (serve : unit -> unit) =
  match Unix.fork () with
  | 0 -> (try serve (); Unix._exit 0 with _ -> Unix._exit 1)
  | pid -> pid

let shutdown_daemon ~socket pid =
  Client.with_client ~retry_for:5.0 ~socket (fun c ->
      ignore
        (Client.call c
           { Protocol.req_id = 0; deadline_ms = None; op = Protocol.Shutdown }));
  ignore (Unix.waitpid [] pid)

(* Closed-loop worker fleet: each connection keeps [depth] trips in
   flight for [duration_s], then drains.  [trip] sends one frame and
   its matching [reap] blocks for that frame's reply, returning how
   many requests it completed.  Returns (requests, (latency_ms, weight)
   samples, elapsed seconds). *)
let closed_loop ~conns ~depth ~duration_s ~connect ~send ~reap =
  let results = Array.make conns (0, [], 0.) in
  let threads =
    List.init conns (fun i ->
        Thread.create
          (fun () ->
            let c = connect () in
            Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
            let t0 = Unix.gettimeofday () in
            let t_end = t0 +. duration_s in
            let samples = ref [] and done_ = ref 0 in
            (* outstanding send timestamps, oldest first: replies come
               back in request order, so the head times the next reply *)
            let q = Queue.create () in
            let pump () =
              Queue.add (Unix.gettimeofday ()) q;
              send i c
            in
            let drain1 () =
              let sent_at = Queue.take q in
              let n = reap i c in
              let lat = (Unix.gettimeofday () -. sent_at) *. 1e3 in
              samples := (lat, n) :: !samples;
              done_ := !done_ + n
            in
            for _ = 1 to depth do pump () done;
            while Unix.gettimeofday () < t_end do
              drain1 ();
              pump ()
            done;
            while not (Queue.is_empty q) do drain1 () done;
            results.(i) <- (!done_, !samples, Unix.gettimeofday () -. t0))
          ())
  in
  List.iter Thread.join threads;
  Array.fold_left
    (fun (n, s, el) (n', s', el') -> (n + n', s' @ s, Float.max el el'))
    (0, [], 0.) results

(* The shard pids live two forks down (router -> supervisor -> shards);
   Linux exposes the chain in /proc, which is how the chaos soak finds
   its victims without any cooperation from the fleet. *)
let children_of pid =
  let path = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
  match In_channel.with_open_text path In_channel.input_all with
  | s ->
    String.split_on_char ' ' (String.trim s) |> List.filter_map int_of_string_opt
  | exception Sys_error _ -> []

let shard_pids_of router =
  match children_of router with
  | [ supervisor ] -> children_of supervisor
  | _ -> []

(* The shape of one load run: the run and its BENCH_load.json record
   both use this value, so the record reports the settings measured.
   Only the phase durations come from the environment. *)
type load_settings = {
  conns : int;
  batch : int;
  batch_conns : int;
  depth : int;
  duration_s : float;
  soak_duration_s : float;
  soak_kill_every_s : float;
  soak_conns : int;
}

let load_settings () =
  {
    conns = 16;
    (* Batch shape: deep pipelines and big frames buy qps but stack
       frames behind each other on the shared core, inflating per-frame
       latency; 8-item frames at depth 1 keep both in-flight bytes and
       queueing small enough that the batched p99 beats the sequential
       one while still clearing the 2x throughput bar with margin. *)
    batch = 8;
    batch_conns = 2;
    depth = 1;
    duration_s = env_float "ICOST_LOAD_DURATION_S" 3.;
    soak_duration_s = env_float "ICOST_SOAK_DURATION_S" 3.;
    soak_kill_every_s = 0.25;
    soak_conns = 4;
  }

let run_load (s : load_settings) : (string * float) list =
  let { conns; batch; batch_conns; depth; duration_s; soak_duration_s;
        soak_kill_every_s; soak_conns } =
    s
  in
  let gate = Sys.getenv_opt "ICOST_LOAD_GATE" <> Some "0" in
  let tmp tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "icost-load-%s-%d" tag (Unix.getpid ()))
  in
  let soak_max_lat_ms = env_float "ICOST_SOAK_MAX_LAT_MS" 5000. in
  let socket1 = tmp "one.sock" and socket2 = tmp "two.sock" in
  let socket3 = tmp "soak.sock" in
  List.iter
    (fun s -> if Sys.file_exists s then Sys.remove s)
    [ socket1; socket2; socket3 ];
  (* two workloads that hash to different shards under shards = 2, so
     the sharded run actually exercises both processes *)
  let target w =
    { Protocol.default_target with Protocol.workload = w; warmup = 2000;
      measure = 800 }
  in
  let targets = [| target "gcc"; target "gzip" |] in
  assert (
    Router.shard_of_key ~shards:2 (Router.route_key targets.(0))
    <> Router.shard_of_key ~shards:2 (Router.route_key targets.(1)));
  (* The timed phases use the compact [icost] query (~200 B replies):
     the gate isolates the per-request overhead that pipelined batching
     amortizes — syscalls, scheduling, framing — rather than raw reply
     byte-pumping, which no protocol shape can amortize.  Correctness on
     the heavyweight queries is covered by the bit-identity prime below,
     which runs full breakdowns on every engine. *)
  let op_of i =
    Protocol.Icost { target = targets.(i mod 2); sets = [ "dl1"; "dl1,win" ] }
  in
  let req ?(id = 1) op = { Protocol.req_id = id; deadline_ms = None; op } in
  let pid1 =
    fork_daemon (fun () ->
        ignore
          (Server.run
             { Server.default_opts with socket = socket1; workers = 2;
               handle_signals = true }))
  in
  let pid2 =
    fork_daemon (fun () ->
        ignore
          (Router.run
             { Router.default_opts with socket = socket2; shards = 2;
               shard = { Server.default_opts with workers = 2 } }))
  in
  (* the soak fleet gets an unlimited storm budget: a kill every 250 ms
     is exactly the restart storm the breaker exists to refuse, and the
     point here is to measure respawn, not to trip it *)
  let pid3 =
    fork_daemon (fun () ->
        ignore
          (Router.run
             { Router.default_opts with socket = socket3; shards = 2;
               shard = { Server.default_opts with workers = 2 };
               supervise =
                 { Router.default_opts.supervise with
                   Supervise.storm_budget = max_int } }))
  in
  Printf.printf
    "\nclosed-loop load (%g s per phase): 1-shard one-at-a-time (%d conns) \
     vs 2-shard pipelined batches (%d conns x depth %d x %d items):\n%!"
    duration_s conns batch_conns depth batch;
  (* prime both servers and check every engine answers bit-identically
     through the router before trusting its throughput *)
  let identical = ref true in
  Client.with_client ~retry_for:30.0 ~socket:socket1 @@ fun c1 ->
  Client.with_client ~retry_for:30.0 ~socket:socket2 @@ fun c2 ->
  List.iter
    (fun engine ->
      Array.iter
        (fun tg ->
          let op =
            Protocol.Breakdown
              { target = { tg with Protocol.engine }; focus = "dl1" }
          in
          let norm (r : Protocol.reply) =
            Protocol.encode_reply { r with Protocol.rep_id = 0 }
          in
          let r1 = Client.call c1 (req op) and r2 = Client.call c2 (req op) in
          (match r1.Protocol.body with
           | Ok _ -> ()
           | Error (_, m) -> failwith ("load prime: " ^ m));
          if norm r1 <> norm r2 then begin
            identical := false;
            Printf.printf "  MISMATCH: %s/%s differs between 1- and 2-shard\n"
              tg.Protocol.workload engine
          end)
        targets)
    [ "graph"; "multisim"; "profiler" ];
  Printf.printf "  replies bit-identical across topologies: %s\n%!"
    (if !identical then "yes" else "NO");
  (* The load phases run at the wire level — pre-encoded request lines,
     opaque reply lines with a cheap error sniff — so the (single-domain)
     generator measures the servers, not its own JSON codec.  Replies
     were already proven bit-identical on the primed path above. *)
  (* Each connection is pinned to one request line (fixed id included),
     and the analyses are deterministic, so every reply on a connection
     must be byte-for-byte the same.  The first reply is sniffed for an
     "error" object (one scan suffices: envelope errors and per-item
     batch failures both carry one) and then becomes the expectation;
     later replies are checked with [String.equal] — a memcmp, far
     cheaper than scanning, and a stronger check: any divergence fails
     the run, not just divergence that looks like an error. *)
  let reap_verified ~items ~what expected i c =
    let line = Client.recv_line c in
    let slot : string option Atomic.t = expected.(i mod Array.length expected) in
    match Atomic.get slot with
    | Some exp ->
      if String.equal line exp then items
      else failwith (Printf.sprintf "load (%s): reply diverged: %s" what line)
    | None ->
      if Protocol.has_substring line "\"error\"" then
        failwith (Printf.sprintf "load (%s): error reply: %s" what line)
      else begin
        (* a benign race: all writers of one slot store the same bytes *)
        Atomic.set slot (Some line);
        items
      end
  in
  (* phase 1: single shard, one request per round trip; connections
     alternate the two workloads *)
  let n1, samples1, elapsed1 =
    let line_of i = Protocol.encode_request (req (op_of i)) in
    let lines = [| line_of 0; line_of 1 |] in
    let expected = [| Atomic.make None; Atomic.make None |] in
    closed_loop ~conns ~depth:1 ~duration_s
      ~connect:(fun () -> Client.connect ~retry_for:10.0 ~socket:socket1 ())
      ~send:(fun i c -> Client.send_line c lines.(i mod 2))
      ~reap:(reap_verified ~items:1 ~what:"single" expected)
  in
  (* phase 2: two shards, pipelined batch frames.  Each connection is
     pinned to one workload — the affinity pattern the router's verbatim
     batch relay rewards, and the natural one, since every session of a
     workload lives on the same shard *)
  let n2, samples2, elapsed2 =
    let line_of i =
      Protocol.encode_request
        (req (Protocol.Batch { ops = List.init batch (fun _ -> op_of i) }))
    in
    let lines = [| line_of 0; line_of 1 |] in
    let expected = [| Atomic.make None; Atomic.make None |] in
    closed_loop ~conns:batch_conns ~depth ~duration_s
      ~connect:(fun () -> Client.connect ~retry_for:10.0 ~socket:socket2 ())
      ~send:(fun i c -> Client.send_line c lines.(i mod 2))
      ~reap:(reap_verified ~items:batch ~what:"batch" expected)
  in
  shutdown_daemon ~socket:socket1 pid1;
  shutdown_daemon ~socket:socket2 pid2;
  (* phase 3: chaos soak.  A killer thread SIGKILLs a random live shard
     of the third fleet every ~[soak_kill_every_s] while closed-loop
     sessions (client retries on) hammer both shards with the compact
     query.  The supervision layer must absorb every kill: parked
     requests re-deliver to the respawned shard, so the clients see zero
     failures, every reply byte-identical to the pre-kill expectation,
     and the worst-case latency stays bounded by detect+backoff+respawn
     rather than a timeout. *)
  Printf.printf
    "  chaos soak (%g s, kill -9 a random shard every %g s, %d conns):\n%!"
    soak_duration_s soak_kill_every_s soak_conns;
  let soak_expected = [| Atomic.make None; Atomic.make None |] in
  Client.with_client ~retry_for:30.0 ~socket:socket3 (fun c ->
      Array.iteri
        (fun idx slot ->
          let r = Client.call c (req ~id:(100 + idx) (op_of idx)) in
          match r.Protocol.body with
          | Ok _ ->
            Atomic.set slot
              (Some
                 (Protocol.encode_reply { r with Protocol.rep_id = 0 }))
          | Error (_, m) -> failwith ("soak prime: " ^ m))
        soak_expected);
  let kills = Atomic.make 0 in
  let stop_killer = Atomic.make false in
  let killer =
    Thread.create
      (fun () ->
        (* deterministic victim choice; Unix.kill on a pid that just
           died between the /proc walk and the signal is a no-op race,
           not an error *)
        let lcg = ref 0x2545f491 in
        while not (Atomic.get stop_killer) do
          ignore (Unix.select [] [] [] soak_kill_every_s);
          if not (Atomic.get stop_killer) then begin
            match shard_pids_of pid3 with
            | [] -> ()
            | pids ->
              lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
              let victim = List.nth pids (!lcg mod List.length pids) in
              (try
                 Unix.kill victim Sys.sigkill;
                 Atomic.incr kills
               with Unix.Unix_error _ -> ())
          end
        done)
      ()
  in
  let mismatches = Atomic.make 0 in
  let soak_results = Array.make soak_conns (0, 0, [], 0.) in
  let soak_threads =
    List.init soak_conns (fun i ->
        Thread.create
          (fun () ->
            let opts =
              { Client.retries = 10; budget_ms = 20_000;
                base_backoff_ms = 5.; max_backoff_ms = 100. }
            in
            let s =
              Client.connect_session ~opts ~retry_for:10.0 ~socket:socket3 ()
            in
            Fun.protect ~finally:(fun () -> Client.close_session s)
            @@ fun () ->
            let t0 = Unix.gettimeofday () in
            let t_end = t0 +. soak_duration_s in
            let ok = ref 0 and failed = ref 0 and samples = ref [] in
            let flip = ref (i mod 2) in
            while Unix.gettimeofday () < t_end do
              let idx = !flip in
              flip := 1 - !flip;
              let sent = Unix.gettimeofday () in
              (match Client.call_with_retry s (req ~id:(100 + idx) (op_of idx)) with
               | { Protocol.body = Ok _; _ } as r ->
                 let norm =
                   Protocol.encode_reply { r with Protocol.rep_id = 0 }
                 in
                 (match Atomic.get soak_expected.(idx) with
                  | Some exp when String.equal exp norm -> incr ok
                  | Some _ ->
                    Atomic.incr mismatches;
                    incr ok
                  | None -> incr ok)
               | { Protocol.body = Error _; _ } -> incr failed
               | exception _ -> incr failed);
              samples := ((Unix.gettimeofday () -. sent) *. 1e3, 1) :: !samples
            done;
            soak_results.(i) <- (!ok, !failed, !samples, Unix.gettimeofday () -. t0))
          ())
  in
  List.iter Thread.join soak_threads;
  Atomic.set stop_killer true;
  Thread.join killer;
  let soak_ok, soak_failed, soak_samples, soak_elapsed =
    Array.fold_left
      (fun (n, f, s, el) (n', f', s', el') ->
        (n + n', f + f', s' @ s, Float.max el el'))
      (0, 0, [], 0.) soak_results
  in
  let soak_respawns, soak_failovers =
    Client.with_client ~retry_for:10.0 ~socket:socket3 (fun c ->
        match (Client.call c (req ~id:2 Protocol.Status)).Protocol.body with
        | Ok (Protocol.R_status st) ->
          (st.Protocol.respawns, st.Protocol.failovers)
        | _ -> (0, 0))
  in
  shutdown_daemon ~socket:socket3 pid3;
  let qps1 = Float.of_int n1 /. elapsed1 in
  let qps2 = Float.of_int n2 /. elapsed2 in
  let p50_1 = percentile samples1 0.5 and p99_1 = percentile samples1 0.99 in
  let p50_2 = percentile samples2 0.5 and p99_2 = percentile samples2 0.99 in
  Printf.printf
    "  1shard-seq    %8.0f q/s  p50 %7.3f ms  p99 %7.3f ms  (%d requests)\n"
    qps1 p50_1 p99_1 n1;
  Printf.printf
    "  2shard-batch  %8.0f q/s  p50 %7.3f ms  p99 %7.3f ms  (%d requests, \
     per-frame latency)\n"
    qps2 p50_2 p99_2 n2;
  let soak_qps = Float.of_int (soak_ok + soak_failed) /. soak_elapsed in
  let soak_p50 = percentile soak_samples 0.5 in
  let soak_p99 = percentile soak_samples 0.99 in
  let soak_max =
    List.fold_left (fun m (lat, _) -> Float.max m lat) 0. soak_samples
  in
  Printf.printf
    "  soak          %8.0f q/s  p50 %7.3f ms  p99 %7.3f ms  max %8.1f ms\n"
    soak_qps soak_p50 soak_p99 soak_max;
  Printf.printf
    "  soak          %d kill(s), %d respawn(s), %d failover(s), %d request(s), \
     %d failed, %d diverged\n"
    (Atomic.get kills) soak_respawns soak_failovers (soak_ok + soak_failed)
    soak_failed (Atomic.get mismatches);
  let speedup = qps2 /. qps1 in
  (* the waiver covers the timing bars only: a reply that differs between
     topologies is a correctness failure on any runner *)
  let pass = !identical && ((not gate) || (speedup >= 2. && p99_2 <= p99_1)) in
  Printf.printf
    "  load gate (bit-identical, >= 2x qps, p99 no worse): %.2fx  %s\n"
    speedup
    (if not pass then "FAIL"
     else if gate then "PASS"
     else "PASS (bit-identical; qps and p99 bars waived by ICOST_LOAD_GATE=0)");
  let soak_pass =
    soak_failed = 0
    && Atomic.get mismatches = 0
    && Atomic.get kills >= 1
    && soak_respawns >= 2
    && soak_max <= soak_max_lat_ms
  in
  Printf.printf
    "  soak gate (zero failures, bit-identical, >= 1 kill, >= 2 respawns, \
     max <= %g ms): %s\n"
    soak_max_lat_ms
    (if soak_pass then "PASS" else "FAIL");
  if not (pass && soak_pass) then exit 1;
  [
    ("load/1shard-seq-qps", qps1);
    ("load/1shard-seq-p50-ms", p50_1);
    ("load/1shard-seq-p99-ms", p99_1);
    ("load/2shard-batch-qps", qps2);
    ("load/2shard-batch-p50-ms", p50_2);
    ("load/2shard-batch-p99-ms", p99_2);
    (* soak rows are printed but never judged by [-- compare] (the
       absolute gate above is the contract): kill counts and chaos tail
       latencies are not comparable run to run *)
    ("soak/qps", soak_qps);
    ("soak/p50-ms", soak_p50);
    ("soak/p99-ms", soak_p99);
    ("soak/max-lat-ms", soak_max);
    ("soak/kills", Float.of_int (Atomic.get kills));
    ("soak/respawns", Float.of_int soak_respawns);
    ("soak/failovers", Float.of_int soak_failovers);
    ("soak/failed", Float.of_int soak_failed);
  ]

(* --- machine-readable records --------------------------------------- *)

module Json = Icost_service.Json

(* Objects at the top two levels one member per line, deeper values on one
   line, so a refreshed record diffs row by row. *)
let rec layout depth = function
  | Json.Obj fields when depth < 2 && fields <> [] ->
    let pad = String.make ((2 * depth) + 2) ' ' in
    "{\n"
    ^ String.concat ",\n"
        (List.map
           (fun (k, v) -> pad ^ Json.encode (Json.Str k) ^ ": " ^ layout (depth + 1) v)
           fields)
    ^ "\n" ^ String.make (2 * depth) ' ' ^ "}"
  | v -> Json.encode v

(* Every BENCH_*.json record has one shape: an optional schema, the
   command that wrote it, the unit, optional settings, the run manifest
   when [workloads] is given (so two records are comparable across
   machines and CI runs), and the rows under "results" — the only member
   {!read_json} and [-- compare] read.  A non-finite row is written as
   null, which [-- compare] then reports as lost. *)
let write_json ?schema ?settings ?workloads ~mode ~unit file
    (rows : (string * float) list) =
  let manifest workloads =
    Json.parse
      (Icost_report.Telemetry_export.manifest_json
         (Icost_report.Telemetry_export.manifest
            ~config_digest:(Icost_report.Telemetry_export.digest Config.default)
            ~seed:Icost_profiler.Sampler.default_opts.seed ~workloads ()))
  in
  let some k f = Option.map (fun v -> (k, f v)) in
  let row (k, v) = (k, if Float.is_finite v then Json.Float v else Json.Null) in
  let doc =
    Json.Obj
      (List.filter_map Fun.id
         [
           some "schema" (fun s -> Json.Str s) schema;
           Some
             ("generated-by", Json.Str ("dune exec bench/main.exe -- " ^ mode ^ " --json"));
           Some ("unit", Json.Str unit);
           some "settings" Fun.id settings;
           some "manifest" manifest workloads;
           Some ("results", Json.Obj (List.map row rows));
         ])
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (layout 0 doc ^ "\n"));
  Printf.printf "wrote %s\n" file

(* The rows of a BENCH_*.json record: the numbers under "results"; other
   members (settings, manifest, hand-added notes) never reach the
   comparison. *)
let read_json file : (string * float) list =
  let doc = Json.parse (In_channel.with_open_bin file In_channel.input_all) in
  match Json.member "results" doc with
  | Some (Json.Obj rows) ->
    List.filter_map
      (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.get_float v))
      rows
  | _ -> failwith (file ^ ": no \"results\" object")

(* [-- compare DIR]: judge the change against BASE from the records that
   bench/check_regression.sh leaves in DIR/<phase>/{base,change}-<i>.json;
   run [i] of both sides form pair [i], timed back to back.  Each row gets
   icost_bench's verdict ({!Icost_bench_lib.Compare.judge}) at a 25%
   bound: rows named [...-qps] are throughputs (higher is better), the
   rest times.  The judge sees each pair divided by its geometric mean,
   [sqrt (b /. c)] for BASE and [sqrt (c /. b)] for the change, so what
   the host did to both runs of a pair cancels: BASE's spread is then the
   pairs' own rather than the drift between them (a whole phase swings
   +-30% over minutes on a shared 2-core box), and the delta judged is
   the median pair's.  soak/ rows are printed but never judged: a kill
   storm's cost is not comparable run to run, and the soak's absolute
   gate is its contract.  Returns 1 on a regressed row or a row BASE
   measured and no change run of the same pair did; unresolved rows are
   listed and do not fail. *)
let run_compare dir =
  let module C = Icost_bench_lib.Compare in
  let module Pct = Icost_bench_lib.Pct in
  let runs phase side =
    let pdir = Filename.concat dir phase in
    Sys.readdir pdir |> Array.to_list
    |> List.filter_map (fun f ->
           match Scanf.sscanf_opt f "%[a-z]-%d.json%!" (fun s i -> (s, i)) with
           | Some (s, i) when s = side -> Some (i, read_json (Filename.concat pdir f))
           | _ -> None)
    |> List.sort compare
  in
  let phases =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun p -> Sys.is_directory (Filename.concat dir p))
    |> List.sort compare
  in
  let bad = ref false and unresolved = ref [] in
  Printf.printf "%-36s %12s %12s %8s  %s\n" "row" "base" "change" "delta"
    "verdict";
  List.iter
    (fun phase ->
      let base = runs phase "base" and change = runs phase "change" in
      let names =
        List.sort_uniq compare
          (List.concat_map (fun (_, rows) -> List.map fst rows) (base @ change))
      in
      List.iter
        (fun name ->
          let values runs =
            List.filter_map
              (fun (i, rows) -> Option.map (fun v -> (i, v)) (List.assoc_opt name rows))
              runs
          in
          let b = values base and c = values change in
          let parent =
            Array.of_list
              (List.filter_map
                 (fun (i, vb) -> Option.map (fun vc -> sqrt (vb /. vc)) (List.assoc_opt i c))
                 b)
          in
          let change = Array.map (fun x -> 1. /. x) parent in
          let verdict =
            if b = [] then "new"
            else if Array.length parent = 0 then (bad := true; "LOST")
            else if String.starts_with ~prefix:"soak/" name then "not judged"
            else begin
              let better_lower = not (String.ends_with ~suffix:"-qps" name) in
              let v = C.judge { C.better_lower; bound = 0.25 } ~parent ~change in
              if v = C.Regressed then bad := true;
              if v = C.Unresolved then unresolved := name :: !unresolved;
              C.verdict_name v
            end
          in
          let median xs =
            if xs = [] then Float.nan else Pct.median (Array.of_list (List.map snd xs))
          in
          let delta =
            if Array.length parent = 0 then Float.nan
            else (Pct.median change /. Pct.median parent -. 1.) *. 100.
          in
          Printf.printf "%-36s %12.5g %12.5g %8s  %s (%d vs %d runs)\n" name
            (median b) (median c)
            (if Float.is_finite delta then Printf.sprintf "%+.1f%%" delta else "-")
            verdict (List.length b) (List.length c))
        names)
    phases;
  if !unresolved <> [] then
    Printf.printf "unresolved (the pairs' spread exceeds the bound; not failing): %s\n"
      (String.concat ", " (List.rev !unresolved));
  if !bad then 1 else 0

(* ------------------------------------------------------------------ *)
(* Conformance sweep timing                                            *)
(* ------------------------------------------------------------------ *)

(* How long one full law-table sweep takes per case class: the number CI
   budgets [icost check --budget-s] against.  One kernel and one
   generated case, single measurement each (a sweep re-simulates the
   case tens of times already, so best-of-batches would be minutes). *)
let run_check () : (string * float) list =
  let time_case (case : Icost_check.Case.t) =
    let t0 = Unix.gettimeofday () in
    let prepared = Icost_check.Case.prepare case in
    let ctx =
      Icost_check.Laws.make_ctx
        ~prof_opts:(Icost_check.Case.prof_opts case)
        (Icost_check.Case.config case) prepared
    in
    let results = Icost_check.Laws.run_all ctx in
    let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    (ms, List.length (Icost_check.Laws.violations results))
  in
  Printf.printf "\nconformance sweep (full law table per case):\n";
  List.map
    (fun (label, case) ->
      let ms, failed = time_case case in
      Printf.printf "  check/%-28s %10.1f ms/sweep%s\n" label ms
        (if failed = 0 then "" else Printf.sprintf "  (%d VIOLATIONS)" failed);
      (Printf.sprintf "check/%s" label, ms))
    [
      ( "laws-gcc-4k",
        { Icost_check.Case.target = Icost_check.Case.Bench "gcc";
          variant = "base"; warmup = 20_000; measure = 4_000;
          sample_seed = 42 } );
      ( "laws-gen-mixed-4k",
        { Icost_check.Case.target =
            Icost_check.Case.Generated (Icost_check.Gen.Mixed, 42);
          variant = "base"; warmup = 20_000; measure = 4_000;
          sample_seed = 42 } );
    ]

(* ------------------------------------------------------------------ *)
(* parametric sensitivity sweep: sequential vs pool-parallel           *)
(* ------------------------------------------------------------------ *)

(* One prepared gcc execution, a ~21-distinct-point grid over the window
   and memory-latency axes, priced once per point.  The same sweep is
   timed at 1 pool job and at 4; grid evaluation is embarrassingly
   parallel (independent baseline re-simulations), so with enough cores
   the 4-job run must be at least 2x the sequential one — that absolute
   gate is enforced here (skipped with a notice when the machine has
   fewer than 4 cores), while the row times are judged against a BASE
   build by check_regression.sh like every other timing row. *)
let sweep_bench_specs = [ "window=16..512"; "mem_lat=10..160:10" ]

let sweep_bench_settings =
  { Runner.warmup = 20_000; measure = 4_000; benches = [ "gcc" ] }

let run_sweep_bench () : (string * float) list =
  let module Sweep = Icost_sensitivity.Sweep in
  let module Sparam = Icost_sensitivity.Param in
  let prepared = Runner.prepare sweep_bench_settings (Workload.find_exn "gcc") in
  let axes =
    match Sparam.parse_axes sweep_bench_specs with
    | Ok a -> a
    | Error msg -> failwith msg
  in
  let sweep () =
    Sweep.run ~engine:Sweep.Sim ~cfg:Config.default ~prepared ~axes ()
  in
  (* one sweep at [jobs] pool jobs for the bit-identity check, then its
     best time; the pool is resized outside the timed calls *)
  let run jobs row =
    Pool.set_jobs jobs;
    let r = sweep () in
    (r, List.assoc row (time_min [ (row, 0., fun () -> ignore (sweep ())) ]))
  in
  let jobs0 = Pool.jobs () in
  Fun.protect ~finally:(fun () -> Pool.set_jobs jobs0) @@ fun () ->
  let r_seq, seq_ms = run 1 "sweep/gcc-seq-ms" in
  let r_par, par_ms = run 4 "sweep/gcc-par4-ms" in
  (* parallel evaluation must not change a single bit of the answer *)
  if
    List.exists2
      (fun (a : Sweep.curve) (b : Sweep.curve) ->
        not
          (List.for_all2
             (fun (pa : Sweep.point) (pb : Sweep.point) ->
               match (pa.Sweep.pt_outcome, pb.Sweep.pt_outcome) with
               | Ok ca, Ok cb ->
                 Int64.equal (Int64.bits_of_float ca) (Int64.bits_of_float cb)
               | _ -> false)
             a.Sweep.cv_points b.Sweep.cv_points))
      r_seq.Sweep.sw_curves r_par.Sweep.sw_curves
  then failwith "sweep: parallel run diverged from sequential";
  let speedup = seq_ms /. par_ms in
  Printf.printf "\nsensitivity sweep (%d distinct points, gcc 4k):\n"
    r_seq.Sweep.sw_points;
  Printf.printf "  sweep/gcc-seq-ms   %10.1f ms\n" seq_ms;
  Printf.printf "  sweep/gcc-par4-ms  %10.1f ms   (%.2fx)\n" par_ms speedup;
  let cores = Stdlib.Domain.recommended_domain_count () in
  if cores < 4 then
    Printf.printf
      "  parallel >= 2x gate: SKIPPED (%d core(s) < 4, nothing to win)\n"
      cores
  else if speedup >= 2.0 then
    Printf.printf "  parallel >= 2x gate: PASS (%.2fx)\n" speedup
  else begin
    Printf.printf "  parallel >= 2x gate: FAIL (%.2fx < 2x)\n" speedup;
    exit 1
  end;
  [ ("sweep/gcc-seq-ms", seq_ms); ("sweep/gcc-par4-ms", par_ms) ]

(* ------------------------------------------------------------------ *)
(* Streaming mode: bounded-memory analysis of a 10M-instruction run    *)
(* ------------------------------------------------------------------ *)

module Stream_core = Icost_stream.Core
module Stream_source = Icost_stream.Source

(* [-- stream]: push 10M instructions of gcc — three orders of magnitude
   past the monolithic window — through the segmented core, and also a
   run one tenth the size.  Two absolute gates make the phase
   self-verifying:

   - bounded memory: the big run's peak heap may be at most twice the
     small run's, even though it analyzes 10x the instructions;
   - exactness: the streamed aggregate over one monolithic-size window
     must be bit-identical to [Graph.eval_subsets] on all 256 subsets
     (the in-process twin of the [stream-matches-monolithic] law).

   It times nothing: icost_bench's stream-gcc workload times the same
   analysis, with medians over passes. *)
let run_stream () =
  let bench = "gcc" and warmup = 20_000 in
  let insns = 10_000_000 in
  let small = insns / 10 in
  let w = Workload.find_exn bench in
  let cfg = Config.default in
  let analyze n =
    Stream_core.analyze cfg
      (Stream_source.of_program cfg (w.Workload.build ()) ~warmup ~max_insns:n)
  in
  (* bit-identity spot check on one monolithic-size window *)
  let p =
    Runner.prepare
      { Runner.warmup; measure = 30_000; benches = [ bench ] }
      w
  in
  let all_subsets = Array.init 256 (fun s -> s) in
  let mono =
    Graph.eval_subsets
      (Build.of_sim cfg p.trace p.evts (Runner.baseline_run cfg p))
      all_subsets
  in
  let streamed =
    Stream_core.analyze cfg (Stream_source.of_arrays p.trace.Icost_isa.Trace.instrs p.evts)
  in
  let identical = streamed.Stream_core.times = mono in
  (* warm the allocator and the domain pool so the small run's peak heap
     is a fair yardstick rather than the GC's opening ramp *)
  ignore (analyze 100_000);
  let r_small = analyze small in
  let r_big = analyze insns in
  let peak_small = Stream_core.peak_mb r_small in
  let peak_big = Stream_core.peak_mb r_big in
  Printf.printf
    "\nstreaming analysis (%s, %d-instruction segments):\n" bench
    r_big.Stream_core.segment_insns;
  List.iter
    (fun (n, (r : Stream_core.result), peak) ->
      Printf.printf "  %8dk instructions  %5d segments  peak %6.1f MB\n"
        (n / 1000) r.Stream_core.segments peak)
    [ (small, r_small, peak_small); (insns, r_big, peak_big) ];
  Printf.printf "  window aggregate bit-identical to monolithic graph: %s\n"
    (if identical then "yes" else "NO");
  let complete =
    r_big.Stream_core.instrs = insns && r_small.Stream_core.instrs = small
  in
  let pass = identical && complete && peak_big <= peak_small *. 2. in
  Printf.printf
    "  stream gate (bit-identical, all instructions analyzed, 10x run <= \
     2x small-run heap): %s\n"
    (if pass then "PASS" else "FAIL");
  if not pass then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* split flags ([--json FILE], [--trace FILE], [--metrics FILE]) from
     experiment ids *)
  let json_file = ref None in
  let trace_file = ref None and metrics_file = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: f :: rest ->
      json_file := Some f;
      parse acc rest
    | "--trace" :: f :: rest ->
      trace_file := Some f;
      parse acc rest
    | "--metrics" :: f :: rest ->
      metrics_file := Some f;
      parse acc rest
    | ("--json" | "--trace" | "--metrics") :: [] ->
      failwith "--json/--trace/--metrics need a file argument"
    | id :: rest -> parse (id :: acc) rest
  in
  let ids = parse [] args in
  (match ids with
   | [ "compare"; dir ] -> exit (run_compare dir)
   | "compare" :: _ -> failwith "usage: -- compare DIR"
   | _ -> ());
  if !trace_file <> None || !metrics_file <> None then
    Icost_util.Telemetry.enable ();
  at_exit (fun () ->
      if !trace_file <> None || !metrics_file <> None then begin
        let m =
          Icost_report.Telemetry_export.manifest
            ~config_digest:(Icost_report.Telemetry_export.digest Config.default)
            ~seed:Icost_profiler.Sampler.default_opts.seed
            ~workloads:Workload.names ()
        in
        Option.iter
          (fun file -> Icost_report.Telemetry_export.write_trace ~file m)
          !trace_file;
        Option.iter
          (fun file -> Icost_report.Telemetry_export.write_metrics ~file m)
          !metrics_file
      end);
  (* [-- load] owns the whole invocation: it forks daemon processes, and
     Unix.fork is forbidden once any other mode has spawned a domain
     (Pool), so it cannot share a run with the other modes. *)
  if List.mem "load" ids then begin
    if List.exists (fun i -> i <> "load") ids then
      failwith "-- load cannot be combined with other bench modes";
    let settings = load_settings () in
    let rows = run_load settings in
    Option.iter
      (fun f ->
        write_json ~schema:"icost.load.v1" ~mode:"load" ~unit:"qps / ms"
          ~workloads:Workload.names
          ~settings:
            (Json.Obj
               [
                 ("conns", Int settings.conns);
                 ("batch", Int settings.batch);
                 ("batch-conns", Int settings.batch_conns);
                 ("depth", Int settings.depth);
                 ("duration-s", Float settings.duration_s);
                 ("soak-duration-s", Float settings.soak_duration_s);
                 ("soak-kill-every-s", Float settings.soak_kill_every_s);
                 ("soak-conns", Int settings.soak_conns);
               ])
          f rows)
      !json_file;
    exit 0
  end;
  (* [-- sweep] also owns its invocation: it overrides the pool job
     count (1 then 4) for the comparison, which would skew any other
     timing sharing the process, and it writes its own JSON record. *)
  if List.mem "sweep" ids then begin
    if List.exists (fun i -> i <> "sweep") ids then
      failwith "-- sweep cannot be combined with other bench modes";
    let rows = run_sweep_bench () in
    Option.iter
      (fun f ->
        write_json ~schema:"icost.sweep-bench.v1" ~mode:"sweep" ~unit:"ms/sweep"
          ~workloads:[ "gcc" ]
          ~settings:
            (Json.Obj
               [
                 ("params", Arr (List.map (fun p -> Json.Str p) sweep_bench_specs));
                 ("warmup", Int sweep_bench_settings.warmup);
                 ("measure", Int sweep_bench_settings.measure);
               ])
          f rows)
      !json_file;
    exit 0
  end;
  (* [-- stream] owns its invocation too: its wall-clock dwarfs the other
     modes (a 10M-instruction analysis). *)
  if List.mem "stream" ids then begin
    if List.exists (fun i -> i <> "stream") ids then
      failwith "-- stream cannot be combined with other bench modes";
    run_stream ();
    exit 0
  end;
  let micro_requested = ids = [] || List.mem "micro" ids in
  let service_requested = List.mem "service" ids in
  let check_requested = List.mem "check" ids in
  let experiment_ids =
    List.filter (fun i -> i <> "micro" && i <> "service" && i <> "check") ids
  in
  if experiment_ids <> [] || ids = [] then run_experiments experiment_ids;
  let rows =
    (if service_requested then run_service () else [])
    @ (if check_requested then run_check () else [])
    @ (if micro_requested then run_micro () else [])
  in
  if rows <> [] then
    Option.iter (fun f -> write_json ~mode:"micro" ~unit:"ms/run" f rows) !json_file