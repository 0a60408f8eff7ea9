(* The breakdown-cold workload: the one-shot [icost breakdown] path in
   process (prepare, oracle, Dl1-focused breakdown), every call from
   nothing.  This is where the monolithic twins run (Interp.run,
   Events.annotate, Ooo.run, Build.of_sim, the subset evaluators) and the
   segmented core barely does, so a stream-only change should not move
   it.  One operation is one call. *)

module Prng = Icost_util.Prng
module Config = Icost_uarch.Config
module Category = Icost_core.Category
module Breakdown = Icost_core.Breakdown
module Workload = Icost_workloads.Workload
module Runner = Icost_experiments.Runner

let cfg = Config.default
let engines = Runner.[ Multisim; Fullgraph; Profiler; Streamed ]
let clock = Unix.gettimeofday

(* Calls per second of [--seconds], near what a 2-core x86-64 host does;
   the number of calls is fixed, not the time. *)
let calls_per_second = 15.

let warmup = 20_000
let settings ?(measure = 5_000) kernel = { Runner.warmup; measure; benches = [ kernel ] }

let focus oracle = Breakdown.focus ~oracle ~focus_cat:Category.Dl1

(* What [icost breakdown] does past process start-up. *)
let cold_call ?measure kind kernel =
  let p = Runner.prepare (settings ?measure kernel) (Workload.find_exn kernel) in
  focus (Runner.oracle_of_kind kind cfg p)

(* The same call, split at the public functions of each layer.  The
   baseline simulation the graph and profiler oracles would run inside
   [oracle_of_kind] is run first and handed in, so it gets a span of its
   own; the work done is unchanged. *)
let traced_call sp ~id kind kernel =
  let span name f = Spans.with_span sp ~name ~id f in
  let p =
    span "experiments.prepare" (fun () ->
        Runner.prepare (settings kernel) (Workload.find_exn kernel))
  in
  let via_baseline oracle_name focus_name =
    let baseline = span "sim.run" (fun () -> Runner.baseline_run cfg p) in
    let oracle =
      span oracle_name (fun () -> Runner.oracle_of_kind ~baseline kind cfg p)
    in
    span focus_name (fun () -> focus oracle)
  in
  match kind with
  | Runner.Fullgraph -> via_baseline "depgraph.of_sim" "core.focus_graph"
  | Runner.Profiler -> via_baseline "profiler.profile" "core.focus"
  | Runner.Multisim ->
    (* multisim re-simulates lazily, inside the focus queries *)
    span "sim.multisim_focus" (fun () -> focus (Runner.oracle_of_kind kind cfg p))
  | Runner.Streamed ->
    let oracle = span "stream.analyze_5k" (fun () -> Runner.oracle_of_kind kind cfg p) in
    span "core.focus" (fun () -> focus oracle)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let identical (a : Breakdown.t) (b : Breakdown.t) =
  same_bits a.Breakdown.baseline_cycles b.Breakdown.baseline_cycles
  && List.length a.Breakdown.rows = List.length b.Breakdown.rows
  && List.for_all2
       (fun (x : Breakdown.row) (y : Breakdown.row) ->
         x.Breakdown.kind = y.Breakdown.kind
         && same_bits x.Breakdown.percent y.Breakdown.percent
         && same_bits x.Breakdown.cycles y.Breakdown.cycles)
       a.Breakdown.rows b.Breakdown.rows

(* Calls [(kernel, engine)] in rounds, each round every pair once in a
   fresh seeded order, until [continue_] refuses.  Within a round the
   graph and stream engines' breakdowns of each kernel must be
   bit-identical.  Returns the per-call latencies by pair, the failed
   call count, the kernels whose pair was compared and any mismatches. *)
let rounds ~g ~call ~continue_ =
  let combos =
    Array.of_list
      (List.concat_map (fun k -> List.map (fun e -> (k, e)) engines) Workload.names)
  in
  let lat = Hashtbl.create 64 and failed = ref 0 and calls = ref 0 in
  let compared = Hashtbl.create 16 and mismatched = ref [] in
  while continue_ !calls do
    let order = Array.copy combos in
    Prng.shuffle g order;
    let graph = Hashtbl.create 12 and stream = Hashtbl.create 12 in
    Array.iter
      (fun (kernel, kind) ->
        if continue_ !calls then begin
          let t0 = clock () in
          (match call !calls kind kernel with
           | bd ->
             let dt = clock () -. t0 in
             Hashtbl.replace lat (kernel, kind)
               (dt :: Option.value ~default:[] (Hashtbl.find_opt lat (kernel, kind)));
             (match kind with
              | Runner.Fullgraph -> Hashtbl.replace graph kernel bd
              | Runner.Streamed -> Hashtbl.replace stream kernel bd
              | _ -> ())
           | exception e ->
             incr failed;
             Printf.printf "  FAILED %s/%s: %s\n" kernel (Runner.oracle_kind_name kind)
               (Printexc.to_string e));
          incr calls
        end)
      order;
    Hashtbl.iter
      (fun kernel gb ->
        match Hashtbl.find_opt stream kernel with
        | Some sb ->
          Hashtbl.replace compared kernel ();
          if not (identical gb sb) then mismatched := kernel :: !mismatched
        | None -> ())
      graph
  done;
  (lat, !failed, !calls, compared, !mismatched)

let all_latencies lat =
  Array.of_list (Hashtbl.fold (fun _ l acc -> l @ acc) lat [])

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let run ~seed ~seconds ~quick ~traced ~spans =
  (* set-up: the first calls of a process grow the heap and run lazy
     initialization; one call per engine on a fixed kernel *)
  let setup_s =
    Pct.median
      (Array.init (if quick then 1 else 3) (fun _ ->
           let t0 = clock () in
           List.iter (fun k -> ignore (cold_call k "gcc")) engines;
           clock () -. t0))
  in
  let g = Prng.create seed in
  (* whole rounds, so every (kernel, engine) pair weighs the same *)
  let budget =
    let per_round = List.length engines * List.length Workload.names in
    let n = int_of_float (seconds *. calls_per_second) in
    if n >= per_round then n / per_round * per_round else max 4 n
  in
  let t0 = clock () in
  let lat, failed, calls, compared, mismatched =
    rounds ~g ~call:(fun _ kind kernel -> cold_call kind kernel) ~continue_:(fun n -> n < budget)
  in
  let elapsed = clock () -. t0 in
  let peak_mb = Procfs.peak_rss_mb "self" in
  (* a kernel whose pair fell in different, cut-short rounds is compared
     outside the timed phase *)
  let mismatched =
    List.fold_left
      (fun acc kernel ->
        if Hashtbl.mem compared kernel then acc
        else if identical (cold_call Runner.Fullgraph kernel) (cold_call Runner.Streamed kernel)
        then acc
        else kernel :: acc)
      mismatched Workload.names
  in
  (* each (kernel, engine) pair keeps its median call time over the
     rounds, so a slow spell of the host hits one round of a pair, not
     the median *)
  let pair_medians =
    Array.of_list (Hashtbl.fold (fun _ l acc -> Pct.median (Array.of_list l) :: acc) lat [])
  in
  let all = all_latencies lat in
  let p95 = Pct.percentile all 0.95 *. 1e3 in
  Printf.printf
    "breakdown-cold: %d calls in %.2f s (%d failed); p95 %.3f ms (%s)\n" calls elapsed failed
    p95 (Pct.tail_note (Array.length all));
  Printf.printf "  graph and stream breakdowns bit-identical on every kernel: %b\n"
    (mismatched = []);
  let e2e =
    [
      ("setup_s", setup_s);
      ("latency_p50_ms", Pct.median pair_medians *. 1e3);
      ( "throughput_per_s",
        float_of_int (Array.length pair_medians) /. Array.fold_left ( +. ) 0. pair_medians );
      ("peak_mb", peak_mb);
    ]
  in
  let layers, traced_mismatch =
    if not traced then ([], [])
    else begin
      let budget = if quick then 4 else List.length engines * List.length Workload.names in
      let tlat, _, _, _, tmis =
        rounds ~g
          ~call:(fun id kind kernel ->
            Spans.with_span spans ~name:"breakdown.call" ~id (fun () ->
                traced_call spans ~id kind kernel))
          ~continue_:(fun n -> n < budget)
      in
      (* tracing cost: the traced calls against the untraced mean of the
         same (kernel, engine) pairs *)
      let actual, expected =
        Hashtbl.fold
          (fun key ts (a, e) ->
            match Hashtbl.find_opt lat key with
            | Some us -> (a +. List.fold_left ( +. ) 0. ts, e +. (mean us *. float_of_int (List.length ts)))
            | None -> (a, e))
          tlat (0., 0.)
      in
      let med name =
        match Spans.durations spans name with
        | [||] -> 0.
        | d -> Pct.median d *. 1e3
      in
      ( [
          ("latency_p95_ms", p95);
          ("experiments.prepare_ms", med "experiments.prepare");
          ("sim.run_ms", med "sim.run");
          ("depgraph.of_sim_ms", med "depgraph.of_sim");
          ("core.focus_graph_ms", med "core.focus_graph");
          ("sim.multisim_focus_ms", med "sim.multisim_focus");
          ("profiler.profile_ms", med "profiler.profile");
          ("stream.analyze_5k_ms", med "stream.analyze_5k");
          ("trace_overhead_frac", if expected > 0. then (actual /. expected) -. 1. else 0.);
        ],
        tmis )
    end
  in
  {
    Report.correct = mismatched = [] && traced_mismatch = [];
    attempted = calls;
    failed;
    e2e;
    layers;
  }
