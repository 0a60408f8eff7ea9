(* The benchmark's workloads and metrics.  BENCHMARK.json at the
   repository root lists the same names and units; the smoke test fails
   when the two disagree. *)

let default_seed = 1445
let default_seconds = 20.

let workloads = [ "stream-gcc"; "stream-mcf-seg256"; "breakdown-cold"; "serve-mix" ]

(* Every workload reports every end-to-end metric; what one operation is
   depends on the workload (see README.md). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("throughput_per_s", "1/s");
    ("peak_mb", "MB");
  ]

(* Every traced run prints every per-layer metric; a layer its workload
   never reaches reads 0. *)
let per_layer =
  [
    (* stream-*: host time per million analyzed instructions *)
    ("stream.source_ms_per_minsn", "ms/Minsn");
    ("isa.step_ms_per_minsn", "ms/Minsn");
    ("uarch.annotate_ms_per_minsn", "ms/Minsn");
    ("sim.stream_step_ms_per_minsn", "ms/Minsn");
    ("depgraph.emit_ms_per_minsn", "ms/Minsn");
    ("depgraph.finish_ms_per_minsn", "ms/Minsn");
    ("depgraph.eval_pinned_ms_per_minsn", "ms/Minsn");
    ("stream.carry_fold_ms_per_minsn", "ms/Minsn");
    ("stream.layer_cover_frac", "frac");
    ("sim.cycles", "cycles");
    ("stream.segments", "count");
    ("stream.times_crc", "fnv32");
    ("depgraph.edges_per_kinsn", "edges/kinsn");
    ("uarch.dl1_misses_per_kinsn", "misses/kinsn");
    (* breakdown-cold: median ms per call *)
    ("experiments.prepare_ms", "ms");
    ("sim.run_ms", "ms");
    ("depgraph.of_sim_ms", "ms");
    ("core.focus_graph_ms", "ms");
    ("sim.multisim_focus_ms", "ms");
    ("profiler.profile_ms", "ms");
    ("stream.analyze_5k_ms", "ms");
    (* serve-mix, measured from outside the daemon *)
    ("service.high_p50_ms", "ms");
    ("service.high_p95_ms", "ms");
    ("service.hot_p50_ms", "ms");
    ("service.cold_p50_ms", "ms");
    ("service.cache_hit_frac", "frac");
    ("service.evictions", "count");
    ("service.daemon_cpu_ms_per_req", "ms");
    ("service.backlog_max", "count");
    ("service.gen_late_max_ms", "ms");
    ("service.client_codec_us", "us");
    (* every workload *)
    ("latency_p95_ms", "ms");
    ("trace_overhead_frac", "frac");
  ]

(* Simulated statistics of a seeded input: a change that only speeds up
   the host must leave them identical. *)
let exact =
  [
    "sim.cycles";
    "stream.segments";
    "stream.times_crc";
    "depgraph.edges_per_kinsn";
    "uarch.dl1_misses_per_kinsn";
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer
