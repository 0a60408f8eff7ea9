(* icost — command-line driver for the interaction-cost library.

   Subcommands:
     list         available workloads
     breakdown    parallelism-aware breakdown for one workload
     icost        costs/icosts of chosen category sets
     graph        dump a dependence graph (text or DOT)
     sweep        d(cycles)/d(param) sensitivity curves, knees, resize ROI
     stream       bounded-memory streaming analysis of arbitrarily long runs
     experiment   regenerate a paper table/figure (or "all")
     check        cross-engine conformance laws on kernels + fuzzed programs
     serve        resident analysis daemon on a Unix socket (icost.rpc.v1)
     query        one request against a running daemon

   Every subcommand accepts --trace FILE (Chrome trace-event JSON),
   --metrics FILE (flat counters/gauges JSON) and --span-tree (human
   span summary); any of them switches the telemetry sink on for the
   run, and both JSON artifacts embed the run manifest.  --jobs N
   overrides the ICOST_JOBS environment variable, which overrides the
   hardware default (see README, "Parallelism"). *)

module Workload = Icost_workloads.Workload
module Config = Icost_uarch.Config
module Category = Icost_core.Category
module Cost = Icost_core.Cost
module Breakdown = Icost_core.Breakdown
module Runner = Icost_experiments.Runner
module Drive = Icost_experiments.Drive
module Graph = Icost_depgraph.Graph
module Telemetry = Icost_util.Telemetry
module Texport = Icost_report.Telemetry_export
module Pool = Icost_util.Pool
module Protocol = Icost_service.Protocol
module Server = Icost_service.Server
module Router = Icost_service.Router
module Endpoint = Icost_service.Endpoint
module Snapshot = Icost_service.Snapshot
module Client = Icost_service.Client
module Harness = Icost_check.Harness
module Laws = Icost_check.Laws
module Sparam = Icost_sensitivity.Param
module Sweep = Icost_sensitivity.Sweep
module Stream = Icost_stream.Core
module Stream_source = Icost_stream.Source
module Json = Icost_service.Json
open Cmdliner

let version = "1.0.0"

(* --- options shared by every subcommand --- *)

type common = {
  trace : string option;
  metrics : string option;
  tree : bool;
  jobs : int option;
}

let common_term =
  let trace_arg =
    let doc =
      "Write a Chrome trace-event JSON of the run to $(docv) (open in \
       chrome://tracing or Perfetto).  Enables the telemetry sink."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_arg =
    let doc =
      "Write flat metrics JSON (counters, gauges, run manifest) to $(docv).  \
       Enables the telemetry sink."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let tree_arg =
    let doc = "Print the aggregated span tree after the command." in
    Arg.(value & flag & info [ "span-tree" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Number of concurrent analysis jobs.  Overrides the ICOST_JOBS \
       environment variable; without either, the hardware's recommended \
       domain count is used."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  Term.(
    const (fun trace metrics tree jobs -> { trace; metrics; tree; jobs })
    $ trace_arg $ metrics_arg $ tree_arg $ jobs_arg)

(** Run [f] with the telemetry sink enabled when any telemetry output was
    requested; write the requested artifacts afterwards (also on
    exceptions, so a failing run still leaves its trace behind).
    [service_stats] (the [serve] subcommand) adds server uptime/request
    counts to the exported manifest. *)
let with_telemetry ?(service_stats = fun () -> None) (t : common) ~cfg ~benches
    (f : unit -> 'a) : 'a =
  Option.iter Pool.set_jobs t.jobs;
  let active = t.trace <> None || t.metrics <> None || t.tree in
  if active then Telemetry.enable ();
  let finish () =
    if active then begin
      let m =
        Texport.manifest ~version ~config_digest:(Texport.digest cfg)
          ~seed:Icost_profiler.Sampler.default_opts.seed
          ?service:(service_stats ()) ~workloads:benches ()
      in
      Option.iter
        (fun file ->
          Texport.write_trace ~file m;
          Printf.eprintf "wrote trace %s\n" file)
        t.trace;
      Option.iter
        (fun file ->
          Texport.write_metrics ~file m;
          Printf.eprintf "wrote metrics %s\n" file)
        t.metrics;
      if t.tree then prerr_string (Texport.span_tree ())
    end
  in
  Fun.protect ~finally:finish f

(* --- common options --- *)

let bench_arg =
  let doc = "Workload to analyze (see `icost list`)." in
  Arg.(value & opt string "gcc" & info [ "b"; "bench" ] ~docv:"NAME" ~doc)

let benches_arg =
  let doc = "Comma-separated workloads (default: the full suite)." in
  Arg.(value & opt (some string) None & info [ "benches" ] ~docv:"NAMES" ~doc)

let measure_arg =
  let doc = "Instructions to measure after warm-up." in
  Arg.(value & opt int Runner.default_settings.measure & info [ "n"; "measure" ] ~doc)

let warmup_arg =
  let doc = "Warm-up instructions (caches and predictors train, not timed)." in
  Arg.(value & opt int Runner.default_settings.warmup & info [ "warmup" ] ~doc)

let variant_arg =
  let doc = "Machine variant: base, dl1 (4-cycle L1), wakeup (2-cycle \
             issue-wakeup) or bmisp (15-cycle mispredict loop)." in
  Arg.(value & opt (enum [ ("base", `Base); ("dl1", `Dl1); ("wakeup", `Wakeup); ("bmisp", `Bmisp) ]) `Base
       & info [ "variant" ] ~doc)

let oracle_arg =
  let doc = "Cost oracle: graph, multisim, profiler or stream." in
  Arg.(value
       & opt (enum [ ("graph", Runner.Fullgraph); ("multisim", Runner.Multisim);
                     ("profiler", Runner.Profiler); ("stream", Runner.Streamed) ])
           Runner.Fullgraph
       & info [ "oracle" ] ~doc)

let seed_arg =
  let doc =
    "Sampling seed for the profiler oracle (analysis is otherwise \
     deterministic).  The same seed always yields bit-identical results."
  in
  Arg.(value
       & opt int Icost_profiler.Sampler.default_opts.seed
       & info [ "seed" ] ~doc)

let cache_dir_arg =
  let doc =
    "Persistent snapshot store (icost.graphcache.v2): reuse prepared \
     workloads, dependence graphs and memoized subset costs across runs \
     and 'icost serve' restarts.  Files in an older format are rejected \
     and rebuilt.  The directory is created on first use."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let config_of_variant = function
  | `Base -> Config.default
  | `Dl1 -> Config.loop_dl1
  | `Wakeup -> Config.loop_wakeup
  | `Bmisp -> Config.loop_bmisp

let variant_name = function
  | `Base -> "base"
  | `Dl1 -> "dl1"
  | `Wakeup -> "wakeup"
  | `Bmisp -> "bmisp"

let settings ~warmup ~measure ~benches =
  let benches =
    match benches with
    | None -> Workload.names
    | Some s -> String.split_on_char ',' s |> List.map String.trim
  in
  { Runner.warmup; measure; benches }

(* With --cache-dir, a one-shot analysis addresses the same snapshot
   store a daemon would for the equivalent request: the first run pays
   the full prepare/baseline/build pipeline and persists it, later runs
   (or a restarted 'icost serve') warm-start from disk.  Without it,
   [establish] just builds fresh. *)
let establish_session ~cache_dir ~bench ~variant ~oracle ~warmup ~measure ~seed =
  let cfg = config_of_variant variant in
  let tg =
    {
      Protocol.workload = bench;
      variant = variant_name variant;
      engine = Runner.oracle_kind_name oracle;
      warmup;
      measure;
      seed;
    }
  in
  let key = Server.session_key tg cfg oracle in
  let est =
    Snapshot.establish ?cache_dir ~key ~kind:oracle ~cfg ~seed
      ~prepare:(fun () ->
        Runner.prepare
          (settings ~warmup ~measure ~benches:(Some bench))
          (Workload.find_exn bench))
      ()
  in
  let persist () =
    Option.iter (fun dir -> Snapshot.persist ~dir ~key est) cache_dir
  in
  (est, persist)

(* --- list --- *)

let list_cmd =
  let run telem =
    with_telemetry telem ~cfg:Config.default ~benches:[] (fun () ->
        List.iter
          (fun (w : Workload.t) ->
            Printf.printf "%-8s  %s\n" w.name w.description)
          Workload.all)
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads") Term.(const run $ common_term)

(* --- breakdown --- *)

let breakdown_cmd =
  let focus_arg =
    let doc = "Focus category for the interaction rows." in
    Arg.(value & opt string "dl1" & info [ "focus" ] ~doc)
  in
  let run bench variant oracle focus warmup measure seed cache_dir telem =
    let cfg = config_of_variant variant in
    with_telemetry telem ~cfg ~benches:[ bench ] @@ fun () ->
    let focus_cat =
      match Category.of_name focus with
      | Some c -> c
      | None -> failwith (Printf.sprintf "unknown category %S" focus)
    in
    let est, persist =
      establish_session ~cache_dir ~bench ~variant ~oracle ~warmup ~measure
        ~seed
    in
    let bd = Breakdown.focus ~oracle:est.Snapshot.est_oracle ~focus_cat in
    persist ();
    Printf.printf "%s on %s machine (%s oracle), %.0f cycles baseline:\n" bench
      (match variant with `Base -> "base" | `Dl1 -> "4-cycle-dl1"
       | `Wakeup -> "2-cycle-wakeup" | `Bmisp -> "15-cycle-bmisp")
      (Runner.oracle_kind_name oracle) bd.baseline_cycles;
    List.iter
      (fun (row : Breakdown.row) ->
        Printf.printf "  %-12s %7.1f%%\n" (Breakdown.row_label row) row.percent)
      bd.rows;
    Printf.printf "  %-12s %7.1f%%\n" "Total" (Breakdown.total bd)
  in
  Cmd.v
    (Cmd.info "breakdown" ~doc:"Parallelism-aware breakdown for one workload")
    Term.(const run $ bench_arg $ variant_arg $ oracle_arg $ focus_arg $ warmup_arg
          $ measure_arg $ seed_arg $ cache_dir_arg $ common_term)

(* --- icost --- *)

let icost_cmd =
  let sets_arg =
    let doc = "Category set, e.g. 'dl1,win'. Repeatable; costs and the \
               interaction cost of each set are reported." in
    Arg.(value & opt_all string [ "dl1,win" ] & info [ "s"; "set" ] ~docv:"CATS" ~doc)
  in
  let run bench variant oracle sets warmup measure seed cache_dir telem =
    let cfg = config_of_variant variant in
    with_telemetry telem ~cfg ~benches:[ bench ] @@ fun () ->
    let est, persist =
      establish_session ~cache_dir ~bench ~variant ~oracle ~warmup ~measure
        ~seed
    in
    let o = est.Snapshot.est_oracle in
    let base = Cost.query o Category.Set.empty in
    Printf.printf "%s: baseline %.0f cycles\n" bench base;
    List.iter
      (fun spec ->
        let cats =
          String.split_on_char ',' spec
          |> List.map (fun n ->
                 match Category.of_name (String.trim n) with
                 | Some c -> c
                 | None -> failwith (Printf.sprintf "unknown category %S" n))
        in
        let set = Category.Set.of_list cats in
        let cost = Cost.cost o set in
        let ic = Cost.icost_ie o set in
        Printf.printf "  %-24s cost %8.0f cycles (%5.1f%%)  icost %+8.0f (%s)\n"
          (Category.Set.name set) cost
          (100. *. cost /. base)
          ic
          (Cost.interaction_name (Cost.classify ic)))
      sets;
    persist ()
  in
  Cmd.v
    (Cmd.info "icost" ~doc:"Costs and interaction costs of category sets")
    Term.(const run $ bench_arg $ variant_arg $ oracle_arg $ sets_arg $ warmup_arg
          $ measure_arg $ seed_arg $ cache_dir_arg $ common_term)

(* --- graph --- *)

let graph_cmd =
  let dot_arg =
    let doc = "Write Graphviz DOT to this file." in
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)
  in
  let instrs_arg =
    let doc = "Number of instructions to include." in
    Arg.(value & opt int 24 & info [ "instrs" ] ~doc)
  in
  let run bench variant dot instrs warmup telem =
    let cfg = config_of_variant variant in
    with_telemetry telem ~cfg ~benches:[ bench ] @@ fun () ->
    let s = settings ~warmup ~measure:instrs ~benches:(Some bench) in
    let p = Runner.prepare s (Workload.find_exn bench) in
    let g = Runner.graph_of cfg p in
    Printf.printf "%s: %d instructions, %d nodes, %d edges, CP %d cycles\n\n" bench
      instrs (Graph.num_nodes g) (Graph.num_edges g) (Graph.critical_length g);
    Format.printf "%a@." (fun ppf () -> Graph.pp_small ppf g) ();
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Graph.to_dot g);
        close_out oc;
        Printf.printf "wrote %s\n" path)
      dot
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Dump a dependence-graph instance")
    Term.(const run $ bench_arg $ variant_arg $ dot_arg $ instrs_arg $ warmup_arg
          $ common_term)

(* --- advise --- *)

let advise_cmd =
  let run bench variant oracle warmup measure telem =
    let cfg = config_of_variant variant in
    with_telemetry telem ~cfg ~benches:[ bench ] @@ fun () ->
    let s = settings ~warmup ~measure ~benches:(Some bench) in
    let p = Runner.prepare s (Workload.find_exn bench) in
    let o = Runner.oracle_of_kind oracle cfg p in
    let r = Icost_core.Advisor.analyze o in
    Printf.printf "%s:\n%s" bench (Icost_core.Advisor.report_to_string r)
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Bottleneck / de-optimization recommendations for one workload")
    Term.(const run $ bench_arg $ variant_arg $ oracle_arg $ warmup_arg $ measure_arg
          $ common_term)

(* --- sweep --- *)

(* The icost.sweep.v1 document: run manifest + settings + one curve
   object per axis, points in ascending value order.  CI smoke-validates
   this shape (sorted points, knee within the grid, manifest present). *)
let sweep_json ~bench ~variant ~cfg ~warmup ~measure (r : Sweep.result) =
  let point deltas (pt : Sweep.point) =
    match pt.Sweep.pt_outcome with
    | Ok cycles ->
      Json.Obj
        [ ("value", Json.Int pt.pt_value); ("cycles", Json.Float cycles);
          ("delta",
           Json.Float (Option.value ~default:0. (List.assoc_opt pt.pt_value deltas)));
        ]
    | Error exn ->
      Json.Obj
        [ ("value", Json.Int pt.pt_value);
          ("error", Json.Str (Printexc.to_string exn));
        ]
  in
  let curve (c : Sweep.curve) =
    Json.Obj
      ([ ("param", Json.Str c.Sweep.cv_param.Sparam.p_name);
         ("unit", Json.Str c.cv_param.Sparam.p_unit);
         ("base_value", Json.Int c.cv_base_value);
         ("points", Json.Arr (List.map (point c.cv_deltas) c.cv_points));
       ]
      @
      match c.cv_knee with
      | None -> []
      | Some k ->
        [ ("knee",
           Json.Obj
             [ ("value", Json.Int k.Sweep.kn_value);
               ("marginal", Json.Float k.kn_marginal);
               ("saturated", Json.Bool k.kn_saturated);
             ]);
        ])
  in
  let body =
    Json.Obj
      [ ("workload", Json.Str bench);
        ("variant", Json.Str (variant_name variant));
        ("engine", Json.Str (Sweep.engine_name r.Sweep.sw_engine));
        ("settings",
         Json.Obj [ ("warmup", Json.Int warmup); ("measure", Json.Int measure) ]);
        ("baseline", Json.Float r.sw_baseline);
        ("points", Json.Int r.sw_points);
        ("cache_hits", Json.Int r.sw_cache_hits);
        ("curves", Json.Arr (List.map curve r.sw_curves));
      ]
  in
  let m =
    Texport.manifest ~version ~config_digest:(Texport.digest cfg)
      ~seed:Icost_profiler.Sampler.default_opts.seed ~workloads:[ bench ] ()
  in
  (* splice the pre-rendered manifest into the encoded body object *)
  let rest = Json.encode body in
  Printf.sprintf "{\"schema\":\"icost.sweep.v1\",\"manifest\":%s,%s\n"
    (Texport.manifest_json m)
    (String.sub rest 1 (String.length rest - 1))

let sweep_csv (r : Sweep.result) =
  let b = Buffer.create 256 in
  Buffer.add_string b "param,value,cycles,delta\n";
  List.iter
    (fun (c : Sweep.curve) ->
      List.iter
        (fun (pt : Sweep.point) ->
          match pt.Sweep.pt_outcome with
          | Ok cycles ->
            Printf.bprintf b "%s,%d,%.17g,%.17g\n"
              c.Sweep.cv_param.Sparam.p_name pt.pt_value cycles
              (Option.value ~default:0.
                 (List.assoc_opt pt.pt_value c.cv_deltas))
          | Error _ -> ())
        c.cv_points)
    r.Sweep.sw_curves;
  Buffer.contents b

let sweep_cmd =
  let param_arg =
    let doc =
      "Axis grid spec, NAME=LO..HI (geometric doubling from LO, HI always \
       included) or NAME=LO..HI:STEP (arithmetic).  Repeatable; one \
       sensitivity curve per axis.  Known names: window, issue_width, \
       fetch_bw, commit_bw, dl1_lat, l2_lat, mem_lat, int_alu, int_mul, \
       fp_alu, fp_mul, mem_ports."
    in
    Arg.(value & opt_all string [] & info [ "p"; "param" ] ~docv:"SPEC" ~doc)
  in
  let knee_arg =
    let doc =
      "Saturation threshold: a relaxation step is past the knee when it \
       saves less than this fraction of the axis' best observed \
       cycles-per-unit."
    in
    Arg.(value & opt float Sweep.default_knee_frac
         & info [ "knee-frac" ] ~docv:"FRAC" ~doc)
  in
  let json_arg =
    let doc = "Emit the icost.sweep.v1 JSON document (embeds the run \
               manifest) instead of the table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let csv_arg =
    let doc = "Emit param,value,cycles,delta CSV instead of the table." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let run bench variant oracle params knee_frac json csv warmup measure telem =
    let cfg = config_of_variant variant in
    with_telemetry telem ~cfg ~benches:[ bench ] @@ fun () ->
    if json && csv then failwith "--json and --csv are mutually exclusive";
    let engine =
      match Sweep.engine_of_string (Runner.oracle_kind_name oracle) with
      | Ok e -> e
      | Error msg -> failwith msg
    in
    let axes =
      match Sparam.parse_axes params with
      | Ok axes -> axes
      | Error msg -> failwith msg
    in
    let s = settings ~warmup ~measure ~benches:(Some bench) in
    let p = Runner.prepare s (Workload.find_exn bench) in
    let r = Sweep.run ~knee_frac ~engine ~cfg ~prepared:p ~axes () in
    if json then
      print_string (sweep_json ~bench ~variant ~cfg ~warmup ~measure r)
    else if csv then print_string (sweep_csv r)
    else begin
      Printf.printf "%s on %s machine (%s engine), %.0f cycles baseline:\n"
        bench (variant_name variant)
        (Sweep.engine_name r.Sweep.sw_engine)
        r.Sweep.sw_baseline;
      print_string (Sweep.to_string r)
    end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Parametric sensitivity: evaluate a grid along machine-parameter \
          axes against one prepared execution, report d(cycles)/d(param) \
          curves, saturation knees and resize recommendations ranked by \
          cycles-per-unit ROI")
    Term.(const run $ bench_arg $ variant_arg $ oracle_arg $ param_arg
          $ knee_arg $ json_arg $ csv_arg $ warmup_arg $ measure_arg
          $ common_term)

(* --- stream --- *)

(* The icost.stream.v1 document: run manifest + totals + one telemetry
   object per segment, in segment order.  CI smoke-validates this shape
   (manifest present, segment count consistent, ids monotone). *)
let stream_json ~bench ~variant ~cfg ~warmup (r : Stream.result) =
  let seg (st : Stream.seg_stat) =
    Json.Obj
      [ ("id", Json.Int st.Stream.seg_id);
        ("start", Json.Int st.Stream.seg_start);
        ("len", Json.Int st.Stream.seg_len);
        ("cum_cycles", Json.Int st.Stream.cum_cycles);
        ("heap_words", Json.Int st.Stream.heap_words);
      ]
  in
  let o = Cost.memoize (Stream.oracle r) in
  let base = Cost.query o Category.Set.empty in
  let costs =
    List.map
      (fun c ->
        ( Category.name c,
          Json.Obj
            [ ("cost", Json.Float (Cost.cost o (Category.Set.singleton c)));
              ("percent",
               Json.Float
                 (if base > 0. then
                    100. *. Cost.cost o (Category.Set.singleton c) /. base
                  else 0.));
            ] ))
      Category.all
  in
  let body =
    Json.Obj
      [ ("workload", Json.Str bench);
        ("variant", Json.Str (variant_name variant));
        ("settings",
         Json.Obj
           [ ("warmup", Json.Int warmup);
             ("segment_insns", Json.Int r.Stream.segment_insns);
           ]);
        ("instructions", Json.Int r.Stream.instrs);
        ("cycles", Json.Int r.Stream.cycles);
        ("ipc",
         Json.Float
           (if r.Stream.cycles > 0 then
              float_of_int r.Stream.instrs /. float_of_int r.Stream.cycles
            else 0.));
        ("segments", Json.Int r.Stream.segments);
        ("peak_mb", Json.Float (Stream.peak_mb r));
        ("costs", Json.Obj costs);
        ("segment_stats", Json.Arr (List.map seg r.Stream.seg_stats));
      ]
  in
  let m =
    Texport.manifest ~version ~config_digest:(Texport.digest cfg)
      ~seed:Icost_profiler.Sampler.default_opts.seed ~workloads:[ bench ] ()
  in
  let rest = Json.encode body in
  Printf.sprintf "{\"schema\":\"icost.stream.v1\",\"manifest\":%s,%s\n"
    (Texport.manifest_json m)
    (String.sub rest 1 (String.length rest - 1))

let stream_cmd =
  let segment_arg =
    let doc = "Instructions per streamed segment (bounded-memory unit of \
               work)." in
    Arg.(value & opt int Stream.default_segment_insns
         & info [ "segment-insns" ] ~docv:"N" ~doc)
  in
  let max_insns_arg =
    let doc = "Instructions to analyze after warm-up.  Unlike the \
               monolithic commands, memory stays O(segment + window) \
               however large this is." in
    Arg.(value & opt int 1_000_000 & info [ "max-insns" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Emit the icost.stream.v1 JSON document (with run manifest) \
               instead of the table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run bench variant segment_insns max_insns warmup json telem =
    let cfg = config_of_variant variant in
    with_telemetry telem ~cfg ~benches:[ bench ] @@ fun () ->
    let w = Workload.find_exn bench in
    let src =
      Stream_source.of_program cfg (w.Workload.build ()) ~warmup
        ~max_insns
    in
    let r = Stream.analyze ~segment_insns cfg src in
    if json then print_string (stream_json ~bench ~variant ~cfg ~warmup r)
    else begin
      Printf.printf
        "%s (%s machine): %d instructions in %d cycles (IPC %.2f)\n" bench
        (variant_name variant) r.Stream.instrs r.Stream.cycles
        (if r.Stream.cycles > 0 then
           float_of_int r.Stream.instrs /. float_of_int r.Stream.cycles
         else 0.);
      Printf.printf
        "  %d segments of %d instructions, peak heap %.1f MB\n"
        r.Stream.segments r.Stream.segment_insns (Stream.peak_mb r);
      let o = Cost.memoize (Stream.oracle r) in
      let base = Cost.query o Category.Set.empty in
      List.iter
        (fun c ->
          let cost = Cost.cost o (Category.Set.singleton c) in
          Printf.printf "  %-8s cost %10.0f cycles (%5.1f%%)\n"
            (Category.name c) cost
            (if base > 0. then 100. *. cost /. base else 0.))
        Category.all
    end
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:"Bounded-memory streaming analysis of arbitrarily long runs")
    Term.(const run $ bench_arg $ variant_arg $ segment_arg $ max_insns_arg
          $ warmup_arg $ json_arg $ common_term)

(* --- experiment --- *)

let experiment_cmd =
  let id_arg =
    let doc = "Experiment id: fig1, table4a, table4b, table4c, fig3, table7, \
               profstats, ablation, prefetch, advisor, or all." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
  in
  let run id benches warmup measure telem =
    let s = settings ~warmup ~measure ~benches in
    let failed =
      with_telemetry telem ~cfg:Config.default ~benches:s.Runner.benches
      @@ fun () ->
      let reports =
      match id with
      | "all" -> Drive.all_reports ~settings:s ()
      | id ->
        let prepared = Runner.prepare_all s in
        let t7 =
          match benches with
          | Some _ -> prepared
          | None ->
            List.filter
              (fun (p : Runner.prepared) ->
                List.mem p.name Icost_experiments.Exp_table7.default_benches)
              prepared
        in
        (match id with
         | "fig1" -> [ Drive.fig1 prepared ]
         | "table4a" -> [ Drive.table4a prepared ]
         | "table4b" -> [ Drive.table4b prepared ]
         | "table4c" -> [ Drive.table4c prepared ]
         | "fig3" -> [ Drive.fig3 prepared ]
         | "table7" -> [ Drive.table7 t7 ]
         | "profstats" -> [ Drive.profstats t7 ]
         | "ablation" -> [ Drive.ablation t7 ]
         | "prefetch" -> [ Drive.prefetch ~settings:s () ]
         | "conclusion" -> [ Drive.conclusion ~settings:s () ]
         | "advisor" -> [ Drive.advisor prepared ]
         | other -> failwith (Printf.sprintf "unknown experiment %S" other))
      in
      List.iter Drive.print_report reports;
      Drive.failed_checks reports
    in
    (* a failing shape check is a failing run: give CI an exit status to
       gate on instead of PASS/FAIL prose buried in the report body *)
    if failed <> [] then begin
      Printf.eprintf "%d shape check(s) failed:\n" (List.length failed);
      List.iter (fun (id, d) -> Printf.eprintf "  [%s] %s\n" id d) failed;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a paper table or figure")
    Term.(const run $ id_arg $ benches_arg $ warmup_arg $ measure_arg $ common_term)

(* --- serve --- *)

let socket_arg =
  let doc = "Unix domain socket path the daemon listens on / is queried at." in
  Arg.(value & opt string "icostd.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let parse_tcp_exn spec =
  match Endpoint.parse_tcp spec with
  | Ok hp -> hp
  | Error msg -> failwith msg

let serve_cmd =
  let workers_arg =
    let doc = "Concurrent analysis requests (scheduler worker threads)." in
    Arg.(value & opt int Server.default_opts.workers & info [ "workers" ] ~doc)
  in
  let tcp_arg =
    let doc =
      "Also listen on a TCP endpoint, e.g. 127.0.0.1:7433 (port 0 binds an \
       ephemeral port, printed on stderr).  The Unix socket stays on."
    in
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let shards_arg =
    let doc =
      "Fan the service across N worker processes (a shard router): sessions \
       are hashed to shards, each with its own caches, scheduler, breaker \
       and snapshot subdirectory.  1 (default) serves in-process."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Accepted-but-not-running request bound; a full queue answers \
       'overloaded' instead of buffering without limit."
    in
    Arg.(value & opt int Server.default_opts.queue_limit
         & info [ "queue-limit" ] ~doc)
  in
  let cache_arg =
    let doc = "Maximum entries per session-cache layer (LRU eviction)." in
    Arg.(value & opt int Server.default_opts.cache_cap & info [ "cache-cap" ] ~doc)
  in
  let faults_arg =
    let doc =
      "Arm deterministic fault injection, e.g. \
       'write_short:0.2,worker_raise:0.05;seed=42' (see doc/protocol.md \
       for the point list and grammar).  Overrides ICOST_FAULTS."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let run socket tcp_spec shards workers queue_limit cache_cap cache_dir
      faults telem =
    (match faults with
     | Some spec -> Icost_util.Fault.configure_exn spec
     | None ->
       (match Icost_util.Fault.from_env () with
        | Ok () -> ()
        | Error msg -> failwith ("ICOST_FAULTS: " ^ msg)));
    let tcp = Option.map parse_tcp_exn tcp_spec in
    if shards < 1 then failwith "--shards must be >= 1";
    let stats = ref None in
    let on_ready () =
      Printf.eprintf "icostd %s listening on %s (%d worker(s)%s)\n%!" version
        socket workers
        (if shards > 1 then Printf.sprintf " x %d shards" shards else "")
    in
    let on_tcp_port p = Printf.eprintf "icostd tcp port %d\n%!" p in
    with_telemetry telem ~cfg:Config.default ~benches:[]
      ~service_stats:(fun () -> !stats)
    @@ fun () ->
    let uptime_s, requests_total =
      if shards <= 1 then begin
        let s =
          Server.run
            {
              Server.socket;
              tcp;
              workers;
              queue_limit;
              cache_cap;
              breaker_threshold = Server.default_opts.breaker_threshold;
              breaker_cooldown = Server.default_opts.breaker_cooldown;
              mem_high_mb = Server.default_opts.mem_high_mb;
              cache_dir;
              handle_signals = true;
              on_ready = Some on_ready;
              on_tcp_port = Some on_tcp_port;
            }
        in
        stats := Some (s.uptime_s, s.requests_total);
        (s.uptime_s, s.requests_total)
      end
      else begin
        let s =
          Router.run
            {
              Router.socket;
              tcp;
              shards;
              shard =
                { Server.default_opts with workers; queue_limit; cache_cap;
                  cache_dir };
              supervise = Router.default_opts.supervise;
              failover_budget_s = Router.default_opts.failover_budget_s;
              handle_signals = true;
              on_ready = Some on_ready;
              on_tcp_port = Some on_tcp_port;
            }
        in
        stats := Some (s.uptime_s, s.requests_total);
        (s.uptime_s, s.requests_total)
      end
    in
    Printf.eprintf "icostd served %d request(s) over %.1f s\n%!" requests_total
      uptime_s
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Resident analysis daemon: answers icost.rpc.v1 queries over a \
             Unix socket (and optionally TCP), caching prepared workloads \
             across requests; --shards fans it across worker processes")
    Term.(const run $ socket_arg $ tcp_arg $ shards_arg $ workers_arg
          $ queue_arg $ cache_arg $ cache_dir_arg $ faults_arg $ common_term)

(* --- query --- *)

let query_cmd =
  let op_arg =
    let doc =
      "Request type: breakdown, icost, graph-stats, sweep, status, health, \
       drain (rolling restart of a sharded daemon) or shutdown."
    in
    Arg.(value & pos 0 string "status" & info [] ~docv:"OP" ~doc)
  in
  let variant_str_arg =
    let doc = "Machine variant: base, dl1, wakeup or bmisp." in
    Arg.(value & opt string "base" & info [ "variant" ] ~doc)
  in
  let engine_arg =
    let doc = "Cost engine: graph, multisim, profiler or stream \
               (segmented bounded-memory re-analysis, bit-identical to \
               graph on the same window)." in
    Arg.(value & opt string "graph" & info [ "oracle"; "engine" ] ~doc)
  in
  let sets_arg =
    let doc = "Category set for op icost (repeatable)." in
    Arg.(value & opt_all string [ "dl1,win" ] & info [ "s"; "set" ] ~docv:"CATS" ~doc)
  in
  let focus_arg =
    let doc = "Focus category for op breakdown." in
    Arg.(value & opt string "dl1" & info [ "focus" ] ~doc)
  in
  let params_arg =
    let doc = "Axis grid spec for op sweep, e.g. window=16..256:16 \
               (repeatable; see `icost sweep`)." in
    Arg.(value & opt_all string [] & info [ "param" ] ~docv:"SPEC" ~doc)
  in
  let deadline_arg =
    let doc = "Per-request deadline in milliseconds (server-side)." in
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~doc)
  in
  let wait_arg =
    let doc = "Seconds to keep retrying the initial connection." in
    Arg.(value & opt float 5. & info [ "wait" ] ~doc)
  in
  let tcp_arg =
    let doc =
      "Query over TCP (HOST:PORT) instead of the Unix socket."
    in
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let batch_arg =
    let doc =
      "Send the operation N times in one batch frame (one request line, one \
       reply line, per-item results).  Exercises the wire batch path; \
       status/health/shutdown refuse batching > 1."
    in
    Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let retries_arg =
    let doc =
      "Max automatic re-sends on transient failures (overloaded, \
       unavailable, internal, dropped connection).  Only idempotent \
       requests are retried; shutdown never is."
    in
    Arg.(value & opt int Client.default_retry_opts.retries
         & info [ "retries" ] ~doc)
  in
  let budget_arg =
    let doc = "Wall-clock retry budget in milliseconds." in
    Arg.(value & opt int Client.default_retry_opts.budget_ms
         & info [ "retry-budget-ms" ] ~doc)
  in
  let run socket tcp_spec op bench variant engine sets focus params warmup
      measure seed deadline_ms wait batch retries budget_ms telem =
    Option.iter Icost_util.Pool.set_jobs telem.jobs;
    let target =
      {
        Protocol.workload = bench;
        variant;
        engine;
        warmup;
        measure;
        seed;
      }
    in
    let op =
      match op with
      | "breakdown" -> Protocol.Breakdown { target; focus }
      | "icost" -> Protocol.Icost { target; sets }
      | "graph-stats" -> Protocol.Graph_stats { target }
      | "sweep" -> Protocol.Sweep { target; params }
      | "status" -> Protocol.Status
      | "health" -> Protocol.Health
      | "drain" -> Protocol.Drain
      | "shutdown" -> Protocol.Shutdown
      | other -> failwith (Printf.sprintf "unknown op %S" other)
    in
    if batch < 1 then failwith "--batch must be >= 1";
    let op =
      if batch = 1 then op
      else
        match op with
        | Protocol.Shutdown | Protocol.Drain | Protocol.Batch _ ->
          failwith "this op cannot be batched"
        | _ -> Protocol.Batch { ops = List.init batch (fun _ -> op) }
    in
    let addr =
      match tcp_spec with
      | Some spec ->
        let host, port = parse_tcp_exn spec in
        Endpoint.Tcp (host, port)
      | None -> Endpoint.Unix_path socket
    in
    let reply =
      let opts = { Client.default_retry_opts with retries; budget_ms } in
      let s = Client.connect_session_addr ~opts ~retry_for:wait addr in
      Fun.protect
        ~finally:(fun () -> Client.close_session s)
        (fun () ->
          Client.call_with_retry s { Protocol.req_id = 1; deadline_ms; op })
    in
    let rec print_body = function
      | Protocol.R_breakdown { baseline; rows } ->
        Printf.printf "%s on %s machine (%s oracle), %.0f cycles baseline:\n"
          bench variant engine baseline;
        List.iter
          (fun (r : Protocol.breakdown_row) ->
            Printf.printf "  %-12s %7.1f%%\n" r.row_label r.row_percent)
          rows;
        Printf.printf "  %-12s %7.1f%%\n" "Total"
          (List.fold_left (fun acc (r : Protocol.breakdown_row) ->
               acc +. r.row_percent) 0. rows)
      | Protocol.R_icost { baseline; rows } ->
        Printf.printf "%s: baseline %.0f cycles\n" bench baseline;
        List.iter
          (fun (r : Protocol.icost_row) ->
            Printf.printf
              "  %-24s cost %8.0f cycles (%5.1f%%)  icost %+8.0f (%s)\n"
              r.set_name r.set_cost
              (100. *. r.set_cost /. baseline)
              r.set_icost r.set_class)
          rows
      | Protocol.R_graph_stats { instrs; nodes; edges; critical_path } ->
        Printf.printf "%s: %d instructions, %d nodes, %d edges, CP %d cycles\n"
          bench instrs nodes edges critical_path
      | Protocol.R_sweep { baseline; curves } ->
        Printf.printf "%s: baseline %.0f cycles\n" bench baseline;
        List.iter
          (fun (c : Protocol.sweep_curve) ->
            Printf.printf "  %s (base %d):\n" c.curve_param c.curve_base;
            List.iter
              (fun (p : Protocol.sweep_point) ->
                match p.sp_outcome with
                | Ok (cycles, delta) ->
                  Printf.printf "    %6d  %10.0f cycles  d %+9.2f%s\n"
                    p.sp_value cycles delta
                    (if p.sp_value = c.curve_base then "  *base*" else "")
                | Error (code, msg) ->
                  Printf.printf "    %6d  error (%s): %s\n" p.sp_value
                    (Protocol.error_code_name code) msg)
              c.curve_points;
            Option.iter
              (fun (k : Protocol.sweep_knee) ->
                Printf.printf "    knee at %d (%.2f cycles/unit%s)\n"
                  k.kn_value k.kn_marginal
                  (if k.kn_saturated then ""
                   else ", still paying off at the grid edge"))
              c.curve_knee)
          curves
      | Protocol.R_status s ->
        Printf.printf
          "uptime %.1f s, %d request(s), %d running, queue %d, %d session(s)\n\
           cache: %d hit(s), %d miss(es), %d eviction(s); snapshot: %d \
           hit(s), %d miss(es), %d reject(s); sweep: %d point(s), %d \
           cached; stream: %d segment(s), peak %.1f MB; %d pool job(s); \
           %shealth %s%s\n"
          s.uptime_s s.requests_total s.inflight s.queue_depth s.sessions
          s.cache_hits s.cache_misses s.cache_evictions s.snapshot_hits
          s.snapshot_misses s.snapshot_rejects s.sweep_points
          s.sweep_cache_hits s.segments s.stream_peak_mb s.pool_jobs
          (if s.shards > 0 then
             Printf.sprintf "%d shard(s), %d respawn(s), %d failover(s); "
               s.shards s.respawns s.failovers
           else "")
          s.health
          (if s.draining then "; draining" else "")
      | Protocol.R_health h ->
        Printf.printf "health %s; %d breaker(s) open; %d entr(ies) shed\n"
          h.h_health h.h_breakers_open h.h_shed
      | Protocol.R_shutdown -> Printf.printf "server is shutting down\n"
      | Protocol.R_drain { restarted } ->
        Printf.printf "rolling restart complete: %d shard(s) cycled\n"
          restarted
      | Protocol.R_batch { results } ->
        let n = List.length results in
        let failed = ref 0 in
        List.iteri
          (fun i item ->
            Printf.printf "[%d/%d] " (i + 1) n;
            match item with
            | Ok body -> print_body body
            | Error (code, msg) ->
              incr failed;
              Printf.printf "error (%s): %s\n"
                (Protocol.error_code_name code) msg)
          results;
        if !failed > 0 then begin
          Printf.eprintf "%d of %d batch item(s) failed\n" !failed n;
          exit 3
        end
    in
    match reply.Protocol.body with
    | Error (code, msg) ->
      Printf.eprintf "error (%s): %s\n" (Protocol.error_code_name code) msg;
      exit 3
    | Ok body -> print_body body
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send one icost.rpc.v1 request to a running 'icost serve' daemon")
    Term.(const run $ socket_arg $ tcp_arg $ op_arg $ bench_arg
          $ variant_str_arg $ engine_arg $ sets_arg $ focus_arg $ params_arg
          $ warmup_arg $ measure_arg $ seed_arg $ deadline_arg $ wait_arg
          $ batch_arg $ retries_arg $ budget_arg $ common_term)

(* --- check: cross-engine conformance --- *)

let check_cmd =
  let budget_arg =
    let doc = "Wall-clock budget in seconds; cases that would start after \
               the deadline are skipped (and reported)." in
    Arg.(value & opt float Harness.default_opts.budget_s
         & info [ "budget-s" ] ~docv:"SECONDS" ~doc)
  in
  let gen_arg =
    let doc = "Generated (fuzzed) cases per workload profile \
               (mixed/loop/alias/branch)." in
    Arg.(value & opt int Harness.default_opts.gen_per_profile
         & info [ "gen-cases" ] ~docv:"N" ~doc)
  in
  let laws_arg =
    let doc = "Comma-separated law ids or family names (e.g. 'streaming') \
               to evaluate (default: the whole table; see --list-laws)." in
    Arg.(value & opt (some string) None & info [ "laws" ] ~docv:"IDS" ~doc)
  in
  let list_laws_arg =
    let doc = "Print the law table (id, family, tolerance, statement) and \
               exit." in
    Arg.(value & flag & info [ "list-laws" ] ~doc)
  in
  let artifact_arg =
    let doc = "Directory for counterexample artifacts (created if needed); \
               every violation is shrunk and written there as replayable \
               JSON." in
    Arg.(value & opt (some string) None
         & info [ "artifact-dir" ] ~docv:"DIR" ~doc)
  in
  let replay_arg =
    let doc = "Replay a counterexample artifact and require the recorded \
               violation to reproduce bit-identically." in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let faults_arg =
    let doc = "Arm deterministic fault injection (e.g. \
               'check.perturb_graph;seed=1' for a deliberate law \
               violation).  Overrides ICOST_FAULTS." in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let check_warmup_arg =
    let doc = "Warm-up instructions per case (caches and predictors train, \
               not timed)." in
    Arg.(value & opt int Harness.default_opts.warmup & info [ "warmup" ] ~doc)
  in
  let check_measure_arg =
    let doc = "Measured instructions per case." in
    Arg.(value & opt int Harness.default_opts.measure
         & info [ "n"; "measure" ] ~doc)
  in
  let run seed budget_s benches gen_per_profile warmup measure laws list_laws
      artifact_dir replay faults telem =
    let code =
      if list_laws then begin
        Printf.printf "%-24s %-13s %-20s %s\n" "law" "family" "tolerance"
          "statement";
        List.iter
          (fun (l : Laws.law) ->
            Printf.printf "%-24s %-13s %-20s %s\n" l.Laws.id
              (Laws.family_name l.Laws.family)
              (Laws.tolerance_to_string l.Laws.tol)
              l.Laws.doc)
          Laws.all;
        0
      end
      else begin
        (match faults with
        | Some spec -> Icost_util.Fault.configure_exn spec
        | None -> (
          match Icost_util.Fault.from_env () with
          | Ok () -> ()
          | Error msg -> failwith ("ICOST_FAULTS: " ^ msg)));
        match replay with
        | Some file ->
          with_telemetry telem ~cfg:Config.default ~benches:[] @@ fun () ->
          (match Harness.replay file with
          | Ok msg ->
            Printf.printf "%s\n" msg;
            0
          | Error msg ->
            Printf.eprintf "replay failed: %s\n" msg;
            1)
        | None ->
          let only =
            Option.map
              (fun s ->
                String.split_on_char ',' s |> List.map String.trim
                |> List.concat_map (fun tok ->
                       if Laws.find tok <> None then [ tok ]
                       else
                         match
                           List.filter
                             (fun (l : Laws.law) ->
                               Laws.family_name l.Laws.family = tok)
                             Laws.all
                         with
                         | [] ->
                           failwith
                             (Printf.sprintf
                                "unknown law or family %S (see --list-laws)"
                                tok)
                         | ls -> List.map (fun (l : Laws.law) -> l.Laws.id) ls))
              laws
          in
          let benches =
            match benches with
            | None -> []
            | Some s -> String.split_on_char ',' s |> List.map String.trim
          in
          let opts =
            {
              Harness.master_seed = seed;
              budget_s;
              benches;
              gen_per_profile;
              warmup;
              measure;
              only;
              artifact_dir;
            }
          in
          with_telemetry telem ~cfg:Config.default
            ~benches:
              (List.map
                 (fun (c : Icost_check.Case.t) -> Icost_check.Case.name c)
                 (Harness.cases_of_opts opts))
          @@ fun () ->
          let summary = Harness.run opts in
          print_string (Harness.render summary);
          if Harness.ok summary then 0 else 1
      end
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Check the three cost engines against the conformance law table \
          (algebraic icost identities, metamorphic config laws, \
          differential engine agreement) on registry kernels and seeded \
          random programs; violations are shrunk to minimal replayable \
          counterexamples")
    Term.(
      const run $ seed_arg $ budget_arg $ benches_arg $ gen_arg
      $ check_warmup_arg $ check_measure_arg $ laws_arg $ list_laws_arg
      $ artifact_arg $ replay_arg $ faults_arg $ common_term)

let () =
  let info =
    Cmd.info "icost" ~version
      ~doc:"Interaction-cost bottleneck analysis (Fields et al., MICRO-36 2003)"
  in
  exit (Cmd.eval (Cmd.group info
       [ list_cmd; breakdown_cmd; icost_cmd; graph_cmd; advise_cmd;
         sweep_cmd; stream_cmd; experiment_cmd; check_cmd; serve_cmd;
         query_cmd ]))
