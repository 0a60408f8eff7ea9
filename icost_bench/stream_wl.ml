(* The stream workloads: [Stream.Core.analyze] over [Source.of_program],
   the headline streaming path, on one domain.

   One operation is one segment.  Core pulls a segment's items from its
   source in one tight loop and only then simulates, compiles and prices
   them, so the source handed to it can time every segment from outside:
   the clock read at the first pull of segment k+1 closes segment k, and
   the read after its last pull closes its source batch. *)

module Prng = Icost_util.Prng
module Config = Icost_uarch.Config
module Events = Icost_uarch.Events
module Interp = Icost_isa.Interp
module Trace = Icost_isa.Trace
module Ooo = Icost_sim.Ooo
module Build = Icost_depgraph.Build
module Graph = Icost_depgraph.Graph
module Category = Icost_core.Category
module Workload = Icost_workloads.Workload
module Runner = Icost_experiments.Runner
module Core = Icost_stream.Core
module Source = Icost_stream.Source

type spec = {
  kernel : string;
  segment : int;
  rate : int;
      (** instructions analyzed per second of [--seconds], near what a
          2-core x86-64 host does; the work is fixed, not the time *)
  traced_insns : int;  (** instructions in the traced run and the probe *)
}

let gcc =
  { kernel = "gcc"; segment = Core.default_segment_insns; rate = 100_000;
    traced_insns = 491_520 }

let mcf_seg256 = { kernel = "mcf"; segment = 256; rate = 50_000; traced_insns = 262_144 }

let cfg = Config.default
let nsets = 1 lsl Category.count
let lanes = 32
let clock = Unix.gettimeofday

(* The seed moves the measured stretch of the program. *)
let warmup_of_seed seed = 20_000 + Prng.int (Prng.create seed) 65_536

let open_source spec ~warmup ~max_insns =
  let w = Workload.find_exn spec.kernel in
  Source.of_program cfg (w.Workload.build ()) ~warmup ~max_insns

(* Wrap [src] for Core.analyze, recording when each segment's first item
   is pulled and, with [spans], one "stream.source" span per segment's
   batch of pulls. *)
let timed_source ?spans ~segment (src : Source.t) =
  let starts = Pct.Vec.create () in
  let pulls = ref 0 and span = ref (-1) in
  let leave () = Option.iter (fun sp -> Spans.leave sp !span) spans in
  let pull () =
    let pos = !pulls mod segment in
    let t0 = if pos = 0 then clock () else 0. in
    let item = src () in
    (match item with
     | Some _ ->
       if pos = 0 then begin
         Pct.Vec.add starts t0;
         Option.iter
           (fun sp ->
             span :=
               Spans.enter sp ~at:t0 ~name:"stream.source"
                 ~id:(Pct.Vec.length starts - 1) ())
           spans
       end;
       incr pulls;
       if pos = segment - 1 then leave ()
     | None -> if pos > 0 then leave ());
    item
  in
  (pull, starts)

(* Wall time of each segment, from its first pull to the next one's. *)
let segment_seconds starts ~t_end =
  let n = Pct.Vec.length starts in
  Array.init n (fun k ->
      let next = if k + 1 < n then Pct.Vec.get starts (k + 1) else t_end in
      next -. Pct.Vec.get starts k)

(* ---- layer probe ---- *)

(* Walk a second copy of the traced run's stream one segment at a time,
   calling each layer's public function on the whole segment inside its
   own span: the interpreter, the annotator, the streaming simulator, the
   fragment emitter (with Core's producer remapping), the fragment
   compiler and the pinned 32-lane evaluator, 8 passes as Core makes
   them.  Pinned rows and external floors only change the values the
   evaluator computes, not the work it does, so the probe skips the
   carries; what Core spends on them is the remainder. *)
type probe = { p_instrs : int; p_cycles : int; p_edges : int; p_dl1_misses : int }

let renumber ~start (d : Trace.dyn) (e : Events.evt) =
  let remap j = if j >= start then Some (j - start) else None in
  ( {
      d with
      Trace.seq = d.Trace.seq - start;
      reg_deps =
        List.filter_map
          (fun (r, p) -> Option.map (fun p -> (r, p)) (remap p))
          d.Trace.reg_deps;
      mem_dep = Option.bind d.Trace.mem_dep remap;
    },
    { e with Events.share_src = Option.bind e.Events.share_src remap } )

let probe sp spec ~warmup ~nseg =
  let segment = spec.segment in
  let w = Workload.find_exn spec.kernel in
  let stepper =
    Interp.stepper
      ~config:{ Interp.default_config with max_instrs = warmup + (nseg * segment) }
      (w.Workload.build ())
  in
  let ann = Events.annotator cfg in
  for _ = 1 to warmup do
    Option.iter (fun d -> ignore (Events.annotate_next ann d)) (Interp.step stepper)
  done;
  let dl1_0 = (Events.annotator_summary ann).Events.dl1_misses in
  let p = Build.params_of_config cfg in
  let bmax = max p.Build.window (max p.Build.fetch_bw p.Build.commit_bw) in
  let sim = Ooo.Stream.create cfg in
  let sets = Array.init nsets Fun.id in
  let pinned = Array.make (5 * bmax * nsets) 0 in
  let slab = Array.make (5 * (bmax + segment) * lanes) 0 in
  let latbuf = Array.make lanes 0 and lset = Array.make lanes 0 in
  let ktab = Array.make 256 (Array.make lanes (-1)) in
  for ci = 0 to Category.count - 1 do
    ktab.(1 lsl ci) <- Array.make lanes 0
  done;
  let taken = Queue.create () in
  let prev_mispredict = ref false in
  let count = ref 0 and pin_count = ref 0 and edges = ref 0 in
  let span name s f = Spans.with_span sp ~name ~id:s f in
  let s = ref 0 and ended = ref false in
  while !s < nseg && not !ended do
    let seg = !s in
    Spans.with_span sp ~name:"probe.segment" ~id:seg (fun () ->
        let raw =
          span "isa.step" seg (fun () ->
              let rec go acc k =
                if k = segment then acc
                else match Interp.step stepper with
                  | Some d -> go (d :: acc) (k + 1)
                  | None -> acc
              in
              Array.of_list (List.rev (go [] 0)))
        in
        let len = Array.length raw in
        if len < segment then ended := true;
        let items =
          span "uarch.annotate" seg (fun () ->
              Array.map (fun d -> renumber ~start:warmup d (Events.annotate_next ann d)) raw)
        in
        let slots =
          span "sim.stream_step" seg (fun () ->
              Array.map (fun (d, e) -> Ooo.Stream.step sim d e) items)
        in
        let bp = !pin_count in
        let base_g = !count - bp in
        let local g = if g >= base_g then Some (g - base_g) else None in
        let b =
          span "depgraph.emit" seg (fun () ->
              let b = Graph.Builder.create () in
              for _ = 1 to bp do
                Graph.Builder.note_instr b
              done;
              Array.iteri
                (fun k (d, e) ->
                  let info = Build.info_of_sim cfg d e slots.(k) in
                  let info =
                    {
                      info with
                      Build.reg_producers =
                        List.filter_map (fun (_, g) -> local g) d.Trace.reg_deps;
                      mem_producer = Option.bind d.Trace.mem_dep local;
                      share_src = Option.bind e.Events.share_src local;
                    }
                  in
                  let taken_limit_src =
                    if info.Build.taken_branch
                       && Queue.length taken >= p.Build.fetch_taken_limit
                    then local (Queue.peek taken)
                    else None
                  in
                  Build.emit p b ~prev_mispredict:!prev_mispredict ~taken_limit_src
                    ~seq:(bp + k) info;
                  if info.Build.taken_branch then begin
                    Queue.add (!count + k) taken;
                    if Queue.length taken > p.Build.fetch_taken_limit then
                      ignore (Queue.pop taken)
                  end;
                  prev_mispredict := e.Events.mispredict)
                items;
              b)
        in
        let g = span "depgraph.finish" seg (fun () -> Graph.Builder.finish b) in
        edges := !edges + Graph.num_edges g;
        span "depgraph.eval_pinned" seg (fun () ->
            for ch = 0 to (nsets / lanes) - 1 do
              Graph.eval_lanes_pinned g sets ~lo:(ch * lanes) ~nl:lanes
                ~n_pinned:(5 * bp) ~pinned ~pin_stride:nsets ~ext_floors:[||]
                ~latbuf ~lset ~ktab ~slab
            done);
        pin_count := min bmax (bp + len);
        count := !count + len);
    incr s
  done;
  {
    p_instrs = !count;
    p_cycles = Ooo.Stream.cycles sim;
    p_edges = !edges;
    p_dl1_misses = (Events.annotator_summary ann).Events.dl1_misses - dl1_0;
  }

(* ---- layer accounting ---- *)

(* What Core spends outside the probed layers: carry extraction, pruning
   and the fold, plus its own bookkeeping. *)
let carry_fold ~analyze ~probed = analyze -. List.fold_left ( +. ) 0. probed

(* Share of the traced Core.analyze time the probed layers account for;
   above 1 means the probes counted some time twice. *)
let cover_frac ~analyze ~probed = List.fold_left ( +. ) 0. probed /. analyze

(* FNV-1a over the 256 subset times, as an exact fingerprint. *)
let fnv32 (a : int array) =
  Array.fold_left
    (fun h v ->
      let h = ref h in
      for byte = 0 to 7 do
        h := ((!h lxor ((v lsr (8 * byte)) land 0xff)) * 0x01000193) land 0xffffffff
      done;
      !h)
    0x811c9dc5 a

(* ---- correctness ---- *)

(* The streamed aggregate of a monolithic-size window, at the workload's
   segment size, must equal [Graph.eval_subsets] on the monolithic graph
   bit for bit, with every requested instruction analyzed. *)
let check_window spec ~warmup ~measure =
  let w = Workload.find_exn spec.kernel in
  let p = Runner.prepare { Runner.warmup; measure; benches = [ spec.kernel ] } w in
  let mono =
    Graph.eval_subsets
      (Build.of_sim cfg p.Runner.trace p.Runner.evts (Runner.baseline_run cfg p))
      (Array.init nsets Fun.id)
  in
  let r =
    Core.analyze ~segment_insns:spec.segment cfg
      (open_source spec ~warmup ~max_insns:measure)
  in
  r.Core.instrs = measure && r.Core.times = mono

(* ---- the workload ---- *)

let run spec ~seed ~seconds ~quick ~traced ~spans =
  let warmup = warmup_of_seed seed in
  (* The host this runs on changes speed for seconds at a time, so the
     stream is analyzed in several identical passes and each segment
     position keeps its median time over the passes: a slow spell hits
     one pass at a position, not the median. *)
  let reps = if quick then 1 else 3 in
  let nseg = max 1 (int_of_float (seconds *. float_of_int spec.rate) / spec.segment / reps) in
  let insns = nseg * spec.segment in
  let pass () =
    (* set-up: build the program and run the warm-up through the
       interpreter and annotator *)
    let t0 = clock () in
    let src = open_source spec ~warmup ~max_insns:insns in
    let t1 = clock () in
    let pull, starts = timed_source ~segment:spec.segment src in
    let r = Core.analyze ~segment_insns:spec.segment cfg pull in
    (t1 -. t0, r, segment_seconds starts ~t_end:(clock ()))
  in
  let runs = List.init reps (fun _ -> pass ()) in
  let peak_mb = Procfs.peak_rss_mb "self" in
  let _, r, _ = List.hd runs in
  let complete =
    List.for_all
      (fun (_, r', seg) ->
        r'.Core.segments = nseg && r'.Core.instrs = insns && Array.length seg = nseg
        && r'.Core.times = r.Core.times)
      runs
  in
  let per_seg =
    Array.init nseg (fun i ->
        Pct.median (Array.of_list (List.map (fun (_, _, seg) -> seg.(i)) runs)))
  in
  let raw = Array.concat (List.map (fun (_, _, seg) -> seg) runs) in
  let setup_s = Pct.median (Array.of_list (List.map (fun (s, _, _) -> s) runs)) in
  let p95 = Pct.percentile raw 0.95 *. 1e3 in
  let window_ok =
    check_window spec ~warmup ~measure:(if quick then 4_000 else 30_000)
  in
  Printf.printf "%s: %d-instruction segments, warm-up %d\n" spec.kernel spec.segment warmup;
  Printf.printf
    "  %d passes of %d segments (%d instructions each); p95 %.3f ms (%s)\n" reps nseg insns p95
    (Pct.tail_note (Array.length raw));
  Printf.printf
    "  every segment analyzed, passes identical: %b; 256-subset window bit-identical to \
     monolithic: %b\n"
    complete window_ok;
  let e2e =
    [
      ("setup_s", setup_s);
      ("latency_p50_ms", Pct.median per_seg *. 1e3);
      ("throughput_per_s", float_of_int insns /. Array.fold_left ( +. ) 0. per_seg);
      ("peak_mb", peak_mb);
    ]
  in
  let layers, traced_ok =
    if not traced then ([], true)
    else begin
      (* the traced stretch is a prefix of the untraced one *)
      let nseg_t = min nseg (if quick then 2 else spec.traced_insns / spec.segment) in
      let pull, _ =
        timed_source ~spans ~segment:spec.segment
          (open_source spec ~warmup ~max_insns:(nseg_t * spec.segment))
      in
      let rt =
        Spans.with_span spans ~name:"stream.analyze" ~id:0 (fun () ->
            Core.analyze ~segment_insns:spec.segment cfg pull)
      in
      let pr = probe spans spec ~warmup ~nseg:nseg_t in
      let minsn = float_of_int rt.Core.instrs /. 1e6 in
      let kinsn = float_of_int rt.Core.instrs /. 1e3 in
      let ms name = Spans.self_total spans name *. 1e3 in
      let analyze = Array.fold_left ( +. ) 0. (Spans.durations spans "stream.analyze") *. 1e3 in
      let source = ms "stream.source" in
      let probed =
        [ source; ms "sim.stream_step"; ms "depgraph.emit"; ms "depgraph.finish";
          ms "depgraph.eval_pinned" ]
      in
      let untraced_ms_per_insn =
        Array.fold_left ( +. ) 0. (Array.sub per_seg 0 nseg_t) *. 1e3
        /. float_of_int (nseg_t * spec.segment)
      in
      let same_stream =
        pr.p_instrs = rt.Core.instrs && pr.p_cycles = rt.Core.sim_cycles
      in
      Printf.printf
        "  traced: %d segments; probe walked the same stream (instructions and \
         simulated cycles agree): %b\n"
        rt.Core.segments same_stream;
      ( [
          ("latency_p95_ms", p95);
          ("stream.source_ms_per_minsn", source /. minsn);
          ("isa.step_ms_per_minsn", ms "isa.step" /. minsn);
          ("uarch.annotate_ms_per_minsn", ms "uarch.annotate" /. minsn);
          ("sim.stream_step_ms_per_minsn", ms "sim.stream_step" /. minsn);
          ("depgraph.emit_ms_per_minsn", ms "depgraph.emit" /. minsn);
          ("depgraph.finish_ms_per_minsn", ms "depgraph.finish" /. minsn);
          ("depgraph.eval_pinned_ms_per_minsn", ms "depgraph.eval_pinned" /. minsn);
          ("stream.carry_fold_ms_per_minsn", carry_fold ~analyze ~probed /. minsn);
          ("stream.layer_cover_frac", cover_frac ~analyze ~probed);
          ("sim.cycles", float_of_int rt.Core.sim_cycles);
          ("stream.segments", float_of_int rt.Core.segments);
          ("stream.times_crc", float_of_int (fnv32 rt.Core.times));
          ("depgraph.edges_per_kinsn", float_of_int pr.p_edges /. kinsn);
          ("uarch.dl1_misses_per_kinsn", float_of_int pr.p_dl1_misses /. kinsn);
          ( "trace_overhead_frac",
            analyze /. float_of_int rt.Core.instrs /. untraced_ms_per_insn -. 1. );
        ],
        same_stream && rt.Core.segments = nseg_t )
    end
  in
  {
    Report.correct = complete && window_ok && traced_ok;
    attempted = reps * nseg;
    failed = 0;
    e2e;
    layers;
  }
