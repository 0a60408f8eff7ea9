(* Tests for the streaming analysis core: front-end stepper equivalence,
   a golden pin of the timing model's slots, segmented-vs-monolithic exactness
   across segment seams, job-count determinism, bounded memory, and the
   stream_segment fault seam. *)

module Isa = Icost_isa.Isa
module Interp = Icost_isa.Interp
module Trace = Icost_isa.Trace
module Config = Icost_uarch.Config
module Events = Icost_uarch.Events
module Ooo = Icost_sim.Ooo
module Graph = Icost_depgraph.Graph
module Build = Icost_depgraph.Build
module Category = Icost_core.Category
module Workload = Icost_workloads.Workload
module Pool = Icost_util.Pool
module Fault = Icost_util.Fault
module Source = Icost_stream.Source
module Score = Icost_stream.Core

let prepare ?(warmup = 2000) ?(measure = 4000) ?(cfg = Config.default) name =
  let w = Workload.find_exn name in
  let trace =
    Interp.run
      ~config:{ Interp.default_config with max_instrs = warmup + measure }
      (w.build ())
  in
  let evts, _ = Events.annotate cfg trace in
  let len = min measure (Trace.length trace - warmup) in
  let strace = Trace.slice trace ~start:warmup ~len in
  let sevts = Events.slice evts ~start:warmup ~len in
  (strace, sevts)

let all_sets = Array.init (1 lsl Category.count) (fun s -> s)

let monolithic_times cfg (trace : Trace.t) evts =
  let r = Ooo.run cfg trace evts in
  let g = Build.of_sim cfg trace evts r in
  (Graph.eval_subsets g all_sets, r.Ooo.cycles)

(* the source every law/test feeds: the already-sliced window *)
let window_source (trace : Trace.t) evts = Source.of_arrays trace.Trace.instrs evts

(* ---- front end: of_program matches interpret-then-slice ---- *)

let test_source_of_program () =
  List.iter
    (fun name ->
      let warmup = 1500 and measure = 2500 in
      let cfg = Config.default in
      let strace, sevts = prepare ~warmup ~measure ~cfg name in
      let src =
        Source.of_program cfg
          ((Workload.find_exn name).Workload.build ())
          ~warmup ~max_insns:measure
      in
      Array.iteri
        (fun i d ->
          match src () with
          | None -> Alcotest.failf "%s: source ended early at %d" name i
          | Some (d', e') ->
            if d' <> d then Alcotest.failf "%s: dyn %d differs" name i;
            if e' <> sevts.(i) then Alcotest.failf "%s: evt %d differs" name i)
        strace.Trace.instrs;
      (match src () with
       | Some _ -> Alcotest.failf "%s: source yielded past the window" name
       | None -> ()))
    [ "gcc"; "mcf" ]

(* ---- the timing model: golden slots, and every consumer agrees ---- *)

let fnv32 = Kernel_util_shim.fnv32

let slot_fields (s : Ooo.slot) =
  List.to_seq
    [ s.fetch; s.dispatch; s.ready; s.exec_start; s.complete; s.commit;
      s.exec_lat; s.fu_wait; s.imiss_delay; s.store_wait ]

let slots_hash (slots : Ooo.slot array) =
  fnv32 (Seq.flat_map slot_fields (Array.to_seq slots))

(* Golden (cycles, slot hash) pairs recorded from the original monolithic
   simulator before it was replaced by the fold of [Ooo.Stream.step]: a
   timing change anywhere in the model moves at least one of them. *)
let test_sim_golden () =
  let check name cfg (trace : Trace.t) evts (cycles, hash) =
    let r = Ooo.run cfg trace evts in
    Alcotest.(check int) (name ^ " cycles") cycles r.Ooo.cycles;
    Alcotest.(check int) (name ^ " slot hash") hash (slots_hash r.Ooo.slots);
    (* the stepper driven by hand and the cycles-only fold agree with it *)
    let sim = Ooo.Stream.create cfg in
    Array.iteri
      (fun i d ->
        if Ooo.Stream.step sim d evts.(i) <> r.Ooo.slots.(i) then
          Alcotest.failf "%s: slot %d differs (step vs run)" name i)
      trace.Trace.instrs;
    Alcotest.(check int) (name ^ " Stream.cycles") cycles (Ooo.Stream.cycles sim);
    Alcotest.(check int) (name ^ " Ooo.cycles") cycles (Ooo.cycles cfg trace evts)
  in
  List.iter
    (fun (name, cfg, golden) ->
      let strace, sevts = prepare ~cfg name in
      check name cfg strace sevts golden)
    [
      ("gcc", Config.default, (8702, 3209542476));
      ("vortex", Config.default, (6988, 225963376));
      ("mcf", Config.loop_dl1, (47051, 524773656));
      ("crafty", Config.loop_bmisp, (3185, 2053775181));
      ("twolf", Config.loop_wakeup, (10798, 2576461141));
    ];
  let program = Icost_check.Gen.generate ~profile:Icost_check.Gen.Alias_heavy 31415 in
  let trace =
    Interp.run ~config:{ Interp.default_config with max_instrs = 6000 } program
  in
  let evts, _ = Events.annotate Config.default trace in
  check "alias-heavy seed" Config.default trace evts (2322, 2399388740);
  (* every idealization: the cycles-only fold = the slot-collecting one,
     and the 256 cycle counts match the original simulator's *)
  let strace, sevts = prepare ~cfg:Config.loop_dl1 "gcc" in
  let per_set =
    Array.map
      (fun s ->
        let cfg = { Config.loop_dl1 with ideal = Icost_sim.Multisim.ideal_of_set s } in
        let c = Ooo.cycles cfg strace sevts in
        let r = Ooo.run cfg strace sevts in
        if c <> r.Ooo.cycles then
          Alcotest.failf "%s: Ooo.cycles %d vs Ooo.run %d" (Category.Set.name s) c
            r.Ooo.cycles;
        c)
      all_sets
  in
  Alcotest.(check int) "256-idealization cycles hash" 1001111021 (fnv32 (Array.to_seq per_set))

(* ---- segmented aggregate = monolithic 256-subset table, exactly ---- *)

let check_times name (expected : int array) (r : Score.result) =
  Array.iteri
    (fun s t ->
      if r.Score.times.(s) <> t then
        Alcotest.failf "%s: subset %s: stream %d vs monolithic %d" name
          (Category.Set.name s) r.Score.times.(s) t)
    expected

let test_stream_matches_monolithic () =
  List.iter
    (fun (name, cfg, seg) ->
      let strace, sevts = prepare ~cfg name in
      let expected, sim_cycles = monolithic_times cfg strace sevts in
      let r = Score.analyze ~segment_insns:seg cfg (window_source strace sevts) in
      check_times name expected r;
      Alcotest.(check int) (name ^ " instrs") (Trace.length strace) r.Score.instrs;
      Alcotest.(check int) (name ^ " sim cycles") sim_cycles r.Score.sim_cycles)
    [
      (* segment far below the window size stresses every seam kind *)
      ("gcc", Config.default, 32);
      ("gcc", Config.default, 511);
      ("mcf", Config.loop_dl1, 256);
      ("crafty", Config.loop_bmisp, 777);
      ("twolf", Config.loop_wakeup, 1024);
      ("vortex", Config.default, 100_000) (* single segment *);
    ]

let test_segment_invariance () =
  let strace, sevts = prepare "parser" in
  let run seg = Score.analyze ~segment_insns:seg Config.default (window_source strace sevts) in
  let r0 = run 4096 in
  List.iter
    (fun seg ->
      let r = run seg in
      if r.Score.times <> r0.Score.times then
        Alcotest.failf "segment_insns %d changed the aggregate" seg)
    [ 64; 2048; 8192 ]

let test_jobs_determinism () =
  let strace, sevts = prepare "eon" in
  let saved = Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs saved)
    (fun () ->
      Pool.set_jobs 1;
      let r1 = Score.analyze ~segment_insns:512 Config.default (window_source strace sevts) in
      Pool.set_jobs 4;
      let r4 = Score.analyze ~segment_insns:512 Config.default (window_source strace sevts) in
      if r1.Score.times <> r4.Score.times then
        Alcotest.fail "ICOST_JOBS 1 vs 4 changed the streamed aggregate")

(* ---- boundary bookkeeping: totals conserved across seams ---- *)

let test_seam_bookkeeping () =
  let strace, sevts = prepare "gap" in
  let n = Trace.length strace in
  let r = Score.analyze ~segment_insns:97 Config.default (window_source strace sevts) in
  (* every instruction lands in exactly one segment, segments are contiguous
     and monotone — no dropped or double-counted work at seams *)
  Alcotest.(check int) "covered" n r.Score.instrs;
  let expect_segments = (n + 96) / 97 in
  Alcotest.(check int) "segments" expect_segments r.Score.segments;
  ignore
    (List.fold_left
       (fun (next_id, next_start) (st : Score.seg_stat) ->
         Alcotest.(check int) "seg id" next_id st.Score.seg_id;
         Alcotest.(check int) "seg start" next_start st.Score.seg_start;
         if st.Score.seg_len <= 0 || st.Score.seg_len > 97 then
           Alcotest.failf "segment %d has bad length %d" st.Score.seg_id st.Score.seg_len;
         (next_id + 1, next_start + st.Score.seg_len))
       (0, 0) r.Score.seg_stats);
  (* the cycle frontier is monotone across segments *)
  ignore
    (List.fold_left
       (fun prev (st : Score.seg_stat) ->
         if st.Score.cum_cycles < prev then
           Alcotest.failf "cycle frontier shrank at segment %d" st.Score.seg_id;
         st.Score.cum_cycles)
       0 r.Score.seg_stats);
  (* and ends at the streaming simulator's own final cycle count *)
  (match List.rev r.Score.seg_stats with
   | last :: _ ->
     Alcotest.(check int) "frontier" r.Score.sim_cycles last.Score.cum_cycles
   | [] -> Alcotest.fail "no segments")

(* ---- bounded memory: peak live words do not grow with trace length ---- *)

let test_bounded_memory () =
  let w = Workload.find_exn "gcc" in
  let run n =
    Gc.compact ();
    let src = Source.of_program Config.default (w.Workload.build ()) ~warmup:500 ~max_insns:n in
    let r = Score.analyze ~segment_insns:2048 Config.default src in
    Alcotest.(check int) "instrs" n r.Score.instrs;
    r.Score.peak_heap_words
  in
  (* warm the major heap to its steady state so the measured peaks
     reflect the analysis, not GC growth heuristics *)
  ignore (run 30_000);
  (* three sizes, each doubling: live data is O(segment + window), so
     peak heap must grow sublinearly — a doubling input may move the
     heap-size high-water mark by GC pacing noise, but nowhere near 2x
     (and 4x the input must stay well under 2.5x the heap) *)
  let p1 = run 60_000 in
  let p2 = run 120_000 in
  let p3 = run 240_000 in
  let ratio a b = float_of_int a /. float_of_int b in
  if ratio p2 p1 > 1.5 || ratio p3 p2 > 1.5 || ratio p3 p1 > 2.5 then
    Alcotest.failf "peak heap grows with trace length: %d -> %d -> %d words" p1 p2 p3

(* ---- fault seam: poisoned segment -> typed error, aggregate intact ---- *)

let test_fault_seam () =
  let strace, sevts = prepare "bzip2" in
  let clean =
    Score.analyze ~segment_insns:512 Config.default (window_source strace sevts)
  in
  Fault.configure_exn "stream_segment:@3";
  let seg =
    Fun.protect
      ~finally:(fun () -> Fault.disable ())
      (fun () ->
        match
          Score.analyze ~segment_insns:512 Config.default (window_source strace sevts)
        with
        | _ -> Alcotest.fail "poisoned stream did not raise"
        | exception Score.Segment_fault seg -> seg)
  in
  Alcotest.(check int) "faulted segment" 2 seg;
  (* the poisoned run published nothing; a clean rerun is unperturbed *)
  let again =
    Score.analyze ~segment_insns:512 Config.default (window_source strace sevts)
  in
  if again.Score.times <> clean.Score.times then
    Alcotest.fail "aggregate corrupted by an aborted streaming run"

let test_empty_stream () =
  let r = Score.analyze Config.default (Source.of_arrays [||] [||]) in
  Alcotest.(check int) "instrs" 0 r.Score.instrs;
  Alcotest.(check int) "cycles" 0 r.Score.cycles;
  Alcotest.(check int) "segments" 0 r.Score.segments

(* ---- end to end: the program source equals the sliced-array source ---- *)

let test_program_source_equals_window () =
  let name = "vpr" in
  let warmup = 1200 and measure = 3000 in
  let strace, sevts = prepare ~warmup ~measure name in
  let via_arrays =
    Score.analyze ~segment_insns:700 Config.default (window_source strace sevts)
  in
  let via_program =
    Score.analyze ~segment_insns:700 Config.default
      (Source.of_program Config.default
         ((Workload.find_exn name).Workload.build ()) ~warmup ~max_insns:measure)
  in
  if via_arrays.Score.times <> via_program.Score.times then
    Alcotest.fail "of_program and of_arrays sources disagree"

(* ---- seeded: seams that split in-flight miss windows ----

   An alias-heavy generated workload keeps cache-line sharing and store
   forwarding in flight almost continuously, so a segment size well below
   the ROB window guarantees seams cut through open miss windows.  Both
   the streaming aggregate and the shotgun profiler's stitched result
   must be invariant to that: the stream stays bit-identical to the
   monolithic table, and [Profile.profile] keeps its canonical
   [aborted_by] order and fragment order regardless of job count. *)

module Gen = Icost_check.Gen
module Profile = Icost_profiler.Profile
module Cost = Icost_core.Cost

let test_seeded_miss_window_seams () =
  let cfg = Config.default in
  let program = Gen.generate ~profile:Gen.Alias_heavy 31415 in
  let trace =
    Interp.run ~config:{ Interp.default_config with max_instrs = 6000 } program
  in
  let evts, _ = Events.annotate cfg trace in
  let seg = 48 (* below the 64-entry window: seams always split it *) in
  (* sanity: some line-sharing source really does sit across a seam *)
  let crossing = ref 0 in
  Array.iteri
    (fun i (e : Events.evt) ->
      match e.Events.share_src with
      | Some j when j / seg < i / seg -> incr crossing
      | _ -> ())
    evts;
  Alcotest.(check bool) "seams split live miss windows" true (!crossing > 0);
  let expected, sim_cycles = monolithic_times cfg trace evts in
  let r =
    Score.analyze ~segment_insns:seg cfg
      (Source.of_arrays trace.Trace.instrs evts)
  in
  check_times "alias-heavy seed" expected r;
  Alcotest.(check int) "sim cycles" sim_cycles r.Score.sim_cycles;
  (* the profiler on the same seeded run: stitched stats and oracle are
     job-count invariant *)
  let result = Ooo.run cfg trace evts in
  let saved = Pool.jobs () in
  let p1, p4 =
    Fun.protect
      ~finally:(fun () -> Pool.set_jobs saved)
      (fun () ->
        Pool.set_jobs 1;
        let p1 = Profile.profile cfg program trace evts result in
        Pool.set_jobs 4;
        (p1, Profile.profile cfg program trace evts result))
  in
  Alcotest.(check bool) "stats (incl. canonical aborted_by) identical" true
    (p1.Profile.stats = p4.Profile.stats);
  let o1 = Profile.oracle p1 and o4 = Profile.oracle p4 in
  Array.iter
    (fun s ->
      let v1 = Cost.query o1 s and v4 = Cost.query o4 s in
      if v1 <> v4 then
        Alcotest.failf "profiler oracle differs on %s: %g vs %g"
          (Category.Set.name s) v1 v4)
    all_sets

let suite =
  ( "stream",
    [
      Alcotest.test_case "source of_program = slice" `Quick test_source_of_program;
      Alcotest.test_case "stream sim bit-identity" `Quick test_sim_golden;
      Alcotest.test_case "stream = monolithic (256 subsets)" `Quick
        test_stream_matches_monolithic;
      Alcotest.test_case "segment-size invariance" `Quick test_segment_invariance;
      Alcotest.test_case "jobs 1 vs 4 determinism" `Quick test_jobs_determinism;
      Alcotest.test_case "seam bookkeeping" `Quick test_seam_bookkeeping;
      Alcotest.test_case "bounded memory" `Slow test_bounded_memory;
      Alcotest.test_case "fault seam" `Quick test_fault_seam;
      Alcotest.test_case "empty stream" `Quick test_empty_stream;
      Alcotest.test_case "program source = window source" `Quick
        test_program_source_equals_window;
      Alcotest.test_case "seeded miss-window seams" `Quick
        test_seeded_miss_window_seams;
    ] )
