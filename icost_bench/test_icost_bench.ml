(* Unit tests of the benchmark's own arithmetic: percentile choice, the
   seeded traffic schedule, span self time, layer accounting and the
   compare verdicts. *)

open Icost_bench_lib

let close_to = Alcotest.float 1e-9

let test_percentiles () =
  let xs = Array.init 200 (fun i -> float_of_int (200 - i)) in
  Alcotest.check close_to "p50" 100. (Pct.percentile xs 0.5);
  Alcotest.check close_to "p95" 190. (Pct.percentile xs 0.95);
  Alcotest.check close_to "median of even count" 100.5 (Pct.median xs);
  Alcotest.(check int) "beyond p95 of 200" 10 (Pct.beyond 200 0.95);
  Alcotest.(check bool) "p95 of 200 is reportable" true (Pct.reportable 200 0.95);
  Alcotest.(check bool) "p95 of 199 is not" false (Pct.reportable 199 0.95);
  Alcotest.(check (option (float 0.))) "highest of 1000" (Some 0.99) (Pct.highest_reportable 1000);
  Alcotest.(check (option (float 0.))) "highest of 150" (Some 0.9) (Pct.highest_reportable 150);
  Alcotest.(check (option (float 0.))) "highest of 15" None (Pct.highest_reportable 15);
  Alcotest.(check string) "a p95 short of ten beyond names the one that has them"
    "150 samples; only p90 has ten beyond it" (Pct.tail_note 150)

(* statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25] *)
let test_quartiles () =
  let q1, q2, q3 = Pct.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close_to "q1" 2.75 q1;
  Alcotest.check close_to "q2" 5.5 q2;
  Alcotest.check close_to "q3" 8.25 q3;
  Alcotest.check close_to "iqr" 5.5 (Pct.iqr (Array.init 10 (fun i -> float_of_int (i + 1))))

let kernels = [ "gcc"; "mcf"; "gzip" ]
let engines = [ "graph"; "stream" ]

let test_schedule () =
  let arr seed = Schedule.arrivals ~seed ~rate:50. ~duration:10. in
  Alcotest.(check bool) "same seed, same arrivals" true (arr 7 = arr 7);
  Alcotest.(check bool) "other seed, other arrivals" false (arr 7 = arr 8);
  let a = arr 7 in
  Alcotest.(check bool) "about rate x duration arrivals" true
    (Array.length a > 400 && Array.length a < 600);
  Alcotest.(check bool) "increasing, within the phase" true
    (Array.for_all (fun t -> t >= 0. && t < 10.) a
    && Array.for_all Fun.id (Array.init (Array.length a - 1) (fun i -> a.(i) < a.(i + 1))));
  let cold seed =
    let c = Schedule.colds ~seed ~kernels ~engines ~reserved:[ 5000 ] in
    List.init 60 (fun _ -> Schedule.next_cold c)
  in
  Alcotest.(check bool) "same seed, same cold keys" true (cold 3 = cold 3);
  Alcotest.(check bool) "other seed, other cold keys" false (cold 3 = cold 4);
  let keys = cold 3 in
  let prep = List.map (fun (k : Schedule.cold) -> (k.kernel, k.measure)) keys in
  Alcotest.(check int) "preparation keys never repeat" 60
    (List.length (List.sort_uniq compare prep));
  Alcotest.(check bool) "windows in range, hot window avoided" true
    (List.for_all
       (fun (k : Schedule.cold) -> k.measure >= 3000 && k.measure <= 7000 && k.measure <> 5000)
       keys);
  (* every (kernel, engine) pair once per cycle of six *)
  let first = List.filteri (fun i _ -> i < 6) keys in
  Alcotest.(check int) "one cycle covers every pair" 6
    (List.length
       (List.sort_uniq compare (List.map (fun (k : Schedule.cold) -> (k.kernel, k.engine)) first)));
  let m = Schedule.mix ~seed:5 ~hot:48 in
  let kinds = List.init 1000 (fun _ -> Schedule.next m) in
  Alcotest.(check int) "one cold in ten" 100 (List.length (List.filter (( = ) `Cold) kinds))

let test_self_time () =
  let sp = Spans.create 8 in
  let root = Spans.add sp ~name:"root" ~id:0 ~parent:(-1) ~start:0. ~stop:10. () in
  let a = Spans.add sp ~name:"a" ~id:0 ~parent:root ~start:1. ~stop:4. () in
  ignore (Spans.add sp ~name:"b" ~id:0 ~parent:root ~start:3. ~stop:6. ());
  ignore (Spans.add sp ~name:"a.x" ~id:0 ~parent:a ~start:2. ~stop:3. ());
  (* a child reaching past its parent only covers the parent's part *)
  ignore (Spans.add sp ~name:"c" ~id:0 ~parent:root ~start:9. ~stop:12. ());
  let self = Spans.self_times sp in
  Alcotest.check close_to "root: 10 - union [1,6] - [9,10]" 4. self.(root);
  Alcotest.check close_to "a: 3 - 1" 2. self.(a);
  Alcotest.check close_to "by name" 2. (Spans.self_total sp "a");
  let full = Spans.create 1 in
  ignore (Spans.add full ~name:"x" ~id:0 ~parent:(-1) ~start:0. ~stop:1. ());
  Alcotest.(check int) "full buffer drops" (-1)
    (Spans.add full ~name:"y" ~id:0 ~parent:(-1) ~start:0. ~stop:1. ());
  Alcotest.(check int) "and counts it" 1 full.Spans.dropped;
  let st = Spans.create 4 in
  let outer = Spans.enter st ~at:0. ~name:"outer" ~id:0 () in
  let inner = Spans.enter st ~at:1. ~name:"inner" ~id:0 () in
  Spans.leave st ~at:2. inner;
  Spans.leave st ~at:5. outer;
  Alcotest.(check int) "entered spans nest" outer st.Spans.parent.(inner);
  Alcotest.check close_to "outer self" 4. (Spans.self_times st).(outer)

let test_layer_accounting () =
  let probed = [ 10.; 20.; 30.; 15.; 5. ] in
  Alcotest.check close_to "carry_fold is the remainder" 20.
    (Stream_wl.carry_fold ~analyze:100. ~probed);
  Alcotest.check close_to "cover" 0.8 (Stream_wl.cover_frac ~analyze:100. ~probed);
  Alcotest.check close_to "double counting shows above 1" 1.2
    (Stream_wl.cover_frac ~analyze:100. ~probed:[ 60.; 60. ])

let test_compare () =
  let lower = { Compare.better_lower = true; bound = 0.1 } in
  let parent = Array.init 10 (fun i -> 100. +. float_of_int (i mod 3)) in
  let v ~change = Compare.verdict_name (Compare.judge lower ~parent ~change) in
  Alcotest.(check string) "clearly faster" "improved" (v ~change:(Array.map (fun x -> x -. 20.) parent));
  Alcotest.(check string) "same" "no worse" (v ~change:parent);
  Alcotest.(check string) "20% slower" "regressed" (v ~change:(Array.map (fun x -> x *. 1.2) parent));
  let noisy = Array.init 10 (fun i -> if i mod 2 = 0 then 50. else 150.) in
  Alcotest.(check string) "parent spread wider than the bound" "unresolved"
    (Compare.verdict_name (Compare.judge lower ~parent:noisy ~change:noisy))

let () =
  Alcotest.run "icost_bench"
    [
      ( "bench",
        [
          Alcotest.test_case "percentile choice" `Quick test_percentiles;
          Alcotest.test_case "quartiles as Python computes them" `Quick test_quartiles;
          Alcotest.test_case "seeded schedule and cold keys" `Quick test_schedule;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "carry_fold and cover arithmetic" `Quick test_layer_accounting;
          Alcotest.test_case "compare verdicts" `Quick test_compare;
        ] );
    ]
