(* Tests for the deterministic fault-injection framework: spec parsing
   and normalization, the disabled fast path, probability determinism
   under a fixed seed, @K / @K+ schedules, trip semantics, and the
   accounting in the [fault.injected] telemetry counter. *)

module Fault = Icost_util.Fault
module Telemetry = Icost_util.Telemetry

(* every test leaves the global framework disabled *)
let wrap f () = Fun.protect ~finally:(fun () -> Fault.disable ()) f

let injected () = Telemetry.value (Telemetry.counter "fault.injected")

let test_parse_and_normalize () =
  List.iter
    (fun (spec, normalized) ->
      (match Fault.configure spec with
       | Ok () -> ()
       | Error msg -> Alcotest.fail (Printf.sprintf "%S rejected: %s" spec msg));
      Alcotest.(check bool) (spec ^ " enables") true (Fault.enabled ());
      Alcotest.(check (option string))
        (spec ^ " normalizes")
        (Some normalized) (Fault.active_spec ()))
    [
      ("worker_raise", "worker_raise:@1+;seed=0");
      ("a:0.5,b:@3,c:@2+;seed=7", "a:0.5,b:@3,c:@2+;seed=7");
      ("seed=9;x:1", "x:1;seed=9");
      ("b:@2+,a:0.25;seed=3", "b:@2+,a:0.25;seed=3");
    ];
  Fault.disable ();
  Alcotest.(check bool) "disable turns it off" false (Fault.enabled ());
  Alcotest.(check (option string)) "no spec when disabled" None
    (Fault.active_spec ())

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Fault.configure spec with
      | Error _ -> ()
      | Ok () -> Alcotest.fail (Printf.sprintf "%S should not parse" spec))
    [
      "";
      "a:";
      "a:1.5";
      "a:-0.1";
      "a:@0";
      "a:@x";
      "a:0.5:b";
      ";seed=1";
      "a;seed=";
      "a;seed=notanumber";
    ]

let test_from_env () =
  (* unset/empty: a no-op that leaves the framework alone *)
  Unix.putenv "ICOST_FAULTS" "";
  (match Fault.from_env () with
   | Ok () -> ()
   | Error msg -> Alcotest.fail ("empty env rejected: " ^ msg));
  Alcotest.(check bool) "empty env does not enable" false (Fault.enabled ());
  Unix.putenv "ICOST_FAULTS" "p:@1;seed=5";
  (match Fault.from_env () with
   | Ok () -> ()
   | Error msg -> Alcotest.fail ("env spec rejected: " ^ msg));
  Alcotest.(check (option string)) "env spec armed" (Some "p:@1;seed=5")
    (Fault.active_spec ());
  Unix.putenv "ICOST_FAULTS" ""

let test_disabled_fast_path () =
  let p = Fault.point "never_armed" in
  let before = injected () in
  for _ = 1 to 1000 do
    if Fault.fire p then Alcotest.fail "disabled point fired"
  done;
  Fault.trip p (* must not raise *);
  Alcotest.(check int) "no injections tallied" before (injected ())

let test_probability_deterministic () =
  let p = Fault.point "prob_point" in
  let run () =
    Fault.configure_exn "prob_point:0.3;seed=42";
    List.init 200 (fun _ -> Fault.fire p)
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "same seed, same sequence" true (a = b);
  let fired = List.length (List.filter Fun.id a) in
  Alcotest.(check bool)
    (Printf.sprintf "p=0.3 fired %d/200 times" fired)
    true
    (fired > 20 && fired < 120);
  Fault.configure_exn "prob_point:0.3;seed=43";
  let c = List.init 200 (fun _ -> Fault.fire p) in
  Alcotest.(check bool) "different seed, different sequence" false (a = c)

let test_schedules () =
  let once = Fault.point "sched_once" in
  let from = Fault.point "sched_from" in
  Fault.configure_exn "sched_once:@3,sched_from:@4+";
  let seq p = List.init 6 (fun _ -> Fault.fire p) in
  Alcotest.(check (list bool)) "@3 fires on the third hit only"
    [ false; false; true; false; false; false ]
    (seq once);
  Alcotest.(check (list bool)) "@4+ fires from the fourth hit onward"
    [ false; false; false; true; true; true ]
    (seq from);
  Alcotest.(check int) "hits counted" 6 (Fault.hits once);
  Alcotest.(check int) "fires counted" 1 (Fault.fired once);
  Alcotest.(check int) "from-fires counted" 3 (Fault.fired from);
  (* reconfigure resets the counters and replays the schedule *)
  Fault.configure_exn "sched_once:@3,sched_from:@4+";
  Alcotest.(check int) "hit count reset" 0 (Fault.hits once);
  Alcotest.(check (list bool)) "schedule replays after re-arm"
    [ false; false; true; false; false; false ]
    (seq once)

let test_trip () =
  let p = Fault.point "trip_point" in
  Fault.configure_exn "trip_point:@2";
  Fault.trip p (* hit 1: no fire *);
  (match Fault.trip p with
   | () -> Alcotest.fail "second hit should raise"
   | exception Fault.Injected name ->
     Alcotest.(check string) "exception carries the point name" "trip_point"
       name);
  Fault.trip p (* hit 3: quiet again *);
  Alcotest.(check int) "one injection" 1 (Fault.fired p)

(* the counter records with the telemetry sink disabled *)
let test_accounting () =
  let p = Fault.point "tally_point" in
  let before = injected () in
  Fault.configure_exn "tally_point";
  for _ = 1 to 5 do
    ignore (Fault.fire p)
  done;
  Alcotest.(check int) "fault.injected counts every injection" (before + 5)
    (injected ())

let suite =
  ( "fault",
    [
      Alcotest.test_case "spec parse and normalize" `Quick
        (wrap test_parse_and_normalize);
      Alcotest.test_case "malformed specs rejected" `Quick
        (wrap test_parse_errors);
      Alcotest.test_case "ICOST_FAULTS environment" `Quick (wrap test_from_env);
      Alcotest.test_case "disabled fast path never fires" `Quick
        (wrap test_disabled_fast_path);
      Alcotest.test_case "probability deterministic under seed" `Quick
        (wrap test_probability_deterministic);
      Alcotest.test_case "@K and @K+ schedules" `Quick (wrap test_schedules);
      Alcotest.test_case "trip raises the typed exception" `Quick
        (wrap test_trip);
      Alcotest.test_case "injection accounting" `Quick (wrap test_accounting);
    ] )
