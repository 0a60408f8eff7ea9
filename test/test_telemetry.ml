(* Tests for the telemetry sink and its exporters: span nesting, counter
   atomicity under the domain pool, the allocation-free disabled path on
   the hottest instrumented call site (Graph.eval_into), and the JSON
   artifacts round-tripping through an independent parser with the run
   manifest present. *)

module Telemetry = Icost_util.Telemetry
module Pool = Icost_util.Pool
module Texport = Icost_report.Telemetry_export
module Interp = Icost_isa.Interp
module Config = Icost_uarch.Config
module Events = Icost_uarch.Events
module Ooo = Icost_sim.Ooo
module Build = Icost_depgraph.Build
module Graph = Icost_depgraph.Graph

(* Every test leaves the global sink exactly as it found it: disabled,
   empty, with the real clock. *)
let with_clean_sink f =
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ();
      Telemetry.set_clock Unix.gettimeofday)
    f

(* ---------- spans ---------- *)

(* Deterministic clock: each read advances by 1 ms. *)
let ticking_clock () =
  let t = ref 0. in
  fun () ->
    let v = !t in
    t := v +. 0.001;
    v

let test_span_nesting () =
  with_clean_sink @@ fun () ->
  Telemetry.set_clock (ticking_clock ());
  Telemetry.enable ();
  let outer = Telemetry.start_span "outer" in
  let inner = Telemetry.start_span "inner" in
  Telemetry.end_span inner ~attrs:[ ("k", "v") ];
  Telemetry.end_span outer;
  let sibling = Telemetry.start_span "sibling" in
  Telemetry.end_span sibling;
  match Telemetry.spans () with
  | [ o; i; s ] ->
    Alcotest.(check string) "outer first (sorted by start)" "outer" o.name;
    Alcotest.(check string) "inner second" "inner" i.name;
    Alcotest.(check string) "sibling last" "sibling" s.name;
    Alcotest.(check int) "outer is a root" 0 o.Telemetry.parent;
    Alcotest.(check int) "inner nested under outer" o.id i.Telemetry.parent;
    Alcotest.(check int) "sibling is a root again" 0 s.Telemetry.parent;
    Alcotest.(check (list (pair string string)))
      "attrs recorded"
      [ ("k", "v") ]
      i.Telemetry.attrs;
    Alcotest.(check bool) "inner dur = 1 tick" true (abs_float (i.dur -. 0.001) < 1e-9);
    Alcotest.(check bool) "outer dur = 3 ticks" true (abs_float (o.dur -. 0.003) < 1e-9);
    Alcotest.(check bool) "spans ordered by start" true
      (o.start <= i.start && i.start <= s.start)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let test_with_span_exception () =
  with_clean_sink @@ fun () ->
  Telemetry.enable ();
  (try Telemetry.with_span "boom" (fun () -> failwith "boom") with Failure _ -> ());
  match Telemetry.spans () with
  | [ s ] -> Alcotest.(check string) "span closed on exception" "boom" s.name
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* [enable] gates spans only: counters and gauges record either way *)
let test_disabled_spans_invisible () =
  with_clean_sink @@ fun () ->
  let sp = Telemetry.start_span "ghost" in
  Telemetry.end_span sp;
  Telemetry.with_span "ghost2" (fun () -> ());
  let c = Telemetry.counter "test.disabled_counter" in
  let g = Telemetry.gauge "test.disabled_gauge" in
  Telemetry.incr c;
  Telemetry.add c 2;
  Telemetry.set g 1.5;
  Alcotest.(check int) "no spans recorded while disabled" 0
    (List.length (Telemetry.spans ()));
  Alcotest.(check int) "counter counts while disabled" 3 (Telemetry.value c);
  Alcotest.(check (float 0.)) "gauge holds its value while disabled" 1.5
    (Telemetry.gauge_value g)

(* ---------- counters under the pool ---------- *)

let test_counter_atomic_under_pool () =
  with_clean_sink @@ fun () ->
  Telemetry.enable ();
  let c = Telemetry.counter "test.pool_increments" in
  let n = 20_000 in
  let prev = Pool.jobs () in
  Pool.set_jobs 4;
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs prev)
    (fun () ->
      Pool.parallel_iter (fun _ -> Telemetry.incr c) (Array.init n Fun.id));
  Alcotest.(check int) "no lost increments across domains" n (Telemetry.value c);
  Alcotest.(check bool) "counter visible in export" true
    (List.mem_assoc "test.pool_increments" (Telemetry.counters ()))

(* ---------- allocation-free disabled path ---------- *)

let small_graph () =
  let w = Icost_workloads.Workload.find_exn "gzip" in
  let trace =
    Interp.run ~config:{ Interp.default_config with max_instrs = 1500 } (w.build ())
  in
  let cfg = Config.default in
  let evts, _ = Events.annotate cfg trace in
  let r = Ooo.run cfg trace evts in
  Build.of_sim cfg trace evts r

let test_disabled_eval_into_alloc_free () =
  with_clean_sink @@ fun () ->
  let g = small_graph () in
  let buf = Array.make (Graph.num_nodes g) 0 in
  (* warm up: first call may trigger lazy initialization *)
  Graph.eval_into g buf;
  let iters = 100 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    Graph.eval_into g buf
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int iters in
  (* eval_into itself allocates ~2 minor words per call (one boxed ref);
     the disabled telemetry branch must not add to that. *)
  Alcotest.(check bool)
    (Printf.sprintf "eval_into stays allocation-free with sink off (%.2f w/call)"
       per_call)
    true (per_call <= 4.0)

(* ---------- JSON round-trip ---------- *)

(* Minimal recursive-descent JSON parser, independent of the emitter, so
   the round-trip test actually validates the artifact syntax. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let fail msg = Alcotest.failf "JSON parse error at %d: %s" !pos msg in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\n' | '\r' | '\t' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %c" c) in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then (pos := !pos + String.length lit; v)
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | '"' -> advance (); Buffer.contents buf
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let hex = String.sub s (!pos + 1) 4 in
          pos := !pos + 4;
          let code = int_of_string ("0x" ^ hex) in
          if code < 128 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_char buf '?'
        | c -> fail (Printf.sprintf "bad escape %c" c));
        advance ();
        loop ()
      | '\000' -> fail "unterminated string"
      | c -> Buffer.add_char buf c; advance (); loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      advance ()
    done;
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then (advance (); Obj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((k, v) :: acc)
          | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then (advance (); Arr [])
      else
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); elems (v :: acc)
          | ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elems []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected %c" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field obj k =
  match obj with
  | Obj fields -> (
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> Alcotest.failf "missing field %s" k)
  | _ -> Alcotest.failf "not an object looking up %s" k

let str_field obj k =
  match field obj k with Str s -> s | _ -> Alcotest.failf "%s not a string" k

let check_manifest m =
  Alcotest.(check string) "manifest.tool" "icost" (str_field m "tool");
  Alcotest.(check string) "manifest.ocaml" Sys.ocaml_version (str_field m "ocaml");
  Alcotest.(check string) "manifest.config digest" "cfg-digest"
    (str_field m "config");
  (match field m "workloads" with
  | Arr [ Str "gzip"; Str "mcf" ] -> ()
  | _ -> Alcotest.fail "manifest.workloads wrong");
  (match field m "seed" with
  | Num f -> Alcotest.(check int) "manifest.seed" 7 (int_of_float f)
  | _ -> Alcotest.fail "manifest.seed not a number");
  (match field m "jobs" with
  | Num f -> Alcotest.(check bool) "manifest.jobs >= 1" true (f >= 1.)
  | _ -> Alcotest.fail "manifest.jobs not a number");
  (* faults are off in this test, so the manifest marks a clean run *)
  Alcotest.(check string) "manifest.faults" "none" (str_field m "faults");
  (match field m "retries" with
  | Num f -> Alcotest.(check bool) "manifest.retries >= 0" true (f >= 0.)
  | _ -> Alcotest.fail "manifest.retries not a number");
  (* supervision tallies: present in every manifest (0 when the process
     runs no shard fleet), so chaos artifacts are self-describing *)
  List.iter
    (fun k ->
      match field m k with
      | Num f ->
        Alcotest.(check bool) (Printf.sprintf "manifest.%s >= 0" k) true
          (f >= 0.)
      | _ -> Alcotest.failf "manifest.%s not a number" k)
    [ "respawns"; "failovers" ]

let test_artifacts_roundtrip () =
  with_clean_sink @@ fun () ->
  Telemetry.set_clock (ticking_clock ());
  Telemetry.enable ();
  let c = Telemetry.counter "test.export_counter" in
  Telemetry.add c 42;
  let g = Telemetry.gauge "test.export_gauge" in
  Telemetry.set g 2.5;
  Telemetry.with_span "root" (fun () ->
      Telemetry.with_span "child" ~attrs:[ ("quote", "a\"b") ] (fun () -> ()));
  let m =
    Texport.manifest ~config_digest:"cfg-digest" ~seed:7
      ~workloads:[ "gzip"; "mcf" ] ()
  in
  (* trace artifact *)
  let trace = parse_json (Texport.trace_json m) in
  check_manifest (field trace "otherData");
  (match field trace "traceEvents" with
  | Arr evs ->
    Alcotest.(check int) "two trace events" 2 (List.length evs);
    let names = List.map (fun e -> str_field e "name") evs in
    Alcotest.(check bool) "root and child present" true
      (List.mem "root" names && List.mem "child" names);
    List.iter
      (fun e ->
        match (field e "ts", field e "dur") with
        | Num ts, Num dur ->
          Alcotest.(check bool) "ts/dur are non-negative us" true
            (ts >= 0. && dur > 0.)
        | _ -> Alcotest.fail "ts/dur not numbers")
      evs
  | _ -> Alcotest.fail "traceEvents not an array");
  (* metrics artifact *)
  let metrics = parse_json (Texport.metrics_json m) in
  Alcotest.(check string) "metrics schema" "icost.metrics.v1"
    (str_field metrics "schema");
  check_manifest (field metrics "manifest");
  (match field (field metrics "counters") "test.export_counter" with
  | Num f -> Alcotest.(check int) "counter exported" 42 (int_of_float f)
  | _ -> Alcotest.fail "counter missing from metrics");
  (match field (field metrics "gauges") "test.export_gauge" with
  | Num f -> Alcotest.(check (float 1e-9)) "gauge exported" 2.5 f
  | _ -> Alcotest.fail "gauge missing from metrics");
  match field (field metrics "spans") "count" with
  | Num f -> Alcotest.(check int) "span count" 2 (int_of_float f)
  | _ -> Alcotest.fail "span count missing"

let test_reset () =
  with_clean_sink @@ fun () ->
  Telemetry.enable ();
  let c = Telemetry.counter "test.reset_counter" in
  Telemetry.incr c;
  Telemetry.with_span "gone" (fun () -> ());
  Telemetry.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Telemetry.value c);
  Alcotest.(check int) "spans dropped" 0 (List.length (Telemetry.spans ()))

(* A long-lived traced process stays bounded: past the ring's capacity
   the oldest spans give way to the newest, and each one dropped is
   counted. *)
let test_span_ring_bounded () =
  with_clean_sink @@ fun () ->
  Telemetry.set_clock (ticking_clock ());
  Telemetry.enable ();
  Telemetry.reset ();
  let n = Telemetry.span_capacity + 10 in
  for i = 1 to n do
    Telemetry.with_span (if i <= 10 then "old" else "new") (fun () -> ())
  done;
  let spans = Telemetry.spans () in
  Alcotest.(check int) "ring keeps capacity spans" Telemetry.span_capacity
    (List.length spans);
  Alcotest.(check bool) "the oldest were dropped" true
    (List.for_all (fun (s : Telemetry.span_record) -> s.name = "new") spans);
  Alcotest.(check int) "drops counted" 10
    (Telemetry.value (Telemetry.counter "telemetry.spans_dropped"))

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
      Alcotest.test_case "with_span closes on exception" `Quick
        test_with_span_exception;
      Alcotest.test_case "disabled sink records nothing" `Quick
        test_disabled_spans_invisible;
      Alcotest.test_case "counters atomic under the pool" `Quick
        test_counter_atomic_under_pool;
      Alcotest.test_case "eval_into alloc-free with sink off" `Quick
        test_disabled_eval_into_alloc_free;
      Alcotest.test_case "trace/metrics JSON round-trip + manifest" `Quick
        test_artifacts_roundtrip;
      Alcotest.test_case "reset zeroes the sink" `Quick test_reset;
      Alcotest.test_case "span ring bounded, drops counted" `Quick
        test_span_ring_bounded;
    ] )
