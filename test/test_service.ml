(* Tests for the service layer: the icost.rpc.v1 wire protocol (round
   trips, malformed and over-long requests), the single-flight LRU cache,
   scheduler backpressure, the bounded cost memo table, and two
   end-to-end daemon sessions over real Unix sockets — checking that
   served answers are bit-identical to direct Runner computations, that
   concurrent clients on one key trigger a single preparation, and that
   shutdown mid-request still answers the in-flight query. *)

module Telemetry = Icost_util.Telemetry
module Category = Icost_core.Category
module Cost = Icost_core.Cost
module Breakdown = Icost_core.Breakdown
module Trace = Icost_isa.Trace
module Config = Icost_uarch.Config
module Graph = Icost_depgraph.Graph
module Build = Icost_depgraph.Build
module Sampler = Icost_profiler.Sampler
module Workload = Icost_workloads.Workload
module Runner = Icost_experiments.Runner
module Json = Icost_service.Json
module P = Icost_service.Protocol
module Cache = Icost_service.Cache
module Scheduler = Icost_service.Scheduler
module Server = Icost_service.Server
module Client = Icost_service.Client
module Breaker = Icost_service.Breaker
module Fault = Icost_util.Fault

let bits = Int64.bits_of_float

let check_feq what a b = Alcotest.(check int64) what (bits a) (bits b)

let fault_injected () = Telemetry.value (Telemetry.counter "fault.injected")

(* Raw writes against a daemon that may close mid-write raise EPIPE
   instead of killing the test binary. *)
let sigpipe_off () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let tmp_socket tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "icost-test-%s-%d.sock" tag (Unix.getpid ()))

let rec wait_for ?(tries = 2500) what pred =
  if pred () then ()
  else if tries = 0 then Alcotest.fail ("timeout waiting for " ^ what)
  else begin
    Thread.delay 0.002;
    wait_for ~tries:(tries - 1) what pred
  end

(* ---------- protocol round trips ---------- *)

let sample_target =
  {
    P.workload = "gcc";
    variant = "dl1";
    engine = "multisim";
    warmup = 123;
    measure = 456;
    seed = 789;
  }

let test_request_roundtrip () =
  let ops =
    [
      P.Breakdown { target = sample_target; focus = "bmisp" };
      P.Icost { target = P.{ default_target with workload = "gzip" };
                sets = [ "dl1"; "dl1,win"; "bw" ] };
      P.Graph_stats { target = sample_target };
      P.Sweep
        {
          target = sample_target;
          params = [ "window=16..256"; "mem_lat=25..100:25" ];
        };
      P.Status;
      P.Health;
      P.Drain;
      P.Shutdown;
      P.Batch
        {
          ops =
            [
              P.Breakdown { target = sample_target; focus = "dl1" };
              P.Status;
              P.Icost { target = sample_target; sets = [ "bw" ] };
            ];
        };
    ]
  in
  List.iteri
    (fun i op ->
      List.iter
        (fun deadline_ms ->
          let r = { P.req_id = i; deadline_ms; op } in
          match P.decode_request (P.encode_request r) with
          | Ok r' ->
            Alcotest.(check bool)
              (Printf.sprintf "request %d round-trips" i)
              true (r = r')
          | Error msg -> Alcotest.fail ("round trip rejected: " ^ msg))
        [ None; Some 1500 ])
    ops

let test_reply_roundtrip () =
  let awkward = [ 0.1; 1. /. 3.; 4. *. atan 1.; 1e-300; 9885.; -17.25 ] in
  let bodies =
    [
      Ok
        (P.R_breakdown
           {
             baseline = List.nth awkward 4;
             rows =
               List.mapi
                 (fun i f ->
                   { P.row_label = Printf.sprintf "row%d" i;
                     row_percent = f;
                     row_cycles = f *. 7. })
                 awkward;
           });
      Ok
        (P.R_icost
           {
             baseline = 0.1 +. 0.2;
             rows =
               [
                 { P.set_name = "dl1+win"; set_cost = 1. /. 7.;
                   set_icost = -1. /. 7.; set_class = "serial" };
               ];
           });
      Ok (P.R_graph_stats
            { instrs = 5000; nodes = 20001; edges = 63; critical_path = 9885 });
      Ok
        (P.R_status
           {
             P.uptime_s = 12.75;
             requests_total = 42;
             inflight = 2;
             queue_depth = 3;
             sessions = 4;
             cache_hits = 10;
             cache_misses = 5;
             cache_evictions = 1;
             snapshot_hits = 2;
             snapshot_misses = 1;
             snapshot_rejects = 1;
             sweep_points = 7;
             sweep_cache_hits = 3;
             segments = 11;
             stream_peak_mb = 24.5;
             pool_jobs = 8;
             shards = 2;
             respawns = 1;
             failovers = 2;
             health = "degraded";
             draining = false;
           });
      Ok (P.R_health { P.h_health = "ok"; h_breakers_open = 2; h_shed = 5 });
      Ok P.R_shutdown;
      Ok (P.R_drain { restarted = 3 });
      Ok
        (P.R_batch
           {
             results =
               [
                 Ok (P.R_graph_stats
                       { instrs = 1; nodes = 2; edges = 3; critical_path = 4 });
                 Error (P.Bad_request, "unknown workload \"nope\"");
                 Ok P.R_shutdown;
               ];
           });
      Ok
        (P.R_sweep
           {
             baseline = 9885.;
             curves =
               [
                 {
                   P.curve_param = "window";
                   curve_base = 64;
                   curve_knee =
                     Some
                       { P.kn_value = 128; kn_marginal = 1. /. 3.;
                         kn_saturated = true };
                   curve_points =
                     [
                       { P.sp_value = 16; sp_outcome = Ok (12000.25, 0.) };
                       { P.sp_value = 32;
                         sp_outcome = Error (P.Internal, "injected fault") };
                       { P.sp_value = 64;
                         sp_outcome = Ok (9885., -.(1. /. 7.)) };
                     ];
                 };
                 (* a flat single-point curve: no knee field on the wire *)
                 {
                   P.curve_param = "mem_ports";
                   curve_base = 2;
                   curve_knee = None;
                   curve_points =
                     [ { P.sp_value = 2; sp_outcome = Ok (9885., 0.) } ];
                 };
               ];
           });
      Error (P.Bad_request, "unknown workload \"nope\"");
      Error (P.Overloaded, "queue full");
      Error (P.Unavailable, "circuit breaker open");
      Error (P.Deadline_exceeded, "deadline elapsed");
      Error (P.Shutting_down, "draining");
      Error (P.Internal, "boom");
    ]
  in
  List.iteri
    (fun i body ->
      let r = { P.rep_id = i; body } in
      match P.decode_reply (P.encode_reply r) with
      | Ok r' ->
        Alcotest.(check bool)
          (Printf.sprintf "reply %d round-trips" i)
          true (r = r')
      | Error msg -> Alcotest.fail ("reply round trip rejected: " ^ msg))
    bodies

let test_decode_rejects () =
  let cases =
    [
      ("not json", "this is not json");
      ("wrong version", {|{"v":"icost.rpc.v0","id":1,"op":"status"}|});
      ("missing workload", {|{"v":"icost.rpc.v1","id":1,"op":"breakdown"}|});
      ("unknown op", {|{"v":"icost.rpc.v1","id":1,"op":"frobnicate"}|});
      ( "bad measure",
        {|{"v":"icost.rpc.v1","id":1,"op":"breakdown","workload":"gcc","measure":0}|}
      );
      ( "over-long line",
        P.encode_request
          { P.req_id = 1; deadline_ms = None;
            op = P.Breakdown
                { target =
                    { sample_target with
                      P.workload = String.make (P.max_request_bytes + 1) 'x' };
                  focus = "dl1" } } );
      ("batch without reqs", {|{"v":"icost.rpc.v1","id":1,"op":"batch"}|});
      ( "batch reqs not an array",
        {|{"v":"icost.rpc.v1","id":1,"op":"batch","reqs":"status"}|} );
      ("empty batch", {|{"v":"icost.rpc.v1","id":1,"op":"batch","reqs":[]}|});
      ( "batch item malformed",
        {|{"v":"icost.rpc.v1","id":1,"op":"batch","reqs":[{"op":"nope"}]}|} );
      ( "oversized batch",
        P.encode_request
          { P.req_id = 1; deadline_ms = None;
            op = P.Batch
                { ops =
                    List.init (P.max_batch_items + 1) (fun _ -> P.Status) } }
      );
      ( "sweep without params",
        {|{"v":"icost.rpc.v1","id":1,"op":"sweep","workload":"gcc"}|} );
      ( "sweep params not an array",
        {|{"v":"icost.rpc.v1","id":1,"op":"sweep","workload":"gcc","params":"window=16..64"}|}
      );
      ( "sweep with empty params",
        {|{"v":"icost.rpc.v1","id":1,"op":"sweep","workload":"gcc","params":[]}|}
      );
      ( "sweep with too many axes",
        P.encode_request
          { P.req_id = 1; deadline_ms = None;
            op = P.Sweep
                { target = sample_target;
                  params =
                    List.init (P.max_sweep_axes + 1)
                      (fun i -> Printf.sprintf "p%d=1..2" i) } } );
    ]
  in
  List.iter
    (fun (what, line) ->
      match P.decode_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (what ^ " should have been rejected"))
    cases

let test_error_code_names () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        ("code " ^ P.error_code_name c ^ " round-trips")
        true
        (P.error_code_of_name (P.error_code_name c) = Some c))
    [ P.Bad_request; P.Overloaded; P.Unavailable; P.Deadline_exceeded;
      P.Shutting_down; P.Internal ];
  Alcotest.(check bool)
    "unknown code name" true
    (P.error_code_of_name "no_such_code" = None)

let test_retry_classification () =
  List.iter
    (fun (op, expect) ->
      Alcotest.(check bool) "idempotency" expect (P.idempotent op))
    [
      (P.Breakdown { target = sample_target; focus = "dl1" }, true);
      (P.Icost { target = sample_target; sets = [ "dl1" ] }, true);
      (P.Graph_stats { target = sample_target }, true);
      (P.Status, true);
      (P.Health, true);
      (P.Shutdown, false);
      (* drain restarts the fleet: blindly re-sending one on a dropped
         connection could cycle the shards twice *)
      (P.Drain, false);
      (P.Batch { ops = [ P.Status; P.Health ] }, true);
      (P.Batch { ops = [ P.Status; P.Shutdown ] }, false);
    ];
  List.iter
    (fun (code, expect) ->
      Alcotest.(check bool)
        ("retryable " ^ P.error_code_name code)
        expect (P.retryable code))
    [
      (P.Overloaded, true);
      (P.Unavailable, true);
      (P.Internal, true);
      (P.Bad_request, false);
      (P.Deadline_exceeded, false);
      (P.Shutting_down, false);
    ]

(* The retry hint travels two ways: a structured [retry_after_ms] field
   on the error object (ignored by pre-supervision decoders) and a
   [retry_after_ms=N] clause inside the message text, which survives any
   relay that only preserves the message.  Status replies from
   pre-supervision servers lack the respawn tallies and must decode with
   zeros. *)
let test_retry_hints_and_compat () =
  let line =
    P.encode_error_reply ~rep_id:7 P.Unavailable
      (Printf.sprintf "shard 1 breaker open after restart storm; %s"
         (P.retry_after_clause 1234))
      ~retry_after_ms:1234
  in
  (match P.decode_reply line with
   | Ok { P.rep_id = 7; body = Error (P.Unavailable, msg) } ->
     Alcotest.(check (option int)) "hint recoverable from message"
       (Some 1234) (P.retry_after_of_msg msg)
   | _ -> Alcotest.fail "typed error reply did not decode");
  Alcotest.(check (option int)) "no hint" None
    (P.retry_after_of_msg "shard 1 unreachable: connection refused");
  Alcotest.(check (option int)) "clause round-trips alone" (Some 250)
    (P.retry_after_of_msg (P.retry_after_clause 250));
  (* a pre-supervision status frame: no respawns/failovers fields *)
  let legacy =
    "{\"v\":\"icost.rpc.v1\",\"id\":3,\"ok\":true,\"result\":{\"kind\":\
     \"status\",\"uptime_s\":1.5,\"requests_total\":2,\"inflight\":0,\
     \"queue_depth\":0,\"sessions\":0,\"cache_hits\":0,\"cache_misses\":0,\
     \"cache_evictions\":0,\"snapshot_hits\":0,\"snapshot_misses\":0,\
     \"snapshot_rejects\":0,\"sweep_points\":0,\"sweep_cache_hits\":0,\
     \"pool_jobs\":1,\"shards\":2,\"health\":\"ok\",\"draining\":false}}"
  in
  match P.decode_reply legacy with
  | Ok { P.body = Ok (P.R_status st); _ } ->
    Alcotest.(check int) "legacy respawns default" 0 st.P.respawns;
    Alcotest.(check int) "legacy failovers default" 0 st.P.failovers
  | _ -> Alcotest.fail "legacy status frame did not decode"

(* ---------- json ---------- *)

let test_json_float_roundtrip () =
  List.iter
    (fun f ->
      match Json.parse (Json.encode (Json.Float f)) with
      | Json.Float f' -> check_feq (Printf.sprintf "%h round-trips" f) f f'
      | _ -> Alcotest.fail "float parsed as non-float")
    [ 0.1; 1. /. 3.; 4. *. atan 1.; 1e-300; 1.7976931348623157e308; 2.5e-17 ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2"; "nul"; "{'a':1}" ]

(* Numbers that overflow to ±inf must be rejected at parse time: admitting
   them would hand the service a value [Json.encode] refuses to print. *)
let test_json_nonfinite_numbers () =
  List.iter
    (fun s ->
      match Json.parse s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s))
    [
      "1e309";
      "-1e309";
      "1e99999";
      "{\"x\":1e309}";
      "[1,2,1e400]";
      (* integer syntax, but wide enough to overflow the double fallback *)
      "1" ^ String.make 400 '0';
    ];
  (* integer syntax beyond native int range but finite as a double still
     parses, and the result survives an encode round trip *)
  (match Json.parse "12345678901234567890123" with
   | Json.Float f ->
     Alcotest.(check bool) "finite" true (Float.is_finite f);
     ignore (Json.encode (Json.Float f))
   | _ -> Alcotest.fail "wide integer should parse as Float");
  (* the encoder's own guard stays: a non-finite Float cannot be printed *)
  List.iter
    (fun f ->
      match Json.encode (Json.Float f) with
      | _ -> Alcotest.fail "encode of non-finite float should raise"
      | exception Invalid_argument _ -> ())
    [ Float.infinity; Float.neg_infinity; Float.nan ]

(* ---------- decoder robustness ---------- *)

(* A status request padded with an ignored field to an exact byte length.
   Unknown fields are skipped by the decoder, so only the length varies. *)
let status_line_of_length n =
  let skeleton = {|{"v":"icost.rpc.v1","id":7,"op":"status","pad":""}|} in
  let base = String.length skeleton in
  if n < base then invalid_arg "status_line_of_length";
  {|{"v":"icost.rpc.v1","id":7,"op":"status","pad":"|}
  ^ String.make (n - base) 'x' ^ {|"}|}

let test_decode_size_boundaries () =
  let at_cap = status_line_of_length P.max_request_bytes in
  Alcotest.(check int) "pad math" P.max_request_bytes (String.length at_cap);
  (match P.decode_request at_cap with
   | Ok { P.op = P.Status; _ } -> ()
   | Ok _ -> Alcotest.fail "at-cap line decoded to the wrong op"
   | Error m -> Alcotest.fail ("line of exactly the cap must decode: " ^ m));
  let over = status_line_of_length (P.max_request_bytes + 1) in
  (match P.decode_request over with
   | Error m ->
     Alcotest.(check bool) "size error names the cap" true
       (contains m (string_of_int P.max_request_bytes))
   | Ok _ -> Alcotest.fail "cap+1 line must be rejected");
  (* the decoder charges every byte it is handed — a trailing newline on
     an at-cap line tips it over the cap, so framing must be stripped by
     the caller (the server's reader does) before decoding *)
  match P.decode_request (at_cap ^ "\n") with
  | Error m ->
    Alcotest.(check bool) "unstripped framing counts against the cap" true
      (contains m (string_of_int P.max_request_bytes))
  | Ok _ -> Alcotest.fail "cap plus newline should not decode"

(* Hostile input must come back as [Error _], never as an exception: the
   server turns [Error] into a typed bad_request and keeps the connection
   alive, but an escaped exception would kill the connection thread. *)
let test_decode_fuzz_never_raises () =
  let prng = Icost_util.Prng.create 0x5eed in
  let feed what line =
    match P.decode_request line with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.fail
        (Printf.sprintf "decoder raised %s on %s" (Printexc.to_string e) what)
  in
  for i = 1 to 200 do
    let n = Icost_util.Prng.int prng 256 in
    let line =
      String.init n (fun _ -> Char.chr (Icost_util.Prng.int prng 256))
    in
    feed (Printf.sprintf "random case %d (%d bytes)" i n) line
  done;
  (* every proper prefix of a valid frame: truncation mid-token, mid-string,
     mid-escape, mid-number all included *)
  let valid =
    P.encode_request
      { P.req_id = 3;
        deadline_ms = Some 250;
        op = P.Icost { target = sample_target; sets = [ "dl1"; "dl1,win" ] } }
  in
  (match P.decode_request valid with
   | Ok _ -> ()
   | Error m -> Alcotest.fail ("frame should be valid before truncation: " ^ m));
  for k = 0 to String.length valid - 1 do
    feed (Printf.sprintf "prefix of %d bytes" k) (String.sub valid 0 k)
  done

(* ---------- cache ---------- *)

let test_cache_single_flight () =
  let cache : int Cache.t = Cache.create ~name:"test_sf" ~cap:4 in
  let builds = Atomic.make 0 in
  let results = Array.make 8 (-1) in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun i ->
            results.(i) <-
              Cache.find_or_add cache "k" (fun () ->
                  Atomic.incr builds;
                  Thread.delay 0.05;
                  42))
          i)
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "builder ran exactly once" 1 (Atomic.get builds);
  Array.iter (fun v -> Alcotest.(check int) "shared value" 42 v) results;
  let st = Cache.stats cache in
  Alcotest.(check int) "one miss" 1 st.Cache.misses;
  Alcotest.(check int) "seven hits" 7 st.Cache.hits

let test_cache_eviction_and_retry () =
  let cache : string Cache.t = Cache.create ~name:"test_ev" ~cap:2 in
  let builds = ref 0 in
  let get k =
    Cache.find_or_add cache k (fun () ->
        incr builds;
        k)
  in
  ignore (get "a");
  ignore (get "b");
  ignore (get "a") (* refresh a: b becomes the LRU entry *);
  ignore (get "c") (* over cap: evicts b *);
  Alcotest.(check int) "bounded" 2 (Cache.length cache);
  Alcotest.(check int) "one eviction" 1 (Cache.stats cache).Cache.evictions;
  Alcotest.(check string) "evicted key rebuilds" "b" (get "b");
  Alcotest.(check int) "a,b,c then b again" 4 !builds;
  (* supervision's eviction path: only resolved entries can be removed *)
  Alcotest.(check bool) "remove drops a ready entry" true
    (Cache.remove cache "b");
  Alcotest.(check bool) "remove on an absent key is a no-op" false
    (Cache.remove cache "nope");
  Alcotest.(check string) "removed key rebuilds" "b" (get "b");
  Alcotest.(check int) "b built again after remove" 5 !builds;
  (* shedding: trim to a smaller footprint, coldest entries first *)
  let shed = Cache.trim cache ~keep:1 in
  Alcotest.(check int) "trim sheds down to keep" 1 shed;
  Alcotest.(check int) "one ready entry left" 1 (Cache.length cache);
  Alcotest.(check int) "trim to zero clears the cache" 1
    (Cache.trim cache ~keep:0);
  Alcotest.(check int) "empty after full trim" 0 (Cache.length cache);
  (* a failing builder raises to its caller and leaves no poisoned entry *)
  let boom : int Cache.t = Cache.create ~name:"test_fail" ~cap:2 in
  (match Cache.find_or_add boom "k" (fun () -> failwith "boom") with
   | _ -> Alcotest.fail "builder exception should propagate"
   | exception Failure msg -> Alcotest.(check string) "builder error" "boom" msg);
  Alcotest.(check int) "retry after failed build" 7
    (Cache.find_or_add boom "k" (fun () -> 7))

(* The frame memo's probe and insert: [find_opt] counts exactly one hit or
   miss and inserts nothing; [add] inserts under the cap and counts no
   lookup, so a miss followed by its insert is one miss, not two. *)
let test_cache_find_opt_and_add () =
  let cache : string Cache.t = Cache.create ~name:"test_probe" ~cap:2 in
  let tally () =
    let st = Cache.stats cache in
    (st.Cache.hits, st.Cache.misses)
  in
  Alcotest.(check (option string)) "absent key" None (Cache.find_opt cache "a");
  Alcotest.(check (pair int int)) "probe counts one miss" (0, 1) (tally ());
  Alcotest.(check int) "probe inserts nothing" 0 (Cache.length cache);
  Cache.add cache "a" "A";
  Alcotest.(check (pair int int)) "add counts no lookup" (0, 1) (tally ());
  Alcotest.(check (option string)) "added value found" (Some "A")
    (Cache.find_opt cache "a");
  Alcotest.(check (pair int int)) "probe counts one hit" (1, 1) (tally ());
  Cache.add cache "a" "A'";
  Alcotest.(check (option string)) "a resident value is kept" (Some "A")
    (Cache.find_opt cache "a");
  Cache.add cache "b" "B";
  ignore (Cache.find_opt cache "a") (* refresh a: b becomes the LRU entry *);
  Cache.add cache "c" "C" (* over cap: evicts b *);
  Alcotest.(check int) "add respects the cap" 2 (Cache.length cache);
  Alcotest.(check int) "one eviction" 1 (Cache.stats cache).Cache.evictions;
  Alcotest.(check (option string)) "LRU entry evicted" None
    (Cache.find_opt cache "b");
  Alcotest.(check (option string)) "refreshed entry kept" (Some "A")
    (Cache.find_opt cache "a");
  (* a failed build leaves nothing for the probe to find, and [add] may
     then fill the key *)
  (try ignore (Cache.find_or_add cache "f" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check (option string)) "failed build is a miss" None
    (Cache.find_opt cache "f");
  Cache.add cache "f" "F";
  Alcotest.(check (option string)) "add replaces a failed build" (Some "F")
    (Cache.find_opt cache "f")

(* ---------- scheduler ---------- *)

let test_scheduler_backpressure () =
  let s = Scheduler.create ~workers:1 ~queue_limit:1 in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let ran = Atomic.make 0 in
  let job () =
    Mutex.lock gate;
    Mutex.unlock gate;
    Atomic.incr ran
  in
  (match Scheduler.submit s job with
   | `Accepted -> ()
   | _ -> Alcotest.fail "first job should be accepted");
  (* the single worker is now blocked on the gate *)
  wait_for "worker pickup" (fun () -> Scheduler.inflight s = 1);
  (match Scheduler.submit s job with
   | `Accepted -> ()
   | _ -> Alcotest.fail "second job fits the queue");
  Alcotest.(check int) "queued" 1 (Scheduler.queue_depth s);
  (match Scheduler.submit s job with
   | `Overloaded -> ()
   | _ -> Alcotest.fail "third job should be refused (queue full)");
  Mutex.unlock gate;
  Scheduler.drain s;
  Alcotest.(check int) "accepted jobs all ran" 2 (Atomic.get ran);
  Alcotest.(check int) "queue empty after drain" 0 (Scheduler.queue_depth s);
  match Scheduler.submit s job with
  | `Draining -> ()
  | _ -> Alcotest.fail "post-drain submissions refused"

(* ---------- bounded cost memo table ---------- *)

let test_memoize_cap () =
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
  @@ fun () ->
  Telemetry.reset ();
  Telemetry.enable ();
  let calls = ref 0 in
  let oracle =
    Cost.of_fn (fun s ->
        incr calls;
        float_of_int (10 * Category.Set.cardinal s) +. 1.)
  in
  let m = Cost.memoize ~cap:2 oracle in
  let q s = Cost.query m s in
  let s_empty = Category.Set.empty in
  let s_dl1 = Category.Set.singleton Category.Dl1 in
  let s_win = Category.Set.singleton Category.Win in
  check_feq "miss empty" 1. (q s_empty);
  check_feq "miss dl1" 11. (q s_dl1);
  Alcotest.(check int) "two underlying calls" 2 !calls;
  check_feq "hit empty" 1. (q s_empty) (* refresh: dl1 becomes the LRU *);
  Alcotest.(check int) "hit is free" 2 !calls;
  check_feq "miss win evicts dl1" 11. (q s_win);
  check_feq "evicted dl1 recomputes (evicts empty)" 11. (q s_dl1);
  Alcotest.(check int) "two recomputations" 4 !calls;
  check_feq "win still cached" 11. (q s_win);
  Alcotest.(check int) "still four" 4 !calls;
  match List.assoc_opt "cost.memo_evictions" (Telemetry.counters ()) with
  | Some n -> Alcotest.(check bool) "evictions counted" true (n >= 2)
  | None -> Alcotest.fail "cost.memo_evictions counter missing"

(* ---------- circuit breaker ---------- *)

let test_breaker () =
  let trips = Telemetry.counter "service.breaker_open" in
  let trips0 = Telemetry.value trips in
  let b = Breaker.create ~threshold:2 ~cooldown:0.05 () in
  Alcotest.(check bool) "fresh key closed" true (Breaker.check b "k" = `Ok);
  Breaker.failure b "k";
  Alcotest.(check bool) "below threshold stays closed" true
    (Breaker.check b "k" = `Ok);
  Breaker.failure b "k";
  Alcotest.(check bool) "threshold trips open" true (Breaker.check b "k" = `Open);
  Alcotest.(check int) "one key open" 1 (Breaker.open_count b);
  Alcotest.(check bool) "other keys unaffected" true
    (Breaker.check b "other" = `Ok);
  Thread.delay 0.06;
  Alcotest.(check bool) "cooldown elapses into half-open trial" true
    (Breaker.check b "k" = `Ok);
  (* the failure count survives the trip: one half-open failure re-opens *)
  Breaker.failure b "k";
  Alcotest.(check bool) "half-open failure re-opens" true
    (Breaker.check b "k" = `Open);
  Thread.delay 0.06;
  Breaker.success b "k";
  Alcotest.(check bool) "success closes the breaker" true
    (Breaker.check b "k" = `Ok);
  Alcotest.(check int) "no keys open" 0 (Breaker.open_count b);
  Alcotest.(check bool) "trips were counted" true
    (Telemetry.value trips - trips0 >= 2)

(* ---------- client connect errors ---------- *)

let test_connect_error_messages () =
  let missing = tmp_socket "absent" in
  if Sys.file_exists missing then Sys.remove missing;
  (match Client.connect ~socket:missing () with
   | _ -> Alcotest.fail "connect to a missing socket should fail"
   | exception Failure msg ->
     Alcotest.(check bool)
       ("missing socket names the cause: " ^ msg)
       true
       (contains msg "does not exist"));
  (* a bound-but-unlistened socket file: connection refused, the stale-file
     hint — distinct from the missing-file case *)
  let stale = tmp_socket "stale" in
  if Sys.file_exists stale then Sys.remove stale;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Sys.file_exists stale then Sys.remove stale)
  @@ fun () ->
  match Client.connect ~socket:stale () with
  | _ -> Alcotest.fail "connect to an unlistened socket should fail"
  | exception Failure msg ->
    Alcotest.(check bool)
      ("stale socket names the cause: " ^ msg)
      true
      (contains msg "refused")

(* ---------- end-to-end daemon sessions ---------- *)

type server_handle = {
  thread : Thread.t;
  outcome : (Server.stats, exn) result option ref;
}

let start_server opts =
  let outcome = ref None in
  let thread =
    Thread.create
      (fun () ->
        outcome :=
          Some (match Server.run opts with s -> Ok s | exception e -> Error e))
      ()
  in
  { thread; outcome }

let finish_server srv =
  Thread.join srv.thread;
  match !(srv.outcome) with
  | Some (Ok s) -> s
  | Some (Error e) -> raise e
  | None -> Alcotest.fail "server exited without reporting"

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let raw_send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* Read up to [n] newline-terminated lines (fewer on EOF). *)
let raw_read_lines fd n =
  let pending = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let take_line () =
    let s = Buffer.contents pending in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
      Buffer.clear pending;
      Buffer.add_string pending (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
  in
  let rec collect acc =
    if List.length acc >= n then List.rev acc
    else
      match take_line () with
      | Some line -> collect (line :: acc)
      | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> List.rev acc
        | k ->
          Buffer.add_string pending (Bytes.sub_string chunk 0 k);
          collect acc
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          List.rev acc)
  in
  collect []

let decode_reply_exn line =
  match P.decode_reply line with
  | Ok r -> r
  | Error msg -> Alcotest.fail ("undecodable reply: " ^ msg)

let req ?(id = 1) ?deadline_ms op = { P.req_id = id; deadline_ms; op }

(* Reply comparison that ignores the request id (everything else,
   including every float bit, is covered by the %.17g encoding). *)
let norm (r : P.reply) = P.encode_reply { r with P.rep_id = 0 }

let set_of_spec spec =
  String.split_on_char ',' spec
  |> List.map (fun n ->
         match Category.of_name (String.trim n) with
         | Some c -> c
         | None -> Alcotest.fail ("bad category in test: " ^ n))
  |> Category.Set.of_list

let test_serve_end_to_end () =
  sigpipe_off ();
  let socket = tmp_socket "e2e" in
  if Sys.file_exists socket then Sys.remove socket;
  let opts =
    { Server.default_opts with
      socket;
      workers = 2;
      queue_limit = 8;
      handle_signals = false }
  in
  let srv = start_server opts in
  let tg =
    { P.default_target with P.workload = "gcc"; warmup = 2000; measure = 800 }
  in
  let breakdown_op = P.Breakdown { target = tg; focus = "dl1" } in

  (* Concurrent identical cold queries: the server must prepare once and
     answer everyone.  These are the first requests the server sees, so
     the cache tallies below are exact. *)
  let n = 4 in
  let replies = Array.make n None in
  let clients =
    List.init n (fun i ->
        Thread.create
          (fun i ->
            Client.with_client ~retry_for:10.0 ~socket (fun c ->
                replies.(i) <- Some (Client.call c (req ~id:i breakdown_op))))
          i)
  in
  List.iter Thread.join clients;
  let first =
    match replies.(0) with
    | Some r -> r
    | None -> Alcotest.fail "missing reply"
  in
  Array.iteri
    (fun i r ->
      match r with
      | Some r ->
        Alcotest.(check string)
          (Printf.sprintf "client %d got the same answer" i)
          (norm first) (norm r)
      | None -> Alcotest.fail "missing reply")
    replies;

  (* The same computation, directly against the library. *)
  let settings =
    { Runner.warmup = tg.P.warmup; measure = tg.P.measure;
      benches = [ tg.P.workload ] }
  in
  let w =
    match Workload.find tg.P.workload with
    | Some w -> w
    | None -> Alcotest.fail "test workload missing"
  in
  let prepared = Runner.prepare settings w in
  let cfg = Config.default in
  let baseline = Runner.baseline_run cfg prepared in
  let g = Runner.graph_of ~baseline cfg prepared in
  let goracle = Cost.memoize (Build.oracle g) in
  let bd = Breakdown.focus ~oracle:goracle ~focus_cat:Category.Dl1 in
  let expected_breakdown =
    P.R_breakdown
      {
        baseline = bd.Breakdown.baseline_cycles;
        rows =
          List.map
            (fun (r : Breakdown.row) ->
              { P.row_label = Breakdown.row_label r;
                row_percent = r.Breakdown.percent;
                row_cycles = r.Breakdown.cycles })
            bd.Breakdown.rows;
      }
  in
  Alcotest.(check string) "served breakdown bit-identical to direct Runner"
    (P.encode_reply { P.rep_id = 0; body = Ok expected_breakdown })
    (norm first);

  Client.with_client ~retry_for:10.0 ~socket (fun c ->
      let status () =
        match (Client.call c (req P.Status)).P.body with
        | Ok (P.R_status s) -> s
        | _ -> Alcotest.fail "status reply malformed"
      in
      (* 4 concurrent requests on one key: the session cache misses once
         and its builder misses prep once — exactly one build chain, so
         exactly 2 misses.  The 3 other clients either wait on the
         session build (counted as hits) or, if they arrive after their
         frame was memoized, are answered by the frame cache without
         touching the analysis caches at all — so the hit tally is at
         most 3, depending on arrival timing. *)
      let s = status () in
      Alcotest.(check int) "single preparation: 2 misses" 2 s.P.cache_misses;
      Alcotest.(check bool) "waiters counted as hits" true
        (s.P.cache_hits <= 3);
      Alcotest.(check int) "one session" 1 s.P.sessions;
      Alcotest.(check bool) "not draining" false s.P.draining;

      (* warm repeat: answered from the frame cache, no new misses *)
      let warm = Client.call c (req ~id:50 breakdown_op) in
      Alcotest.(check string) "warm repeat identical" (norm first) (norm warm);
      Alcotest.(check int) "still 2 misses" 2 (status ()).P.cache_misses;

      (* icost over the multisim engine, checked against direct Cost calls *)
      let sets = [ "dl1"; "win"; "dl1,win" ] in
      let mtg = { tg with P.engine = "multisim" } in
      let icost_reply =
        Client.call c (req ~id:51 (P.Icost { target = mtg; sets }))
      in
      let mo = Runner.multisim_oracle cfg prepared in
      let expected_icost =
        P.R_icost
          {
            baseline = Cost.query mo Category.Set.empty;
            rows =
              List.map
                (fun spec ->
                  let set = set_of_spec spec in
                  let ic = Cost.icost_ie mo set in
                  { P.set_name = Category.Set.name set;
                    set_cost = Cost.cost mo set;
                    set_icost = ic;
                    set_class = Cost.interaction_name (Cost.classify ic) })
                sets;
          }
      in
      Alcotest.(check string) "served icost bit-identical to direct Cost"
        (P.encode_reply { P.rep_id = 0; body = Ok expected_icost })
        (norm icost_reply);

      (* graph stats against the directly compiled graph *)
      (match (Client.call c (req ~id:52 (P.Graph_stats { target = tg }))).P.body
       with
       | Ok (P.R_graph_stats { instrs; nodes; edges; critical_path }) ->
         Alcotest.(check int) "instrs" (Trace.length prepared.Runner.trace)
           instrs;
         Alcotest.(check int) "nodes" (Graph.num_nodes g) nodes;
         Alcotest.(check int) "edges" (Graph.num_edges g) edges;
         Alcotest.(check int) "critical path" (Graph.critical_length g)
           critical_path
       | _ -> Alcotest.fail "graph-stats reply malformed");

      (* profiler engine: the seed makes replies reproducible *)
      let ptg = { tg with P.engine = "profiler"; seed = 123 } in
      let p1 = Client.call c (req ~id:53 (P.Icost { target = ptg; sets = [ "dl1" ] })) in
      let p2 = Client.call c (req ~id:54 (P.Icost { target = ptg; sets = [ "dl1" ] })) in
      Alcotest.(check string) "profiler replies reproducible for one seed"
        (norm p1) (norm p2);
      let po =
        Runner.profiler_oracle
          ~opts:{ Sampler.default_opts with Sampler.seed = 123 }
          ~baseline cfg prepared
      in
      (match p1.P.body with
       | Ok (P.R_icost { baseline = pbase; _ }) ->
         check_feq "profiler baseline bit-identical to direct oracle"
           (Cost.query po Category.Set.empty) pbase
       | _ -> Alcotest.fail "profiler reply malformed");

      (* stream engine: the segmented session answers bit-identically to
         a direct streaming oracle over the same prepared window, and the
         status body tallies its segments and peak heap *)
      let stg = { tg with P.engine = "stream" } in
      let streply =
        Client.call c (req ~id:57 (P.Icost { target = stg; sets }))
      in
      let so = Runner.stream_oracle cfg prepared in
      let expected_stream =
        P.R_icost
          {
            baseline = Cost.query so Category.Set.empty;
            rows =
              List.map
                (fun spec ->
                  let set = set_of_spec spec in
                  let ic = Cost.icost_ie so set in
                  { P.set_name = Category.Set.name set;
                    set_cost = Cost.cost so set;
                    set_icost = ic;
                    set_class = Cost.interaction_name (Cost.classify ic) })
                sets;
          }
      in
      Alcotest.(check string) "served stream icost bit-identical to direct"
        (P.encode_reply { P.rep_id = 0; body = Ok expected_stream })
        (norm streply);
      let s = status () in
      Alcotest.(check bool) "status tallies stream segments" true
        (s.P.segments > 0);
      Alcotest.(check bool) "status tallies stream peak heap" true
        (s.P.stream_peak_mb > 0.);

      (* an already-expired deadline is refused with the typed error *)
      (match (Client.call c (req ~id:55 ~deadline_ms:0 breakdown_op)).P.body with
       | Error (P.Deadline_exceeded, _) -> ()
       | _ -> Alcotest.fail "deadline_ms=0 should yield deadline_exceeded");

      (* malformed line: typed bad_request, connection stays usable *)
      let fd = raw_connect socket in
      raw_send fd "this is not json\n";
      (match raw_read_lines fd 1 with
       | [ line ] -> (
         match (decode_reply_exn line).P.body with
         | Error (P.Bad_request, _) -> ()
         | _ -> Alcotest.fail "garbage should yield bad_request")
       | _ -> Alcotest.fail "no reply to garbage line");
      Unix.close fd;

      (* slightly over the cap: the line is still fully read (bounded-read
         slack), the decoder rejects it by size, and the stream stays in
         sync — the same connection answers the next request *)
      let fd = raw_connect socket in
      (try raw_send fd (String.make (P.max_request_bytes + 10) 'x' ^ "\n")
       with Unix.Unix_error _ -> ());
      (match raw_read_lines fd 1 with
       | [ line ] -> (
         match (decode_reply_exn line).P.body with
         | Error (P.Bad_request, _) -> ()
         | _ -> Alcotest.fail "over-long line should yield bad_request")
       | _ -> Alcotest.fail "no reply to over-long line");
      raw_send fd (P.encode_request (req ~id:56 P.Status) ^ "\n");
      (match raw_read_lines fd 1 with
       | [ line ] -> (
         match (decode_reply_exn line).P.body with
         | Ok (P.R_status _) -> ()
         | _ -> Alcotest.fail "connection unusable after over-long line")
       | _ -> Alcotest.fail "no reply after over-long line");
      Unix.close fd;

      (* grossly over the cap (no newline in sight): the reader gives up,
         answers with the typed error and closes — the stream cannot be
         re-synchronized *)
      let fd = raw_connect socket in
      (try raw_send fd (String.make (P.max_request_bytes + 16384) 'x' ^ "\n")
       with Unix.Unix_error _ -> ());
      (match raw_read_lines fd 2 with
       | [ line ] -> (
         match (decode_reply_exn line).P.body with
         | Error (P.Bad_request, _) -> ()
         | _ -> Alcotest.fail "oversized stream should yield bad_request")
       | other ->
         Alcotest.fail
           (Printf.sprintf "expected bad_request then EOF, got %d line(s)"
              (List.length other)));
      Unix.close fd;

      (* a second daemon on the same live socket must refuse to start *)
      (match Server.run { opts with Server.on_ready = None } with
       | _ -> Alcotest.fail "second server on a live socket should fail"
       | exception Failure _ -> ());

      (* graceful shutdown *)
      match (Client.call c (req ~id:60 P.Shutdown)).P.body with
      | Ok P.R_shutdown -> ()
      | _ -> Alcotest.fail "shutdown not acknowledged");
  let stats = finish_server srv in
  Alcotest.(check bool) "server counted its requests" true
    (stats.Server.requests_total >= 12);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* Backpressure over the wire and shutdown with a request in flight, on a
   deliberately tiny server (one worker, queue of one). *)
let test_serve_backpressure_and_drain () =
  sigpipe_off ();
  let socket = tmp_socket "bp" in
  if Sys.file_exists socket then Sys.remove socket;
  let opts =
    { Server.default_opts with
      socket;
      workers = 1;
      queue_limit = 1;
      handle_signals = false }
  in
  let srv = start_server opts in
  let tg =
    { P.default_target with P.workload = "gcc"; warmup = 2000; measure = 800 }
  in
  (* wait for the daemon, then drop the probe connection *)
  Client.close (Client.connect ~retry_for:10.0 ~socket ());

  (* Occupy the worker with one long cold analysis (a multisim breakdown
     re-simulates a 60k-instruction window once per subset), and wait
     until an inline [status] on a second connection shows it running
     with the queue empty.  Then pipeline six cold requests behind it on
     the first connection, each naming a distinct target (so none can be
     answered from a cache): one fits the one-slot queue and the other
     five must be refused with the typed overloaded error — and every
     accepted request must still be answered.  Only the long request
     finishing mid-burst could change the count, whatever the host's
     speed at building the small windows. *)
  let total = 7 in
  let breakdown_line ~id tg =
    P.encode_request (req ~id (P.Breakdown { target = tg; focus = "dl1" })) ^ "\n"
  in
  let fd = raw_connect socket in
  raw_send fd
    (breakdown_line ~id:0 { tg with P.engine = "multisim"; measure = 60_000 });
  let probe = raw_connect socket in
  wait_for "the long request running alone" (fun () ->
      raw_send probe (P.encode_request (req ~id:50 P.Status) ^ "\n");
      match raw_read_lines probe 1 with
      | [ line ] -> (
        match (decode_reply_exn line).P.body with
        | Ok (P.R_status st) -> st.P.inflight = 1 && st.P.queue_depth = 0
        | _ -> false)
      | _ -> false);
  Unix.close probe;
  let buf = Buffer.create 1024 in
  for i = 1 to total - 1 do
    Buffer.add_string buf (breakdown_line ~id:i { tg with P.measure = 800 + i })
  done;
  raw_send fd (Buffer.contents buf);
  let replies = List.map decode_reply_exn (raw_read_lines fd total) in
  Unix.close fd;
  Alcotest.(check int) "every request answered" total (List.length replies);
  let ok, overloaded, other =
    List.fold_left
      (fun (ok, ov, other) (r : P.reply) ->
        match r.P.body with
        | Ok (P.R_breakdown _) -> (ok + 1, ov, other)
        | Error (P.Overloaded, _) -> (ok, ov + 1, other)
        | _ -> (ok, ov, other + 1))
      (0, 0, 0) replies
  in
  Alcotest.(check int) "only breakdown/overloaded replies" 0 other;
  Alcotest.(check bool) "accepted requests answered" true (ok >= 1);
  Alcotest.(check bool) "queue overflow refused" true (overloaded >= 4);

  (* Shutdown with a request in flight: pipeline a cold analysis (fresh
     cache key) and a shutdown on one connection.  The reader accepts the
     analysis before it sees the shutdown, so the drain must still answer
     it. *)
  let cold = { tg with P.measure = 900 } in
  let fd = raw_connect socket in
  raw_send fd
    (P.encode_request (req ~id:10 (P.Breakdown { target = cold; focus = "dl1" }))
     ^ "\n"
     ^ P.encode_request (req ~id:11 P.Shutdown)
     ^ "\n");
  let replies = List.map decode_reply_exn (raw_read_lines fd 2) in
  Unix.close fd;
  let find id =
    match List.find_opt (fun (r : P.reply) -> r.P.rep_id = id) replies with
    | Some r -> r
    | None -> Alcotest.fail (Printf.sprintf "no reply for request %d" id)
  in
  (match (find 10).P.body with
   | Ok (P.R_breakdown _) -> ()
   | _ -> Alcotest.fail "in-flight request must be answered during drain");
  (match (find 11).P.body with
   | Ok P.R_shutdown -> ()
   | _ -> Alcotest.fail "shutdown not acknowledged");
  ignore (finish_server srv);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* ---------- fault injection, supervision, resilience ---------- *)

let shutdown_server session srv =
  (match (Client.call_with_retry session (req ~id:99 P.Shutdown)).P.body with
   | Ok P.R_shutdown -> ()
   | _ -> Alcotest.fail "shutdown not acknowledged");
  Client.close_session session;
  ignore (finish_server srv)

let small_target =
  { P.default_target with P.workload = "gcc"; warmup = 2000; measure = 800 }

(* ---------- pipelining, batch, TCP ---------- *)

(* Two pipelined requests on one connection must be answered in request
   order: a cold analysis occupies the worker while the status reply is
   computed inline, so only the sequence-ordered writer keeps the wire
   ordered. *)
let test_serve_pipelining_order () =
  sigpipe_off ();
  let socket = tmp_socket "pipeline" in
  if Sys.file_exists socket then Sys.remove socket;
  let opts =
    { Server.default_opts with socket; workers = 2; handle_signals = false }
  in
  let srv = start_server opts in
  Client.close (Client.connect ~retry_for:10.0 ~socket ());
  let fd = raw_connect socket in
  raw_send fd
    (P.encode_request
       (req ~id:1 (P.Breakdown { target = small_target; focus = "dl1" }))
     ^ "\n"
     ^ P.encode_request (req ~id:2 P.Status)
     ^ "\n");
  let replies = List.map decode_reply_exn (raw_read_lines fd 2) in
  Unix.close fd;
  (match replies with
   | [ first; second ] ->
     Alcotest.(check int) "slow reply first" 1 first.P.rep_id;
     Alcotest.(check int) "fast reply parked until its turn" 2 second.P.rep_id;
     (match (first.P.body, second.P.body) with
      | Ok (P.R_breakdown _), Ok (P.R_status _) -> ()
      | _ -> Alcotest.fail "unexpected reply kinds")
   | other ->
     Alcotest.fail
       (Printf.sprintf "expected 2 replies, got %d" (List.length other)));
  let s = Client.connect_session ~retry_for:10.0 ~socket () in
  shutdown_server s srv

(* A batch frame mixing valid and invalid items: per-item results come
   back in request order, failures are typed per item, and successful
   items are bit-identical to the same ops sent individually. *)
let test_serve_batch () =
  sigpipe_off ();
  let socket = tmp_socket "batch" in
  if Sys.file_exists socket then Sys.remove socket;
  let opts =
    { Server.default_opts with socket; workers = 2; handle_signals = false }
  in
  let srv = start_server opts in
  let s = Client.connect_session ~retry_for:10.0 ~socket () in
  let good = P.Breakdown { target = small_target; focus = "dl1" } in
  let bad =
    P.Breakdown { target = { small_target with P.workload = "nope" };
                  focus = "dl1" }
  in
  (* reference replies from the single-op path *)
  let single = Client.call_with_retry s (req ~id:7 good) in
  let single_body =
    match single.P.body with
    | Ok b -> b
    | Error _ -> Alcotest.fail "single op failed"
  in
  let batch =
    P.Batch
      { ops = [ good; bad; P.Status; P.Batch { ops = [ P.Status ] };
                P.Shutdown; good ] }
  in
  let reply = Client.call_with_retry s (req ~id:8 batch) in
  (match reply.P.body with
   | Ok (P.R_batch { results }) ->
     Alcotest.(check int) "one result per item" 6 (List.length results);
     let item i = List.nth results i in
     let check_same_as_single i =
       match item i with
       | Ok b ->
         Alcotest.(check string)
           (Printf.sprintf "item %d bit-identical to single op" i)
           (norm { P.rep_id = 0; body = Ok single_body })
           (norm { P.rep_id = 0; body = Ok b })
       | Error (c, m) ->
         Alcotest.fail
           (Printf.sprintf "item %d failed: %s %s" i (P.error_code_name c) m)
     in
     check_same_as_single 0;
     (match item 1 with
      | Error (P.Bad_request, msg) ->
        Alcotest.(check bool) "unknown workload named" true
          (contains msg "nope")
      | _ -> Alcotest.fail "invalid item must fail with bad_request");
     (match item 2 with
      | Ok (P.R_status st) ->
        Alcotest.(check int) "standalone server reports no shards" 0 st.P.shards
      | _ -> Alcotest.fail "status item must be answered");
     (match item 3 with
      | Error (P.Bad_request, _) -> ()
      | _ -> Alcotest.fail "nested batch must be refused per-item");
     (match item 4 with
      | Error (P.Bad_request, _) -> ()
      | _ -> Alcotest.fail "shutdown inside a batch must be refused");
     check_same_as_single 5
   | Ok _ -> Alcotest.fail "expected a batch reply"
   | Error (c, m) ->
     Alcotest.fail
       (Printf.sprintf "batch failed: %s %s" (P.error_code_name c) m));
  shutdown_server s srv

(* Answers that miss the frame memo are recomputed from the session memo
   and must match the first answer byte for byte: an item repeated inside
   a different batch (a new frame key), and a repeated frame while a
   harmless fault point is armed (the frame memo steps aside). *)
let test_serve_repeats_byte_identical () =
  sigpipe_off ();
  Fun.protect ~finally:(fun () -> Fault.disable ()) @@ fun () ->
  let socket = tmp_socket "repeat" in
  if Sys.file_exists socket then Sys.remove socket;
  let opts =
    { Server.default_opts with socket; workers = 2; handle_signals = false }
  in
  let srv = start_server opts in
  let s = Client.connect_session ~retry_for:10.0 ~socket () in
  let fd = raw_connect socket in
  let ask r =
    raw_send fd (P.encode_request r ^ "\n");
    match raw_read_lines fd 1 with
    | [ line ] -> line
    | _ -> Alcotest.fail "no reply line"
  in
  let bd = P.Breakdown { target = small_target; focus = "dl1" } in
  let ic = P.Icost { target = small_target; sets = [ "dl1"; "dl1,win" ] } in
  let gs = P.Graph_stats { target = small_target } in
  let single = ask (req ~id:2 bd) in
  (* the result fragment of the single reply, spliced verbatim into every
     reply that carries the same answer *)
  let frag =
    let key = "\"result\":" in
    let n = String.length key in
    let rec find i = if String.sub single i n = key then i + n else find (i + 1) in
    let start = find 0 in
    String.sub single start (String.length single - start - 1)
  in
  let batch_a = ask (req ~id:1 (P.Batch { ops = [ ic; bd ] })) in
  let batch_b = ask (req ~id:3 (P.Batch { ops = [ gs; bd ] })) in
  Alcotest.(check bool) "item bytes in the first batch" true
    (contains batch_a frag);
  Alcotest.(check bool) "item bytes in a different batch" true
    (contains batch_b frag);
  Alcotest.(check string) "memoized frame repeat" batch_a
    (ask (req ~id:1 (P.Batch { ops = [ ic; bd ] })));
  (* armed faults make the frame memo step aside: the repeats below are
     decoded, queued and analyzed again *)
  Fault.configure_exn "sched_delay";
  let injected = fault_injected () in
  Alcotest.(check string) "batch repeat under armed faults" batch_a
    (ask (req ~id:1 (P.Batch { ops = [ ic; bd ] })));
  Alcotest.(check string) "single repeat under armed faults" single
    (ask (req ~id:2 bd));
  Alcotest.(check bool) "the fault point fired" true
    (fault_injected () > injected);
  Fault.disable ();
  Unix.close fd;
  shutdown_server s srv

(* The TCP listener speaks the same protocol as the Unix socket and
   serves bit-identical replies (one process, shared caches). *)
let test_serve_tcp () =
  sigpipe_off ();
  let socket = tmp_socket "tcp" in
  if Sys.file_exists socket then Sys.remove socket;
  let port = ref 0 in
  let port_m = Mutex.create () and port_c = Condition.create () in
  let opts =
    { Server.default_opts with
      socket;
      tcp = Some ("127.0.0.1", 0);
      workers = 2;
      handle_signals = false;
      on_tcp_port =
        Some
          (fun p ->
            Mutex.lock port_m;
            port := p;
            Condition.signal port_c;
            Mutex.unlock port_m);
    }
  in
  let srv = start_server opts in
  Mutex.lock port_m;
  while !port = 0 do
    Condition.wait port_c port_m
  done;
  let bound = !port in
  Mutex.unlock port_m;
  Alcotest.(check bool) "ephemeral port bound" true (bound > 0);
  let op = req (P.Breakdown { target = small_target; focus = "dl1" }) in
  let over_unix =
    Client.with_client ~retry_for:10.0 ~socket (fun c -> Client.call c op)
  in
  let over_tcp =
    Client.with_addr ~retry_for:10.0 (Icost_service.Endpoint.Tcp ("127.0.0.1", bound))
      (fun c -> Client.call c op)
  in
  Alcotest.(check string) "TCP reply bit-identical to Unix" (norm over_unix)
    (norm over_tcp);
  (* pipelining works over TCP too *)
  let replies =
    Client.with_addr ~retry_for:10.0
      (Icost_service.Endpoint.Tcp ("127.0.0.1", bound))
      (fun c -> Client.pipeline c [ op; req ~id:2 P.Status ])
  in
  (match replies with
   | [ r1; r2 ] ->
     Alcotest.(check string) "pipelined analysis identical" (norm over_unix)
       (norm r1);
     (match r2.P.body with
      | Ok (P.R_status _) -> ()
      | _ -> Alcotest.fail "pipelined status not answered")
   | _ -> Alcotest.fail "expected 2 pipelined replies");
  let s = Client.connect_session ~retry_for:10.0 ~socket () in
  shutdown_server s srv

(* The preparation build — nested inside the session build — raises
   (injected) on its first run: supervision must answer a typed internal
   error, leave no poisoned cache entry at either layer, and let the
   automatic retry rebuild and succeed. *)
let test_serve_crash_during_build () =
  sigpipe_off ();
  Fun.protect ~finally:(fun () -> Fault.disable ()) @@ fun () ->
  Fault.configure_exn "cache_build.prep:@1";
  let socket = tmp_socket "crash" in
  if Sys.file_exists socket then Sys.remove socket;
  let opts =
    { Server.default_opts with socket; workers = 2; handle_signals = false }
  in
  let srv = start_server opts in
  let s =
    Client.connect_session
      ~opts:{ Client.default_retry_opts with retries = 3 }
      ~retry_for:10.0 ~socket ()
  in
  let op = P.Breakdown { target = small_target; focus = "dl1" } in
  let reply = Client.call_with_retry s (req op) in
  (match reply.P.body with
   | Ok (P.R_breakdown _) -> ()
   | Ok _ -> Alcotest.fail "unexpected reply kind"
   | Error (c, m) ->
     Alcotest.fail
       (Printf.sprintf "retry did not recover: %s %s" (P.error_code_name c) m));
  Alcotest.(check int) "exactly one retry consumed" 1 (Client.session_retries s);
  (* the rebuilt session serves warm queries without further incident *)
  (match (Client.call_with_retry s (req ~id:2 op)).P.body with
   | Ok (P.R_breakdown _) -> ()
   | _ -> Alcotest.fail "warm query after recovery failed");
  Alcotest.(check int) "no extra retries" 1 (Client.session_retries s);
  Alcotest.(check bool) "injection recorded" true (fault_injected () > 0);
  shutdown_server s srv

(* Every worker invocation raises: two internal errors trip the target's
   breaker, the third fails fast with unavailable, and after the faults
   stop the cooldown's half-open trial closes it again. *)
let test_serve_supervision_and_breaker () =
  sigpipe_off ();
  Fun.protect ~finally:(fun () -> Fault.disable ()) @@ fun () ->
  Fault.configure_exn "worker_raise:@1+";
  let socket = tmp_socket "breaker" in
  if Sys.file_exists socket then Sys.remove socket;
  let opts =
    { Server.default_opts with
      socket;
      workers = 2;
      breaker_threshold = 2;
      breaker_cooldown = 0.1;
      handle_signals = false }
  in
  let srv = start_server opts in
  let s = Client.connect_session ~retry_for:10.0 ~socket () in
  let op = P.Breakdown { target = small_target; focus = "dl1" } in
  (* bare calls: each server-side failure must be observed, not retried *)
  let bare id =
    Client.with_client ~retry_for:10.0 ~socket (fun c ->
        (Client.call c (req ~id op)).P.body)
  in
  (match bare 1 with
   | Error (P.Internal, msg) ->
     Alcotest.(check bool) ("injected message surfaced: " ^ msg) true
       (contains msg "worker_raise")
   | _ -> Alcotest.fail "first failure should be internal");
  (match bare 2 with
   | Error (P.Internal, _) -> ()
   | _ -> Alcotest.fail "second failure should be internal");
  (match bare 3 with
   | Error (P.Unavailable, _) -> ()
   | _ -> Alcotest.fail "tripped breaker should fail fast with unavailable");
  (* health is answered inline, bypassing the broken worker path *)
  (match (Client.call_with_retry s (req ~id:4 P.Health)).P.body with
   | Ok (P.R_health h) ->
     Alcotest.(check int) "one breaker open" 1 h.P.h_breakers_open
   | _ -> Alcotest.fail "health reply malformed");
  Fault.disable ();
  Thread.delay 0.12;
  (match bare 5 with
   | Ok (P.R_breakdown _) -> ()
   | _ -> Alcotest.fail "half-open trial after cooldown should succeed");
  (match (Client.call_with_retry s (req ~id:6 P.Health)).P.body with
   | Ok (P.R_health h) ->
     Alcotest.(check int) "breaker closed after success" 0 h.P.h_breakers_open
   | _ -> Alcotest.fail "health reply malformed");
  shutdown_server s srv

(* The server resets the first connection (injected): the session layer
   must reconnect and re-send transparently. *)
let test_serve_retry_reconnect () =
  sigpipe_off ();
  Fun.protect ~finally:(fun () -> Fault.disable ()) @@ fun () ->
  Fault.configure_exn "conn_reset:@1";
  let socket = tmp_socket "reconnect" in
  if Sys.file_exists socket then Sys.remove socket;
  let opts =
    { Server.default_opts with socket; workers = 2; handle_signals = false }
  in
  let srv = start_server opts in
  let s = Client.connect_session ~retry_for:10.0 ~socket () in
  let op = P.Breakdown { target = small_target; focus = "dl1" } in
  (match (Client.call_with_retry s (req op)).P.body with
   | Ok (P.R_breakdown _) -> ()
   | _ -> Alcotest.fail "reconnect retry should recover the dropped reply");
  Alcotest.(check bool) "at least one retry consumed" true
    (Client.session_retries s >= 1);
  Alcotest.(check bool) "process-wide tally grows" true
    (Telemetry.value (Telemetry.counter "service.retries")
     >= Client.session_retries s);
  shutdown_server s srv

(* Memory high-water mark of zero: every request trips the pressure check,
   sheds the warm session and prep entries and reports degraded health —
   while answers stay bit-identical. *)
let test_serve_degradation () =
  sigpipe_off ();
  let socket = tmp_socket "degrade" in
  if Sys.file_exists socket then Sys.remove socket;
  let opts =
    { Server.default_opts with
      socket;
      workers = 2;
      cache_cap = 1;
      mem_high_mb = 0;
      handle_signals = false }
  in
  let srv = start_server opts in
  let s = Client.connect_session ~retry_for:10.0 ~socket () in
  let op = P.Breakdown { target = small_target; focus = "dl1" } in
  (* same analysis, different frame: the graph engine never reads the
     sampling seed, so the answer is bit-identical, but the distinct
     frame text bypasses the frame cache and reaches the pressure check
     while the first request's entries are still warm *)
  let op' =
    P.Breakdown { target = { small_target with P.seed = 43 }; focus = "dl1" }
  in
  let r1 = Client.call_with_retry s (req ~id:1 op) in
  let r2 = Client.call_with_retry s (req ~id:2 op') in
  (match (r1.P.body, r2.P.body) with
   | Ok (P.R_breakdown _), Ok (P.R_breakdown _) ->
     Alcotest.(check string) "degraded answers bit-identical" (norm r1) (norm r2)
   | _ -> Alcotest.fail "degraded server must still answer");
  (match (Client.call_with_retry s (req ~id:3 P.Health)).P.body with
   | Ok (P.R_health h) ->
     Alcotest.(check string) "health reports degraded" "degraded" h.P.h_health;
     Alcotest.(check bool) "warm entries were shed" true (h.P.h_shed >= 2)
   | _ -> Alcotest.fail "health reply malformed");
  (match (Client.call_with_retry s (req ~id:4 P.Status)).P.body with
   | Ok (P.R_status st) ->
     Alcotest.(check string) "status carries health" "degraded" st.P.health
   | _ -> Alcotest.fail "status reply malformed");
  shutdown_server s srv

(* Restarting a daemon on the same --cache-dir warm-starts its sessions
   from the snapshot store: the reborn server answers bit-identically and
   its status reports a snapshot hit instead of a fresh build. *)
let test_serve_snapshot_warm_restart () =
  sigpipe_off ();
  let socket = tmp_socket "warm" in
  if Sys.file_exists socket then Sys.remove socket;
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "icost-test-snapdir-%d" (Unix.getpid ()))
  in
  let opts =
    { Server.default_opts with socket; workers = 2;
      cache_dir = Some cache_dir; handle_signals = false }
  in
  let op = P.Breakdown { target = small_target; focus = "dl1" } in
  let life () =
    let srv = start_server opts in
    let result =
      Client.with_client ~retry_for:10.0 ~socket (fun c ->
          let r = Client.call c (req op) in
          let s =
            match (Client.call c (req ~id:2 P.Status)).P.body with
            | Ok (P.R_status s) -> s
            | _ -> Alcotest.fail "status reply malformed"
          in
          (match (Client.call c (req ~id:3 P.Shutdown)).P.body with
           | Ok P.R_shutdown -> ()
           | _ -> Alcotest.fail "shutdown not acknowledged");
          (r, s))
    in
    ignore (finish_server srv);
    result
  in
  let first, s1 = life () in
  Alcotest.(check int) "first life builds cold" 0 s1.P.snapshot_hits;
  Alcotest.(check bool) "first life misses the store" true
    (s1.P.snapshot_misses > 0);
  let second, s2 = life () in
  Alcotest.(check string) "rebirth answers bit-identically" (norm first)
    (norm second);
  Alcotest.(check int) "rebirth warm-starts from the snapshot" 1
    s2.P.snapshot_hits;
  Alcotest.(check int) "no snapshot rejects" 0 s2.P.snapshot_rejects

(* A closed connection's record (16 KiB read scratch, line buffer, parked
   replies) goes when its thread ends, not at shutdown: after warm-up,
   thousands of one-request connections leave the live heap where it
   was. *)
let test_serve_closed_connections_freed () =
  sigpipe_off ();
  let socket = tmp_socket "conns" in
  if Sys.file_exists socket then Sys.remove socket;
  let opts =
    { Server.default_opts with socket; workers = 1; handle_signals = false }
  in
  let srv = start_server opts in
  Client.close (Client.connect ~retry_for:10.0 ~socket ());
  let health n =
    for i = 1 to n do
      let fd = raw_connect socket in
      raw_send fd (P.encode_request (req ~id:i P.Health) ^ "\n");
      (match raw_read_lines fd 1 with
       | [ line ] -> ignore (decode_reply_exn line)
       | _ -> Alcotest.fail "health not answered");
      Unix.close fd
    done;
    (* let the last connection threads see EOF and exit *)
    Thread.delay 0.2
  in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  health 200;
  let before = live_words () in
  health 3000;
  let grown = live_words () - before in
  if grown >= 300_000 then
    Alcotest.failf "3000 closed connections kept %d live words" grown;
  let s = Client.connect_session ~retry_for:10.0 ~socket () in
  shutdown_server s srv

(* Chaos: several fault points armed at once under a deterministic seed.
   Every query must still come back correct through the retry layer. *)
(* ---------- sweep op ---------- *)

module Pool = Icost_util.Pool
module Sweep = Icost_sensitivity.Sweep
module Sparam = Icost_sensitivity.Param

(* The server's R_sweep, recomputed directly against the sensitivity
   library: same prepared execution, same engine, same grid. *)
let expected_sweep_body tg specs =
  let settings =
    { Runner.warmup = tg.P.warmup; measure = tg.P.measure;
      benches = [ tg.P.workload ] }
  in
  let prepared = Runner.prepare settings (Workload.find_exn tg.P.workload) in
  let engine =
    match Sweep.engine_of_string tg.P.engine with
    | Ok e -> e
    | Error msg -> Alcotest.fail msg
  in
  let axes =
    match Sparam.parse_axes specs with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  let r = Sweep.run ~engine ~cfg:Config.default ~prepared ~axes () in
  let curve (c : Sweep.curve) =
    {
      P.curve_param = c.Sweep.cv_param.Sparam.p_name;
      curve_base = c.cv_base_value;
      curve_knee =
        Option.map
          (fun (k : Sweep.knee) ->
            { P.kn_value = k.Sweep.kn_value; kn_marginal = k.kn_marginal;
              kn_saturated = k.kn_saturated })
          c.cv_knee;
      curve_points =
        List.map
          (fun (pt : Sweep.point) ->
            match pt.Sweep.pt_outcome with
            | Ok cycles ->
              { P.sp_value = pt.pt_value;
                sp_outcome =
                  Ok
                    (cycles,
                     Option.value ~default:0.
                       (List.assoc_opt pt.pt_value c.cv_deltas)) }
            | Error e -> Alcotest.fail (Printexc.to_string e))
          c.cv_points;
    }
  in
  P.R_sweep
    { baseline = r.Sweep.sw_baseline;
      curves = List.map curve r.Sweep.sw_curves }

(* No sweep point may alias a prep cache entry, and any two points
   differing in any swept field get distinct keys. *)
let test_sweep_point_keys () =
  let tg = { small_target with P.engine = "multisim" } in
  let cfg = Config.default in
  let keys =
    Server.sweep_point_key tg cfg ~engine:"multisim"
    :: List.map
         (fun (p : Sparam.t) ->
           Server.sweep_point_key tg
             (p.Sparam.p_apply cfg (p.Sparam.p_get cfg + 1))
             ~engine:"multisim")
         Sparam.all
  in
  let uniq = List.sort_uniq compare keys in
  Alcotest.(check int) "point keys pairwise distinct" (List.length keys)
    (List.length uniq);
  (* the prep key is the target's workload|warmup|measure prefix with no
     digest or engine segment: every point key must extend, never equal,
     it *)
  let prep_prefix =
    Printf.sprintf "%s|w%d|m%d" tg.P.workload tg.P.warmup tg.P.measure
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) "point key extends the prep key" true
        (String.length k > String.length prep_prefix
        && String.sub k 0 (String.length prep_prefix) = prep_prefix))
    keys

let test_serve_sweep () =
  sigpipe_off ();
  let socket = tmp_socket "sweep" in
  if Sys.file_exists socket then Sys.remove socket;
  let opts =
    { Server.default_opts with
      socket; workers = 2; handle_signals = false }
  in
  let srv = start_server opts in
  let tg = { small_target with P.engine = "multisim" } in
  let specs = [ "window=16..64"; "mem_lat=25..100:25" ] in
  let sweep_op = P.Sweep { target = tg; params = specs } in
  let s = Client.connect_session ~retry_for:10.0 ~socket () in
  let status () =
    match (Client.call_with_retry s (req ~id:9 P.Status)).P.body with
    | Ok (P.R_status st) -> st
    | _ -> Alcotest.fail "status reply malformed"
  in
  let first = Client.call_with_retry s (req ~id:1 sweep_op) in
  (* bit-identical to the direct library computation *)
  Alcotest.(check string) "served sweep bit-identical to library"
    (P.encode_reply
       { P.rep_id = 0; body = Ok (expected_sweep_body tg specs) })
    (norm first);
  (* window 16,32,64(base) + mem_lat 25,50,75 (100 is the base config,
     shared): 6 distinct points, all cold *)
  let st = status () in
  Alcotest.(check int) "6 points evaluated" 6 st.P.sweep_points;
  Alcotest.(check int) "no point cached yet" 0 st.P.sweep_cache_hits;
  (* exact repeat: the frame cache answers, point tallies unchanged *)
  let again = Client.call_with_retry s (req ~id:2 sweep_op) in
  Alcotest.(check string) "repeat identical" (norm first) (norm again);
  Alcotest.(check int) "repeat served without re-evaluating" 6
    (status ()).P.sweep_points;
  (* a sub-grid sweep: every point already sits in the sweep-point
     cache *)
  let sub = P.Sweep { target = tg; params = [ "window=16..64" ] } in
  (match (Client.call_with_retry s (req ~id:3 sub)).P.body with
  | Ok (P.R_sweep { baseline; curves }) ->
    (match first.P.body with
    | Ok (P.R_sweep { baseline = b0; _ }) ->
      check_feq "baselines agree across sweeps" b0 baseline
    | _ -> Alcotest.fail "first sweep reply malformed");
    (match curves with
    | [ c ] ->
      Alcotest.(check int) "three points" 3 (List.length c.P.curve_points)
    | _ -> Alcotest.fail "one curve expected")
  | _ -> Alcotest.fail "sub-grid sweep failed");
  let st = status () in
  Alcotest.(check int) "3 more points" 9 st.P.sweep_points;
  Alcotest.(check int) "all served from the point cache" 3
    st.P.sweep_cache_hits;
  (* typed rejections: profiler engine, unknown parameter *)
  List.iter
    (fun (what, op) ->
      match (Client.call_with_retry s (req ~id:4 op)).P.body with
      | Error (P.Bad_request, _) -> ()
      | _ -> Alcotest.fail (what ^ " should be a bad request"))
    [
      ("profiler sweep",
       P.Sweep
         { target = { tg with P.engine = "profiler" };
           params = [ "window=16..64" ] });
      ("unknown param",
       P.Sweep { target = tg; params = [ "frobnicate=1..2" ] });
    ];
  shutdown_server s srv

(* A fault-poisoned grid point must surface as a typed per-point error
   without failing the sweep — and the degraded reply must not be
   memoized: once the fault clears, the same request heals. *)
let test_serve_sweep_poisoned () =
  sigpipe_off ();
  let socket = tmp_socket "sweep-poison" in
  if Sys.file_exists socket then Sys.remove socket;
  let jobs0 = Pool.jobs () in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Pool.set_jobs jobs0)
  @@ fun () ->
  (* jobs=1 makes the grid evaluation order deterministic (values
     ascending), pinning the @2 trigger to window=32 *)
  Pool.set_jobs 1;
  let opts =
    { Server.default_opts with
      socket; workers = 1; handle_signals = false }
  in
  let srv = start_server opts in
  let tg = { small_target with P.engine = "multisim" } in
  let sweep_op = P.Sweep { target = tg; params = [ "window=16..64" ] } in
  let s = Client.connect_session ~retry_for:10.0 ~socket () in
  Fault.configure_exn "sweep_point:@2";
  (match (Client.call_with_retry s (req ~id:1 sweep_op)).P.body with
  | Ok (P.R_sweep { curves = [ c ]; _ }) ->
    List.iter
      (fun (pt : P.sweep_point) ->
        match (pt.P.sp_value, pt.sp_outcome) with
        | 32, Error (P.Internal, msg) ->
          Alcotest.(check bool) "error names the fault" true
            (contains msg "injected")
        | 32, _ -> Alcotest.fail "window=32 should carry the injected fault"
        | _, Ok _ -> ()
        | v, Error (_, msg) ->
          Alcotest.fail (Printf.sprintf "healthy point %d failed: %s" v msg))
      c.P.curve_points
  | Ok _ -> Alcotest.fail "unexpected reply kind"
  | Error (code, msg) ->
    Alcotest.fail
      (Printf.sprintf "poisoned sweep should still succeed: %s %s"
         (P.error_code_name code) msg));
  (* fault cleared: the identical request is re-evaluated (the partial
     reply was never cached) and comes back fully clean, with the two
     healthy points served from the point cache *)
  Fault.disable ();
  (match (Client.call_with_retry s (req ~id:2 sweep_op)).P.body with
  | Ok (P.R_sweep { curves = [ c ]; _ }) ->
    List.iter
      (fun (pt : P.sweep_point) ->
        match pt.P.sp_outcome with
        | Ok _ -> ()
        | Error (_, msg) ->
          Alcotest.fail
            (Printf.sprintf "point %d still poisoned after heal: %s"
               pt.P.sp_value msg))
      c.P.curve_points
  | _ -> Alcotest.fail "healed sweep failed");
  let st =
    match (Client.call_with_retry s (req ~id:3 P.Status)).P.body with
    | Ok (P.R_status st) -> st
    | _ -> Alcotest.fail "status reply malformed"
  in
  Alcotest.(check int) "3 + 3 points attempted" 6 st.P.sweep_points;
  Alcotest.(check int) "healthy points re-served from the cache" 2
    st.P.sweep_cache_hits;
  shutdown_server s srv

let test_serve_chaos () =
  sigpipe_off ();
  Fun.protect ~finally:(fun () -> Fault.disable ()) @@ fun () ->
  Fault.configure_exn
    "write_short:0.5,worker_raise:0.2,conn_reset:0.1,sched_delay:0.3;seed=11";
  let socket = tmp_socket "chaos" in
  if Sys.file_exists socket then Sys.remove socket;
  let opts =
    { Server.default_opts with
      socket;
      workers = 2;
      breaker_cooldown = 0.05;
      handle_signals = false }
  in
  let srv = start_server opts in
  let s =
    Client.connect_session
      ~opts:{ Client.default_retry_opts with retries = 8; budget_ms = 30_000 }
      ~retry_for:10.0 ~socket ()
  in
  let op = P.Breakdown { target = small_target; focus = "dl1" } in
  let first = ref None in
  for i = 1 to 20 do
    let reply = Client.call_with_retry s (req ~id:i op) in
    match reply.P.body with
    | Ok (P.R_breakdown _) -> (
      match !first with
      | None -> first := Some (norm reply)
      | Some f ->
        Alcotest.(check string)
          (Printf.sprintf "chaos query %d bit-identical" i)
          f (norm reply))
    | Ok _ -> Alcotest.fail "unexpected reply kind under chaos"
    | Error (c, m) ->
      Alcotest.fail
        (Printf.sprintf "chaos query %d failed after retries: %s %s" i
           (P.error_code_name c) m)
  done;
  Alcotest.(check bool) "faults actually fired" true
    (fault_injected () > 0);
  Fault.disable ();
  shutdown_server s srv

let suite =
  ( "service",
    [
      Alcotest.test_case "protocol: request round-trip" `Quick
        test_request_roundtrip;
      Alcotest.test_case "protocol: reply round-trip" `Quick
        test_reply_roundtrip;
      Alcotest.test_case "protocol: malformed requests rejected" `Quick
        test_decode_rejects;
      Alcotest.test_case "protocol: error code names" `Quick
        test_error_code_names;
      Alcotest.test_case "protocol: retry hints and status compat" `Quick
        test_retry_hints_and_compat;
      Alcotest.test_case "protocol: idempotency and retryability" `Quick
        test_retry_classification;
      Alcotest.test_case "json: float bit round-trip" `Quick
        test_json_float_roundtrip;
      Alcotest.test_case "json: parse errors" `Quick test_json_parse_errors;
      Alcotest.test_case "json: non-finite numbers rejected" `Quick
        test_json_nonfinite_numbers;
      Alcotest.test_case "protocol: request cap boundaries" `Quick
        test_decode_size_boundaries;
      Alcotest.test_case "protocol: decoder never raises on hostile input"
        `Quick test_decode_fuzz_never_raises;
      Alcotest.test_case "cache: single flight" `Quick test_cache_single_flight;
      Alcotest.test_case "cache: find_opt and add count once" `Quick
        test_cache_find_opt_and_add;
      Alcotest.test_case "cache: eviction and failed-build retry" `Quick
        test_cache_eviction_and_retry;
      Alcotest.test_case "scheduler: backpressure and drain" `Quick
        test_scheduler_backpressure;
      Alcotest.test_case "cost: memoize cap and eviction counter" `Quick
        test_memoize_cap;
      Alcotest.test_case "breaker: trip, half-open, close" `Quick test_breaker;
      Alcotest.test_case "client: connect error diagnostics" `Quick
        test_connect_error_messages;
      Alcotest.test_case "serve: end-to-end session" `Slow
        test_serve_end_to_end;
      Alcotest.test_case "serve: backpressure and drain mid-request" `Slow
        test_serve_backpressure_and_drain;
      Alcotest.test_case "serve: pipelined replies stay in request order"
        `Slow test_serve_pipelining_order;
      Alcotest.test_case "serve: batch mixes per-item success and failure"
        `Slow test_serve_batch;
      Alcotest.test_case "serve: memo-bypassing repeats byte-identical" `Slow
        test_serve_repeats_byte_identical;
      Alcotest.test_case "sweep: point keys never alias the prep cache"
        `Quick test_sweep_point_keys;
      Alcotest.test_case "serve: sweep bit-identical to the library" `Slow
        test_serve_sweep;
      Alcotest.test_case "serve: poisoned sweep point stays typed and \
                          uncached" `Slow test_serve_sweep_poisoned;
      Alcotest.test_case "serve: TCP endpoint bit-identical to Unix" `Slow
        test_serve_tcp;
      Alcotest.test_case "serve: crash during cache build recovers" `Slow
        test_serve_crash_during_build;
      Alcotest.test_case "serve: supervision trips the circuit breaker" `Slow
        test_serve_supervision_and_breaker;
      Alcotest.test_case "serve: session reconnects after reset" `Slow
        test_serve_retry_reconnect;
      Alcotest.test_case "serve: graceful degradation under pressure" `Slow
        test_serve_degradation;
      Alcotest.test_case "serve: chaos run stays correct" `Slow
        test_serve_chaos;
      Alcotest.test_case "serve: snapshot warm restart" `Slow
        test_serve_snapshot_warm_restart;
      Alcotest.test_case "serve: closed connections free their records" `Slow
        test_serve_closed_connections_freed;
    ] )
