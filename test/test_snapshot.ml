(* Tests for the persistent snapshot store (icost.graphcache.v2):
   round-trips, corruption and version handling — a damaged file must
   always be reported as [`Reject] (never raise, never partially load) —
   and warm-start establishment semantics, including a graph decoded from
   disk. *)

module Category = Icost_core.Category
module Cost = Icost_core.Cost
module Config = Icost_uarch.Config
module Graph = Icost_depgraph.Graph
module Runner = Icost_experiments.Runner
module Workload = Icost_workloads.Workload
module Snapshot = Icost_service.Snapshot
module Telemetry = Icost_util.Telemetry

let tmpdir =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "icost-snap-test-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let settings = { Runner.warmup = 2_000; measure = 600; benches = [ "gcc" ] }

let prepared =
  lazy (Runner.prepare settings (Workload.find_exn "gcc"))

let payload_of ~key memo =
  let p = Lazy.force prepared in
  { Snapshot.engine = "multisim"; key; prepared = p; graph = None; memo }

let read_file f =
  let ic = open_in_bin f in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file f s =
  let oc = open_out_bin f in
  output_string oc s;
  close_out oc

let reject_reason = function
  | `Reject r -> r
  | `Hit _ -> Alcotest.fail "expected Reject, got Hit"
  | `Miss -> Alcotest.fail "expected Reject, got Miss"

let test_round_trip () =
  let key = "rt|w2000|m600|digest|multisim|s0" in
  let memo = [| (Category.Set.empty, 812.); (Category.Set.full, 355.) |] in
  Snapshot.save ~dir:tmpdir ~key (payload_of ~key memo);
  match Snapshot.load ~dir:tmpdir ~key with
  | `Hit p ->
    Alcotest.(check string) "engine" "multisim" p.Snapshot.engine;
    Alcotest.(check string) "key" key p.Snapshot.key;
    Alcotest.(check bool) "memo" true (p.Snapshot.memo = memo);
    Alcotest.(check int) "trace preserved"
      (Icost_isa.Trace.length (Lazy.force prepared).Runner.trace)
      (Icost_isa.Trace.length p.Snapshot.prepared.Runner.trace)
  | `Miss | `Reject _ -> Alcotest.fail "round trip did not hit"

let test_missing_is_miss () =
  Alcotest.(check bool) "absent file" true
    (Snapshot.load ~dir:tmpdir ~key:"never-saved" = `Miss)

let test_truncated () =
  let key = "trunc" in
  Snapshot.save ~dir:tmpdir ~key (payload_of ~key [||]);
  let file = Snapshot.file_of ~dir:tmpdir ~key in
  let s = read_file file in
  (* cut at several depths: inside the magic, inside a section header,
     inside the payload bytes *)
  List.iter
    (fun keep ->
      write_file file (String.sub s 0 keep);
      match Snapshot.load ~dir:tmpdir ~key with
      | `Reject _ -> ()
      | `Hit _ | `Miss ->
        Alcotest.failf "truncation to %d bytes not rejected" keep)
    [ 4; 23; String.length s / 2; String.length s - 1 ]

let test_flipped_byte () =
  let key = "flip" in
  Snapshot.save ~dir:tmpdir ~key
    (payload_of ~key [| (Category.Set.empty, 1.) |]);
  let file = Snapshot.file_of ~dir:tmpdir ~key in
  let s = read_file file in
  (* flip one byte deep inside the payload section *)
  let b = Bytes.of_string s in
  let pos = String.length s - 10 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  write_file file (Bytes.to_string b);
  Alcotest.(check string) "digest rejects the flip" "section digest mismatch"
    (reject_reason (Snapshot.load ~dir:tmpdir ~key))

let test_wrong_magic () =
  let key = "magic" in
  Snapshot.save ~dir:tmpdir ~key (payload_of ~key [||]);
  let file = Snapshot.file_of ~dir:tmpdir ~key in
  let s = read_file file in
  (* an older or a future format version must be rejected, not
     misparsed *)
  List.iter
    (fun magic ->
      write_file file (magic ^ String.sub s 20 (String.length s - 20));
      Alcotest.(check string) "version bump rejected" "bad magic or version"
        (reject_reason (Snapshot.load ~dir:tmpdir ~key)))
    [ "icost.graphcache.v1\n"; "icost.graphcache.v3\n" ];
  write_file file "not a snapshot at all";
  Alcotest.(check string) "garbage rejected" "bad magic or version"
    (reject_reason (Snapshot.load ~dir:tmpdir ~key))

let test_key_mismatch () =
  (* same file addressed under the right name but recording another key:
     hash collisions or copied files must not leak the wrong session *)
  let key = "key-a" and other = "key-b" in
  Snapshot.save ~dir:tmpdir ~key (payload_of ~key [||]);
  let a = Snapshot.file_of ~dir:tmpdir ~key in
  let b = Snapshot.file_of ~dir:tmpdir ~key:other in
  write_file b (read_file a);
  Alcotest.(check string) "foreign key rejected" "session key mismatch"
    (reject_reason (Snapshot.load ~dir:tmpdir ~key:other))

let test_concurrent_readers () =
  let key = "concurrent" in
  let memo =
    Array.of_list
      (List.map
         (fun c -> (Category.Set.singleton c, float_of_int (Category.to_int c)))
         Category.all)
  in
  Snapshot.save ~dir:tmpdir ~key (payload_of ~key memo);
  let results = Array.make 8 None in
  let readers =
    List.init 8 (fun i ->
        Thread.create
          (fun i -> results.(i) <- Some (Snapshot.load ~dir:tmpdir ~key))
          i)
  in
  List.iter Thread.join readers;
  Array.iter
    (function
      | Some (`Hit p) ->
        Alcotest.(check bool) "reader sees the full memo" true
          (p.Snapshot.memo = memo)
      | _ -> Alcotest.fail "concurrent reader did not hit")
    results

let test_establish_warm_start () =
  let key = "estab|multisim" in
  let cfg = Config.default in
  let prepares = ref 0 in
  let prepare () =
    incr prepares;
    Lazy.force prepared
  in
  let establish () =
    Snapshot.establish ~cache_dir:tmpdir ~key ~kind:Runner.Multisim ~cfg
      ~seed:0 ~prepare ()
  in
  (* each step counts exactly one store outcome in the registry *)
  let outcomes =
    List.map
      (fun o -> Telemetry.counter ("graph.snapshot_" ^ o))
      [ "misses"; "hits"; "rejects" ]
  in
  let counted what step expect =
    let before = List.map Telemetry.value outcomes in
    let r = step () in
    Alcotest.(check (list int)) (what ^ ": misses, hits, rejects") expect
      (List.map2 (fun c b -> Telemetry.value c - b) outcomes before);
    r
  in
  (* cold: built fresh, initial snapshot written *)
  let cold = counted "cold" establish [ 1; 0; 0 ] in
  Alcotest.(check bool) "cold = miss" true (cold.Snapshot.est_disk = `Miss);
  Alcotest.(check int) "cold prepared once" 1 !prepares;
  let q = Cost.query cold.Snapshot.est_oracle Category.Set.empty in
  Snapshot.persist ~dir:tmpdir ~key cold;
  (* warm: prepared comes from disk, the query replays from the memo *)
  let warm = counted "warm" establish [ 0; 1; 0 ] in
  Alcotest.(check bool) "warm = hit" true (warm.Snapshot.est_disk = `Hit);
  Alcotest.(check int) "warm start does not re-prepare" 1 !prepares;
  Alcotest.(check bool) "warm query bit-identical" true
    (Cost.query warm.Snapshot.est_oracle Category.Set.empty = q);
  (* an engine switch under the same key must rebuild, not limp *)
  let cross =
    counted "engine switch"
      (Snapshot.establish ~cache_dir:tmpdir ~key ~kind:Runner.Fullgraph ~cfg
         ~seed:0 ~prepare)
      [ 0; 0; 1 ]
  in
  Alcotest.(check bool) "engine mismatch rejected" true
    (cross.Snapshot.est_disk = `Reject);
  Alcotest.(check bool) "rebuild carries the graph" true
    (cross.Snapshot.est_graph () <> None)

(* A fullgraph session established cold, persisted and warm-started
   decodes its graph from disk; the decoded graph prices every subset
   exactly as a freshly built one. *)
let test_establish_graph_from_disk () =
  let key = "estab|fullgraph" in
  let cfg = Config.default in
  let establish () =
    Snapshot.establish ~cache_dir:tmpdir ~key ~kind:Runner.Fullgraph ~cfg
      ~seed:0
      ~prepare:(fun () -> Lazy.force prepared)
      ()
  in
  let cold = establish () in
  Alcotest.(check bool) "cold = miss" true (cold.Snapshot.est_disk = `Miss);
  ignore (Cost.query cold.Snapshot.est_oracle Category.Set.empty);
  Snapshot.persist ~dir:tmpdir ~key cold;
  let warm = establish () in
  Alcotest.(check bool) "warm = hit" true (warm.Snapshot.est_disk = `Hit);
  let fresh = Runner.graph_of cfg (Lazy.force prepared) in
  let all_sets = Array.init (1 lsl Category.count) Fun.id in
  let same what g =
    Alcotest.(check int) (what ^ ": num_edges") (Graph.num_edges fresh)
      (Graph.num_edges g);
    Alcotest.(check int) (what ^ ": critical_length")
      (Graph.critical_length fresh) (Graph.critical_length g);
    Alcotest.(check bool) (what ^ ": 256 subsets") true
      (Graph.eval_subsets g all_sets = Graph.eval_subsets fresh all_sets)
  in
  (match warm.Snapshot.est_graph () with
   | Some g -> same "est_graph" g
   | None -> Alcotest.fail "warm fullgraph session has no graph");
  (* the image itself decodes (est_graph would fall back to a rebuild) *)
  (match warm.Snapshot.est_graph_bytes with
   | Some bytes -> same "unmarshal" (Graph.unmarshal bytes)
   | None -> Alcotest.fail "warm fullgraph session has no graph image");
  Alcotest.(check bool) "garbage image raises Failure" true
    (match Graph.unmarshal "not a graph" with
     | _ -> false
     | exception Failure _ -> true)

(* Without a snapshot store nothing reads the graph image, so a fresh
   fullgraph session keeps its graph but no marshalled copy of it. *)
let test_establish_no_cache_dir_keeps_no_image () =
  let est =
    Snapshot.establish ~key:"estab|nocache" ~kind:Runner.Fullgraph
      ~cfg:Config.default ~seed:0
      ~prepare:(fun () -> Lazy.force prepared)
      ()
  in
  Alcotest.(check bool) "no store = off" true (est.Snapshot.est_disk = `Off);
  Alcotest.(check bool) "session has its graph" true
    (est.Snapshot.est_graph () <> None);
  Alcotest.(check bool) "no graph image kept" true
    (est.Snapshot.est_graph_bytes = None)

let test_persist_only_on_growth () =
  let key = "growth" in
  let cfg = Config.default in
  let establish () =
    Snapshot.establish ~cache_dir:tmpdir ~key ~kind:Runner.Multisim ~cfg
      ~seed:0
      ~prepare:(fun () -> Lazy.force prepared)
      ()
  in
  let est = establish () in
  ignore (Cost.query est.Snapshot.est_oracle Category.Set.empty);
  Snapshot.persist ~dir:tmpdir ~key est;
  let file = Snapshot.file_of ~dir:tmpdir ~key in
  let stamp () = (Unix.stat file).Unix.st_mtime in
  let before = read_file file in
  (* no new queries: persist must not rewrite the file *)
  let t0 = stamp () in
  Snapshot.persist ~dir:tmpdir ~key est;
  Alcotest.(check bool) "no growth, no rewrite" true
    (stamp () = t0 && read_file file = before);
  (* one more query grows the memo, so persist rewrites *)
  ignore (Cost.query est.Snapshot.est_oracle Category.Set.full);
  Snapshot.persist ~dir:tmpdir ~key est;
  Alcotest.(check bool) "growth rewrites the snapshot" true
    (read_file file <> before);
  match Snapshot.load ~dir:tmpdir ~key with
  | `Hit p -> Alcotest.(check int) "grown memo persisted" 2
                (Array.length p.Snapshot.memo)
  | `Miss | `Reject _ -> Alcotest.fail "grown snapshot unreadable"

let suite =
  ( "snapshot",
    [
      Alcotest.test_case "round trip" `Quick test_round_trip;
      Alcotest.test_case "missing file is a miss" `Quick test_missing_is_miss;
      Alcotest.test_case "truncation rejected" `Quick test_truncated;
      Alcotest.test_case "flipped byte rejected" `Quick test_flipped_byte;
      Alcotest.test_case "wrong magic/version rejected" `Quick test_wrong_magic;
      Alcotest.test_case "key mismatch rejected" `Quick test_key_mismatch;
      Alcotest.test_case "concurrent readers" `Quick test_concurrent_readers;
      Alcotest.test_case "establish warm start" `Quick test_establish_warm_start;
      Alcotest.test_case "establish graph from disk" `Quick
        test_establish_graph_from_disk;
      Alcotest.test_case "establish without a cache dir keeps no graph image"
        `Quick test_establish_no_cache_dir_keeps_no_image;
      Alcotest.test_case "persist only on growth" `Quick
        test_persist_only_on_growth;
    ] )
