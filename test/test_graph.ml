(* Tests for the dependence-graph model: structure, evaluation,
   idealization, critical path, slack, agreement with the simulator. *)

module Asm = Icost_isa.Asm
module Interp = Icost_isa.Interp
module Trace = Icost_isa.Trace
module Config = Icost_uarch.Config
module Events = Icost_uarch.Events
module Ooo = Icost_sim.Ooo
module Build = Icost_depgraph.Build
module Graph = Icost_depgraph.Graph
module Category = Icost_core.Category

let graph_of ?(max_instrs = 3000) ?(cfg = Config.default) name =
  let w = Icost_workloads.Workload.find_exn name in
  let trace = Interp.run ~config:{ Interp.default_config with max_instrs } (w.build ()) in
  let evts, _ = Events.annotate cfg trace in
  let r = Ooo.run cfg trace evts in
  (trace, evts, r, Build.of_sim cfg trace evts r)

let test_node_codec () =
  List.iter
    (fun k ->
      let v = Graph.node ~seq:17 ~kind:k in
      Alcotest.(check int) "seq round trip" 17 (Graph.seq_of_node v);
      Alcotest.(check bool) "kind round trip" true (Graph.kind_of_node v = k))
    [ Graph.D; Graph.R; Graph.E; Graph.P; Graph.C ]

let test_edge_counts () =
  let cfg = Config.default in
  let _, _, _, g = graph_of "gcc" in
  let n = Graph.num_instrs g in
  let h = Graph.edge_histogram g in
  let count k = Option.value ~default:0 (Hashtbl.find_opt h k) in
  Alcotest.(check int) "DD edges" (n - 1) (count Graph.DD);
  Alcotest.(check int) "DR edges" n (count Graph.DR);
  Alcotest.(check int) "RE edges" n (count Graph.RE);
  Alcotest.(check int) "EP edges" n (count Graph.EP);
  Alcotest.(check int) "PC edges" n (count Graph.PC);
  Alcotest.(check int) "CC edges" (n - 1) (count Graph.CC);
  Alcotest.(check int) "CD edges" (n - cfg.window_size) (count Graph.CD);
  (* FBW: one per instruction beyond the fetch width, plus one per taken
     branch beyond the per-cycle taken limit *)
  Alcotest.(check bool) "FBW edges at least n - fbw" true
    (count Graph.FBW >= n - cfg.fetch_bw);
  Alcotest.(check int) "CBW edges" (n - cfg.commit_bw) (count Graph.CBW)

let test_edges_point_forward () =
  let _, _, _, g = graph_of "parser" in
  for k = 0 to Graph.num_edges g - 1 do
    let e = Graph.edge g k in
    if e.src >= e.dst then Alcotest.failf "edge not forward: %d -> %d" e.src e.dst
  done

let test_eval_monotone_nodes () =
  let _, _, _, g = graph_of "gzip" in
  let time = Graph.eval g in
  for i = 0 to Graph.num_instrs g - 1 do
    let t k = time.(Graph.node ~seq:i ~kind:k) in
    if
      not
        (t Graph.D <= t Graph.R && t Graph.R <= t Graph.E && t Graph.E <= t Graph.P
         && t Graph.P <= t Graph.C)
    then Alcotest.failf "node times not monotone at %d" i
  done

let test_graph_tracks_simulator () =
  List.iter
    (fun name ->
      let _, _, r, g = graph_of name in
      let cp = Graph.critical_length g in
      let err =
        Float.abs (float_of_int (cp - r.Ooo.cycles)) /. float_of_int r.Ooo.cycles
      in
      if err > 0.08 then
        Alcotest.failf "%s: graph CP %d vs sim %d (err %.1f%%)" name cp r.Ooo.cycles
          (100. *. err))
    [ "gcc"; "mcf"; "gap"; "vortex"; "bzip2"; "eon" ]

let test_idealization_monotone_on_graph () =
  let _, _, _, g = graph_of "twolf" in
  let base = Graph.critical_length g in
  (* more idealization can only shorten the critical path *)
  List.iter
    (fun s ->
      let cp = Graph.critical_length ~ideal:s g in
      if cp > base then Alcotest.failf "idealized CP grew under %s" (Category.Set.name s))
    (Category.Set.subsets Category.Set.full)

let test_subset_monotonicity () =
  let _, _, _, g = graph_of "gcc" in
  let cp s = Graph.critical_length ~ideal:s g in
  let full = Category.Set.full in
  List.iter
    (fun s ->
      List.iter
        (fun c ->
          if not (Category.Set.mem c s) then begin
            let bigger = Category.Set.add c s in
            if cp bigger > cp s then
              Alcotest.failf "CP grew when adding %s to %s" (Category.name c)
                (Category.Set.name s)
          end)
        Category.all)
    (Category.Set.subsets full)

let test_critical_path_valid () =
  let _, _, _, g = graph_of ~max_instrs:500 "crafty" in
  let time = Graph.eval g in
  let cp = Graph.critical_path g in
  Alcotest.(check bool) "path non-empty" true (List.length cp > 1);
  (* path ends at the last C node *)
  let last_node = fst (List.nth cp (List.length cp - 1)) in
  Alcotest.(check int) "ends at final commit"
    (Graph.node ~seq:(Graph.num_instrs g - 1) ~kind:Graph.C)
    last_node;
  (* times along the path never decrease *)
  let rec check = function
    | (v, _) :: ((w, _) :: _ as rest) ->
      if time.(v) > time.(w) then Alcotest.failf "time decreased along path";
      check rest
    | _ -> ()
  in
  check cp

let test_slack_zero_on_critical_path () =
  let _, _, _, g = graph_of ~max_instrs:500 "gap" in
  let slacks = Graph.slacks g in
  let cp = Graph.critical_path g in
  List.iter
    (fun (v, _) ->
      if slacks.(v) <> 0 then
        Alcotest.failf "critical node %s has slack %d" (Graph.node_name v) slacks.(v))
    cp

let test_slacks_nonnegative () =
  let _, _, _, g = graph_of ~max_instrs:500 "vpr" in
  Array.iteri
    (fun v s ->
      if s <> max_int && s < 0 then
        Alcotest.failf "negative slack at %s" (Graph.node_name v))
    (Graph.slacks g)

let test_instr_cost () =
  let _, _, _, g = graph_of ~max_instrs:400 "mcf" in
  let base = Graph.critical_length g in
  (* zeroing one instruction's EP can only help, and not more than base *)
  for seq = 0 to 50 do
    let c = Graph.instr_cost g ~seq in
    if c < 0 || c > base then Alcotest.failf "instr_cost out of range at %d: %d" seq c
  done

let test_cost_of_edges_total () =
  let _, _, _, g = graph_of ~max_instrs:400 "gcc" in
  (* zeroing every edge collapses the critical path to ~0 *)
  let c = Graph.cost_of_edges g (fun _ -> true) in
  let base = Graph.critical_length g in
  Alcotest.(check bool) "all-edge cost ~ base (modulo the startup floor)" true
    (base - c <= 150)

let test_table2_ablations () =
  let cfg = Config.default in
  let w = Icost_workloads.Workload.find_exn "gzip" in
  let trace = Interp.run ~config:{ Interp.default_config with max_instrs = 2000 } (w.build ()) in
  let evts, _ = Events.annotate cfg trace in
  let r = Ooo.run cfg trace evts in
  let p = Build.params_of_config cfg in
  let infos =
    Array.init (Trace.length trace) (fun i ->
        Build.info_of_sim cfg (Trace.get trace i) evts.(i) r.Ooo.slots.(i))
  in
  let g_new = Build.of_infos p infos in
  let g_old = Build.of_infos { p with explicit_bw = false; pp_edges = false } infos in
  let h_old = Graph.edge_histogram g_old in
  Alcotest.(check (option int)) "old model has no FBW edges" None
    (Hashtbl.find_opt h_old Graph.FBW);
  Alcotest.(check (option int)) "old model has no PP edges" None
    (Hashtbl.find_opt h_old Graph.PP);
  (* both models should still be within a reasonable band of the simulator *)
  let cp_new = Graph.critical_length g_new in
  let cp_old = Graph.critical_length g_old in
  let err cp = Float.abs (float_of_int (cp - r.Ooo.cycles)) /. float_of_int r.Ooo.cycles in
  Alcotest.(check bool) "new model accurate" true (err cp_new < 0.08);
  Alcotest.(check bool)
    (Printf.sprintf "old model less constrained (%d vs %d)" cp_old cp_new)
    true (cp_old <= cp_new)

let test_dot_output () =
  let _, _, _, g = graph_of ~max_instrs:12 "gcc" in
  let dot = Graph.to_dot g in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "contains edges" true
    (String.split_on_char '\n' dot
     |> List.exists (fun l -> String.length l > 4 && String.sub l 2 1 = "n"))

let all_subsets = Array.of_list (Category.Set.subsets Category.Set.full)

let test_sliced_matches_scalar () =
  let _, _, _, g = graph_of ~cfg:Config.loop_dl1 "gcc" in
  let reference = Graph.eval_subsets_scalar g all_subsets in
  Alcotest.(check bool) "default lanes bit-identical (256 sets, >1 chunk)"
    true
    (Graph.eval_subsets g all_subsets = reference);
  List.iter
    (fun lanes ->
      Alcotest.(check bool)
        (Printf.sprintf "lanes=%d bit-identical" lanes)
        true
        (Graph.eval_slices ~lanes g all_subsets = reference))
    [ 1; 2; 3; 5; 17; 63; 64; 1000 ];
  Alcotest.(check bool) "empty set array" true
    (Graph.eval_subsets g [||] = [||])

let test_sliced_unpacked_fallback () =
  (* a 500k-cycle L1 latency pushes the compiled graph's latency bound
     far past the 20-bit packed-lane capacity, forcing the unpacked
     evaluation path; it must stay bit-identical to the scalar one *)
  let cfg = { Config.default with Config.dl1_lat = 500_000 } in
  let _, _, _, g = graph_of ~max_instrs:800 ~cfg "gcc" in
  let reference = Graph.eval_subsets_scalar g all_subsets in
  Alcotest.(check bool) "huge-latency graph exceeds packed range" true
    (Graph.critical_length g > 1 lsl 20);
  Alcotest.(check bool) "unpacked fallback bit-identical" true
    (Graph.eval_subsets g all_subsets = reference);
  (* partial and full chunks both run the pinned lane kernel *)
  List.iter
    (fun lanes ->
      Alcotest.(check bool)
        (Printf.sprintf "unpacked fallback, lanes=%d" lanes)
        true
        (Graph.eval_slices ~lanes g all_subsets = reference))
    [ 1; 5; 32; 64 ]

(* ---- golden pin of the graph ---- *)

let fnv32 = Kernel_util_shim.fnv32
let chars s = Seq.map Char.code (String.to_seq s)

(* A 5k-instruction measurement window after [warmup] instructions, the
   way a served breakdown builds its graph. *)
let window_graph ~warmup name =
  let s = { Icost_experiments.Runner.warmup; measure = 5000; benches = [ name ] } in
  Icost_experiments.Runner.graph_of Config.default
    (Icost_experiments.Runner.prepare s (Icost_workloads.Workload.find_exn name))

(* Every edge's (src, dst, kind, base, components, removed_by), visited in
   CSR order through the override hook (which sees every edge and, by
   answering [None], leaves every latency as it is). *)
let edges_hash g =
  let acc = ref [] in
  ignore
    (Graph.eval
       ~override:(fun (e : Graph.edge) ->
         let comps =
           List.concat_map
             (fun (c : Graph.component) -> [ Category.to_int c.cat; c.lat ])
             e.components
         in
         let removed =
           match e.removed_by with None -> -1 | Some c -> Category.to_int c
         in
         acc :=
           List.rev_append
             ((e.src :: e.dst :: List.of_seq (chars (Graph.edge_kind_name e.kind)))
             @ (e.base :: List.length e.components :: comps) @ [ removed ])
             !acc;
         None)
       g);
  fnv32 (List.to_seq (List.rev !acc))

let path_hash g =
  fnv32
    (Seq.flat_map
       (fun (v, k) ->
         Seq.cons v
           (match k with
            | None -> Seq.return (-1)
            | Some k -> chars (Graph.edge_kind_name k)))
       (List.to_seq (Graph.critical_path g)))

(* Golden (num_edges, edges, critical path, slacks, DOT, 256-subset) hashes
   recorded from the graph builder that kept boxed edge records next to
   its flat arrays: any change to what the builder emits, how a node's
   in-edges are ordered or how the graph evaluates moves one of them.
   gcc with no warm-up covers the first instruction's I-cache floor. *)
let test_graph_golden () =
  List.iter
    (fun (name, warmup, (ne, eh, ph, sh, dh, vh)) ->
      let g = window_graph ~warmup name in
      let label what = Printf.sprintf "%s/w%d %s" name warmup what in
      Alcotest.(check int) (label "num_edges") ne (Graph.num_edges g);
      Alcotest.(check int) (label "edges") eh (edges_hash g);
      Alcotest.(check int) (label "critical path") ph (path_hash g);
      Alcotest.(check int) (label "slacks") sh (fnv32 (Array.to_seq (Graph.slacks g)));
      Alcotest.(check int) (label "dot") dh (fnv32 (chars (Graph.to_dot g)));
      Alcotest.(check int) (label "eval_subsets") vh
        (fnv32 (Array.to_seq (Graph.eval_subsets g all_subsets))))
    [
      ( "gcc", 20_000,
        (52569, 2598129366, 2053837460, 3419262926, 1842190511, 1764468765) );
      ( "mcf", 20_000,
        (51991, 2257539737, 2902461853, 1297335324, 860343012, 3642992677) );
      ( "vortex", 20_000,
        (52068, 1806962909, 1660226765, 1110285800, 1763516473, 1644784037) );
      ( "gcc", 0,
        (53239, 2216803392, 1789050817, 15037530, 2039423208, 2460639617) );
    ]

let prop_eval_deterministic =
  QCheck.Test.make ~name:"evaluation is deterministic" ~count:5
    (QCheck.make (QCheck.Gen.oneofl [ "gap"; "eon" ]))
    (fun name ->
      let _, _, _, g = graph_of ~max_instrs:1000 name in
      Graph.eval g = Graph.eval g)

let suite =
  ( "graph",
    [
      Alcotest.test_case "node codec" `Quick test_node_codec;
      Alcotest.test_case "edge counts" `Quick test_edge_counts;
      Alcotest.test_case "edges forward" `Quick test_edges_point_forward;
      Alcotest.test_case "node times monotone" `Quick test_eval_monotone_nodes;
      Alcotest.test_case "graph tracks simulator" `Quick test_graph_tracks_simulator;
      Alcotest.test_case "idealization shortens CP" `Quick test_idealization_monotone_on_graph;
      Alcotest.test_case "subset monotonicity" `Quick test_subset_monotonicity;
      Alcotest.test_case "critical path valid" `Quick test_critical_path_valid;
      Alcotest.test_case "zero slack on CP" `Quick test_slack_zero_on_critical_path;
      Alcotest.test_case "slacks non-negative" `Quick test_slacks_nonnegative;
      Alcotest.test_case "instr cost bounded" `Quick test_instr_cost;
      Alcotest.test_case "cost of all edges" `Quick test_cost_of_edges_total;
      Alcotest.test_case "Table 2 ablations" `Quick test_table2_ablations;
      Alcotest.test_case "DOT output" `Quick test_dot_output;
      Alcotest.test_case "sliced eval = scalar" `Quick test_sliced_matches_scalar;
      Alcotest.test_case "sliced eval unpacked fallback" `Quick
        test_sliced_unpacked_fallback;
      Alcotest.test_case "graph golden pin" `Quick test_graph_golden;
      QCheck_alcotest.to_alcotest prop_eval_deterministic;
    ] )
