(** Prefetching case study (extension; Sections 1-2 application).

    The paper motivates cost as "how much an optimization helps before
    further improvement is stopped by a secondary bottleneck."  This
    experiment closes that loop with a *real* optimization instead of an
    idealization: enable a stride prefetcher, re-annotate, re-simulate,
    and compare

    - the {b predicted} benefit: the miss cost of exactly the events the
      prefetcher ends up removing (measured on the baseline graph with
      Tune et al.'s edge editing);
    - the {b realized} benefit: the measured end-to-end speedup.

    The realized speedup should approach but not exceed the predicted cost
    (the prediction idealizes latency to a hit; a real prefetcher can at
    best do the same), and the post-optimization breakdown should show the
    secondary bottleneck absorbing the freed share. *)

module Config = Icost_uarch.Config
module Events = Icost_uarch.Events
module Interp = Icost_isa.Interp
module Trace = Icost_isa.Trace
module Ooo = Icost_sim.Ooo
module Build = Icost_depgraph.Build
module Graph = Icost_depgraph.Graph
module Category = Icost_core.Category
module Cost = Icost_core.Cost
module Workload = Icost_workloads.Workload
module Table = Icost_report.Table

type row = {
  bench : string;
  base_cycles : int;
  pf_cycles : int;
  realized_speedup_pct : float;
  predicted_cost_pct : float;  (** graph cost of the misses the prefetcher removed *)
  misses_before : int;
  misses_after : int;
  dmiss_share_before : float;
  dmiss_share_after : float;
}

let study_one (s : Runner.settings) (cfg : Config.t) name : row =
  let w = Workload.find_exn name in
  let program = w.build () in
  let trace =
    Interp.run ~config:{ Interp.default_config with max_instrs = s.warmup + s.measure }
      program
  in
  let annotate prefetch =
    let evts, _ = Events.annotate ~prefetch cfg trace in
    Events.slice evts ~start:s.warmup ~len:s.measure
  in
  let evts = annotate Events.no_prefetch in
  let evts_pf = annotate { Events.no_prefetch with stride_loads = true } in
  let mtrace = Trace.slice trace ~start:s.warmup ~len:s.measure in
  let result = Ooo.run cfg mtrace evts in
  let result_pf = Ooo.run cfg mtrace evts_pf in
  let realized =
    100. *. (float_of_int result.cycles /. float_of_int result_pf.cycles -. 1.)
  in
  (* predicted: on the BASELINE graph, idealize exactly the misses that the
     prefetcher removed (missing without prefetch, hitting with it) *)
  let graph = Build.of_sim cfg mtrace evts result in
  let removed = Hashtbl.create 256 in
  Array.iteri
    (fun i (e : Events.evt) ->
      if e.dl1_miss && not evts_pf.(i).dl1_miss then Hashtbl.replace removed i ())
    evts;
  let override = Icost_depgraph.Static_costs.hits_override cfg removed in
  let base_cp = Graph.critical_length graph in
  let predicted =
    100.
    *. float_of_int (base_cp - Graph.critical_length ~override graph)
    /. float_of_int base_cp
  in
  let dmiss_share evts result =
    let g = Build.of_sim cfg mtrace evts result in
    let oracle = Cost.memoize (Build.oracle g) in
    100.
    *. Cost.cost oracle (Category.Set.singleton Category.Dmiss)
    /. Cost.query oracle Category.Set.empty
  in
  let count evts =
    Array.fold_left (fun a (e : Events.evt) -> if e.dl1_miss then a + 1 else a) 0 evts
  in
  {
    bench = name;
    base_cycles = result.cycles;
    pf_cycles = result_pf.cycles;
    realized_speedup_pct = realized;
    predicted_cost_pct = predicted;
    misses_before = count evts;
    misses_after = count evts_pf;
    dmiss_share_before = dmiss_share evts result;
    dmiss_share_after = dmiss_share evts_pf result_pf;
  }

let default_benches = [ "gap"; "gzip"; "gcc"; "vpr"; "twolf"; "mcf" ]

let compute ?(settings = Runner.default_settings) ?(cfg = Config.default)
    ?(benches = default_benches) () : row list =
  List.map (study_one settings cfg) benches

let render (rows : row list) : string =
  let t =
    Table.create
      ~headers:
        [ "bench"; "misses"; "pf-misses"; "speedup"; "predicted"; "dmiss% before";
          "dmiss% after" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.bench; string_of_int r.misses_before; string_of_int r.misses_after;
          Printf.sprintf "%.1f%%" r.realized_speedup_pct;
          Printf.sprintf "%.1f%%" r.predicted_cost_pct;
          Table.cell_f r.dmiss_share_before; Table.cell_f r.dmiss_share_after ])
    rows;
  "Stride-prefetching case study: predicted miss cost vs realized speedup\n"
  ^ Table.render t

(** Shape checks: the prefetcher removes misses on stride-friendly codes;
    the realized speedup tracks (and does not wildly exceed) the predicted
    cost of the removed events. *)
let checks (rows : row list) : (string * bool) list =
  let stride_friendly = List.filter (fun r -> List.mem r.bench [ "gap"; "gcc"; "vpr" ]) rows in
  [
    ( "stride prefetching removes most misses on streaming kernels",
      List.for_all (fun r -> r.misses_after * 2 < r.misses_before) stride_friendly );
    ( "realized speedup is positive where misses were removed",
      List.for_all
        (fun r -> r.misses_before - r.misses_after < 50 || r.realized_speedup_pct > -0.5)
        rows );
    ( "realized speedup does not exceed prediction by more than 5 points",
      List.for_all (fun r -> r.realized_speedup_pct <= (1.3 *. r.predicted_cost_pct) +. 5.) rows );
    ( "dmiss share shrinks where misses were removed",
      List.for_all
        (fun r ->
          r.misses_after * 2 >= r.misses_before
          || r.dmiss_share_after <= r.dmiss_share_before +. 1.)
        stride_friendly );
  ]

(* ------------------------------------------------------------------ *)
(* Conclusion case study: "feedback-directed compilers could favor
   prefetching cache misses that serially interact with branch
   mispredicts."  We rank each static load's misses by their interaction
   cost with the bmisp category, then validate the ranking: perfectly
   prefetching a load with a serial bmisp interaction should also reduce
   the machine's measured misprediction cost. *)
(* ------------------------------------------------------------------ *)

module Static_costs = Icost_depgraph.Static_costs

type conclusion_row = {
  cbench : string;
  load_ix : int;  (** static index of the most bmisp-serial missing load *)
  load_cost_pct : float;
  bmisp_icost_pct : float;  (** negative = serial with mispredictions *)
  bmisp_cost_before : float;  (** multisim bmisp cost, cycles *)
  bmisp_cost_after : float;  (** ... after perfectly prefetching the load *)
}

let conclusion_one (s : Runner.settings) (cfg : Config.t) name : conclusion_row option =
  let w = Workload.find_exn name in
  let program = w.build () in
  let trace =
    Interp.run ~config:{ Interp.default_config with max_instrs = s.warmup + s.measure }
      program
  in
  let evts_full, _ = Events.annotate cfg trace in
  let mtrace = Trace.slice trace ~start:s.warmup ~len:s.measure in
  let evts = Events.slice evts_full ~start:s.warmup ~len:s.measure in
  let result = Ooo.run cfg mtrace evts in
  let graph = Build.of_sim cfg mtrace evts result in
  let sc = Static_costs.create cfg mtrace evts graph in
  match Static_costs.missing_loads sc with
  | [] -> None
  | loads ->
    (* the missing load whose misses interact most serially with bmisp *)
    let load_ix, ic =
      List.fold_left
        (fun (bix, bic) (ix, _) ->
          let ic = Static_costs.category_icost sc ix Category.Bmisp in
          if ic < bic then (ix, ic) else (bix, bic))
        (-1, max_int) loads
    in
    if load_ix < 0 then None
    else begin
      let base = float_of_int sc.base in
      let pct v = 100. *. float_of_int v /. base in
      (* validation: measure the simulator's bmisp cost before and after
         perfectly prefetching that load (its misses become hits in the
         event stream) *)
      let prefetched =
        Array.mapi
          (fun i (e : Events.evt) ->
            if
              e.dl1_miss
              && (Trace.get mtrace i).static_ix = load_ix
            then { e with dl1_miss = false; dl2_miss = false }
            else e)
          evts
      in
      (* drop stale share_src references to the removed misses *)
      let prefetched =
        Array.map
          (fun (e : Events.evt) ->
            match e.share_src with
            | Some src when not prefetched.(src).dl1_miss ->
              { e with share_src = None }
            | _ -> e)
          prefetched
      in
      (* bmisp cost in absolute cycles (percentages would compare against
         different baselines once the load is prefetched) *)
      let bmisp_cost evts =
        let o = Icost_core.Cost.memoize (Icost_sim.Multisim.oracle cfg mtrace evts) in
        Icost_core.Cost.cost o (Category.Set.singleton Category.Bmisp)
      in
      Some
        {
          cbench = name;
          load_ix;
          load_cost_pct = pct (Static_costs.miss_cost sc [ load_ix ]);
          bmisp_icost_pct = pct ic;
          bmisp_cost_before = bmisp_cost evts;
          bmisp_cost_after = bmisp_cost prefetched;
        }
    end

let conclusion_default_benches = [ "mcf"; "twolf"; "gzip"; "gcc" ]

let conclusion_compute ?(settings = Runner.default_settings)
    ?(cfg = Config.default) ?(benches = conclusion_default_benches) () :
    conclusion_row list =
  List.filter_map (conclusion_one settings cfg) benches

let conclusion_render (rows : conclusion_row list) : string =
  let t =
    Table.create
      ~headers:
        [ "bench"; "load"; "miss cost"; "icost(load,bmisp)"; "bmisp before";
          "bmisp after" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.cbench; Printf.sprintf "@%d" r.load_ix;
          Printf.sprintf "%.1f%%" r.load_cost_pct;
          Table.cell_f ~signed:true r.bmisp_icost_pct;
          Table.cell_f r.bmisp_cost_before; Table.cell_f r.bmisp_cost_after ])
    rows;
  "Conclusion case study: per-load misses vs branch-misprediction cost\n\
   (a serial icost predicts that prefetching the load also cuts bmisp cost)\n"
  ^ Table.render t

let conclusion_checks (rows : conclusion_row list) : (string * bool) list =
  let serial = List.filter (fun r -> r.bmisp_icost_pct < -1.) rows in
  [
    ( "at least one benchmark has a load serially interacting with bmisp",
      serial <> [] );
    ( "prefetching a bmisp-serial load reduces measured bmisp cost (cycles)",
      List.for_all
        (fun r -> r.bmisp_cost_after < (0.95 *. r.bmisp_cost_before) +. 10.)
        serial );
  ]
