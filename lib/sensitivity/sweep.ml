(* Sweep planner and evaluator.  See the .mli for the analysis story; the
   implementation notes here are about determinism and sharing:

   - the job list (distinct configs over all axes) is built in a fixed
     order — axes in request order, values ascending, first occurrence
     wins — so fault-injection schedules and sequential runs are
     reproducible, and parallel evaluation returns results positionally
     (Pool.parallel_map is deterministic by construction);
   - deduplication keys on the marshalled-config digest, the same key
     shape the server's sweep-point cache uses, so "two axes sharing
     their baseline point" and "two requests sharing a point" are the
     same mechanism;
   - per-point supervision catches *inside* the pool job: the pool
     propagates the smallest-index exception, which would turn one bad
     point into a whole-sweep failure. *)

module Config = Icost_uarch.Config
module Runner = Icost_experiments.Runner
module Graph = Icost_depgraph.Graph
module Advisor = Icost_core.Advisor
module Texport = Icost_report.Telemetry_export
module Telemetry = Icost_util.Telemetry
module Pool = Icost_util.Pool
module Fault = Icost_util.Fault

type engine = Sim | Graph_cp

let engine_of_string = function
  | "multisim" -> Ok Sim
  | "graph" | "fullgraph" -> Ok Graph_cp
  | "profiler" -> Error "the profiler engine cannot price swept configs"
  | s -> Error (Printf.sprintf "unknown sweep engine %S" s)

let engine_name = function Sim -> "multisim" | Graph_cp -> "graph"

let eval_point ~engine ~cfg ~prepared =
  let r = Runner.baseline_run cfg prepared in
  match engine with
  | Sim -> float_of_int r.Icost_sim.Ooo.cycles
  | Graph_cp ->
    let g = Runner.graph_of ~baseline:r cfg prepared in
    float_of_int (Graph.critical_length g)

type point = {
  pt_value : int;
  pt_cached : bool;
  pt_outcome : (float, exn) result;
}

type knee = { kn_value : int; kn_marginal : float; kn_saturated : bool }

type curve = {
  cv_param : Param.t;
  cv_base_value : int;
  cv_points : point list;
  cv_deltas : (int * float) list;
  cv_knee : knee option;
}

type result = {
  sw_engine : engine;
  sw_baseline : float;
  sw_points : int;
  sw_cache_hits : int;
  sw_curves : curve list;
}

let default_knee_frac = 0.05

let fp_point = Fault.point "sweep_point"

(* First differences along ascending values, over evaluated points only;
   attributed to the upper value of each step. *)
let deltas_of points =
  let ok =
    List.filter_map
      (fun pt ->
        match pt.pt_outcome with
        | Ok c -> Some (pt.pt_value, c)
        | Error _ -> None)
      points
  in
  let rec go acc = function
    | (v1, c1) :: ((v2, c2) :: _ as tl) ->
      go ((v2, (c2 -. c1) /. float_of_int (v2 - v1)) :: acc) tl
    | _ -> List.rev acc
  in
  go [] ok

(* Walk the curve in relaxation order; each step's marginal benefit is
   cycles saved per unit of resource.  The knee is the first step whose
   marginal drops below knee_frac of the axis' best marginal; a flat
   axis knees immediately, an axis still paying off at the grid edge
   reports the edge unsaturated. *)
let knee_of ~knee_frac (p : Param.t) points =
  let ok =
    List.filter_map
      (fun pt ->
        match pt.pt_outcome with Ok c -> Some (pt.pt_value, c) | Error _ -> None)
      points
  in
  let ordered =
    match p.Param.p_dir with
    | Param.More_is_better -> ok
    | Param.Less_is_better -> List.rev ok
  in
  let rec steps acc = function
    | (v1, c1) :: ((v2, c2) :: _ as tl) ->
      steps ((v2, (c1 -. c2) /. float_of_int (abs (v2 - v1))) :: acc) tl
    | _ -> List.rev acc
  in
  match (ordered, steps [] ordered) with
  | [], _ | [ _ ], _ | _, [] -> None
  | (v0, _) :: _, step_list ->
    let best = List.fold_left (fun m (_, d) -> Float.max m d) 0. step_list in
    if best <= 0. then
      (* relaxing never helped: saturated from the start *)
      Some { kn_value = v0; kn_marginal = 0.; kn_saturated = true }
    else
      let threshold = knee_frac *. best in
      let rec find = function
        | [] ->
          let v, d = List.nth step_list (List.length step_list - 1) in
          Some { kn_value = v; kn_marginal = d; kn_saturated = false }
        | (v, d) :: tl ->
          if d < threshold then
            Some { kn_value = v; kn_marginal = d; kn_saturated = true }
          else find tl
      in
      find step_list

let run ?(knee_frac = default_knee_frac) ?point_cache ~engine ~cfg ~prepared
    ~(axes : Param.axis list) () =
  if axes = [] then invalid_arg "Sweep.run: no axes";
  (* every axis gains the session config's own value as a point *)
  let axes =
    List.map
      (fun (a : Param.axis) ->
        Param.axis a.Param.ax_param
          (a.Param.ax_param.Param.p_get cfg :: a.Param.ax_values))
      axes
  in
  (* distinct configs in first-seen order, keyed by marshalled digest *)
  let index = Hashtbl.create 64 in
  let rev_jobs = ref [] in
  let njobs = ref 0 in
  List.iter
    (fun (a : Param.axis) ->
      List.iter
        (fun v ->
          let c = a.Param.ax_param.Param.p_apply cfg v in
          let d = Texport.digest c in
          if not (Hashtbl.mem index d) then (
            Hashtbl.add index d !njobs;
            incr njobs;
            rev_jobs := (a.Param.ax_param, v, c) :: !rev_jobs))
        a.Param.ax_values)
    axes;
  let jobs = Array.of_list (List.rev !rev_jobs) in
  let hits = Atomic.make 0 in
  let span = Telemetry.start_span "sweep.run" in
  let outcomes =
    Pool.parallel_map
      (fun (p, v, c) ->
        let sp = Telemetry.start_span "sweep.point" in
        let res =
          try
            Fault.trip fp_point;
            match point_cache with
            | None -> Ok (eval_point ~engine ~cfg:c ~prepared, false)
            | Some f -> Ok (f c (fun () -> eval_point ~engine ~cfg:c ~prepared))
          with e -> Error e
        in
        (match res with Ok (_, true) -> Atomic.incr hits | _ -> ());
        (if Telemetry.enabled () then
           Telemetry.end_span sp
             ~attrs:
               [
                 ("param", p.Param.p_name);
                 ("value", string_of_int v);
                 ( "cached",
                   match res with Ok (_, h) -> string_of_bool h | _ -> "false"
                 );
               ]
         else Telemetry.end_span sp);
        res)
      jobs
  in
  (if Telemetry.enabled () then
     Telemetry.end_span span
       ~attrs:
         [
           ("engine", engine_name engine);
           ("points", string_of_int (Array.length jobs));
           ("axes", string_of_int (List.length axes));
         ]
   else Telemetry.end_span span);
  let outcome_of c = outcomes.(Hashtbl.find index (Texport.digest c)) in
  let sw_baseline =
    match outcome_of cfg with Ok (cy, _) -> cy | Error e -> raise e
  in
  let curves =
    List.map
      (fun (a : Param.axis) ->
        let p = a.Param.ax_param in
        let points =
          List.map
            (fun v ->
              match outcome_of (p.Param.p_apply cfg v) with
              | Ok (cy, cached) ->
                { pt_value = v; pt_cached = cached; pt_outcome = Ok cy }
              | Error e ->
                { pt_value = v; pt_cached = false; pt_outcome = Error e })
            a.Param.ax_values
        in
        {
          cv_param = p;
          cv_base_value = p.Param.p_get cfg;
          cv_points = points;
          cv_deltas = deltas_of points;
          cv_knee = knee_of ~knee_frac p points;
        })
      axes
  in
  {
    sw_engine = engine;
    sw_baseline;
    sw_points = Array.length jobs;
    sw_cache_hits = Atomic.get hits;
    sw_curves = curves;
  }

let recommendations (r : result) : Advisor.recommendation list =
  let resize (cv : curve) =
    match cv.cv_knee with
    | None -> None
    | Some k ->
      let cycles_at v =
        List.find_map
          (fun pt ->
            if pt.pt_value = v then Result.to_option pt.pt_outcome else None)
          cv.cv_points
      in
      (match cycles_at k.kn_value with
      | None -> None
      | Some knee_cycles ->
        let units = abs (k.kn_value - cv.cv_base_value) in
        let saved = r.sw_baseline -. knee_cycles in
        Some
          (Advisor.Resize
             {
               resource = cv.cv_param.Param.p_name;
               from_units = cv.cv_base_value;
               to_units = k.kn_value;
               cycles_saved = saved;
               cycles_per_unit =
                 (if units = 0 then 0. else saved /. float_of_int units);
             }))
  in
  let per_unit = function
    | Advisor.Resize { cycles_per_unit; _ } -> cycles_per_unit
    | _ -> 0.
  in
  List.filter_map resize r.sw_curves
  |> List.stable_sort (fun a b -> Float.compare (per_unit b) (per_unit a))

let to_string (r : result) : string =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "engine %s; baseline %.0f cycles\n" (engine_name r.sw_engine)
    r.sw_baseline;
  List.iter
    (fun cv ->
      let p = cv.cv_param in
      Printf.bprintf buf "\n%s (%s, baseline %d):\n" p.Param.p_name
        p.Param.p_unit cv.cv_base_value;
      Printf.bprintf buf "  %10s %12s %14s\n" "value" "cycles" "d(cyc)/d(par)";
      List.iter
        (fun pt ->
          let delta =
            match List.assoc_opt pt.pt_value cv.cv_deltas with
            | Some d -> Printf.sprintf "%14.3f" d
            | None -> Printf.sprintf "%14s" "-"
          in
          let marks =
            (if pt.pt_value = cv.cv_base_value then " *base*" else "")
            ^
            match cv.cv_knee with
            | Some k when k.kn_value = pt.pt_value ->
              if k.kn_saturated then " *knee*" else " *knee (unsaturated)*"
            | _ -> ""
          in
          match pt.pt_outcome with
          | Ok cy ->
            Printf.bprintf buf "  %10d %12.0f %s%s\n" pt.pt_value cy delta marks
          | Error e ->
            Printf.bprintf buf "  %10d %12s error: %s\n" pt.pt_value "-"
              (Printexc.to_string e))
        cv.cv_points)
    r.sw_curves;
  (match recommendations r with
  | [] -> ()
  | recs ->
    Buffer.add_string buf "\nrecommendations (by cycles-per-unit ROI):\n";
    List.iter
      (fun rc ->
        Printf.bprintf buf "  %s\n" (Advisor.recommendation_to_string rc))
      recs);
  Buffer.contents buf
