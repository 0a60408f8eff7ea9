(** Parametric sensitivity sweeps: d(cycles)/d(parameter) curves,
    saturation knees and resize ROI.

    Where the interaction-cost analyses idealize a resource completely
    (Sections 2-4 of the paper), a sweep evaluates a {e grid} of concrete
    provisionings along one or more {!Param} axes and post-processes the
    cycle curve into first differences, a {e saturation knee} (the first
    point, walking in the relaxation direction, whose marginal benefit
    per unit drops below a threshold fraction of the axis' best marginal
    benefit) and a cycles-per-unit-resource ranking surfaced as
    {!Icost_core.Advisor.Resize} recommendations — the sensitivity-and-
    causality reading of the related work (Dutilleul et al., Pompougnac
    et al.; PAPERS.md).

    One {!Icost_experiments.Runner.prepared} execution serves every
    point: traces are architectural and annotation is structural-only, so
    each point re-times the {e same} prepared trace under its perturbed
    config.  Distinct grid points are deduplicated by config digest
    (axes share their baseline point), evaluated in parallel over the
    {!Icost_util.Pool} domain pool, and individually supervised: a point
    that raises becomes a per-point error without poisoning its axis —
    mirroring the service batch op, and feeding the service's typed
    per-point errors directly.

    Telemetry: a [sweep.run] span with one [sweep.point] child per
    evaluated point.  The daemon adds its sweeps' [sw_points] /
    [sw_cache_hits] to the [sweep.points] / [sweep.cache_hits] counters.
    Each point evaluation is the [sweep_point] {!Icost_util.Fault}
    injection point. *)

module Config = Icost_uarch.Config
module Runner = Icost_experiments.Runner
module Advisor = Icost_core.Advisor

(** How a point is priced.  [Sim] re-runs the out-of-order timing model
    and reports simulated cycles ([multisim] engine); [Graph_cp] also
    rebuilds the dependence graph of the re-timed execution and reports
    its critical-path length ([graph]/[fullgraph] engine).  Either way
    the baseline point reproduces the corresponding engine's baseline
    bit-exactly (the [sweep-baseline-identity] law). *)
type engine = Sim | Graph_cp

val engine_of_string : string -> (engine, string) result
(** ["multisim"] is [Sim]; ["graph"]/["fullgraph"] are [Graph_cp]; the
    profiler cannot price arbitrary provisionings (its samples embed the
    session config), so ["profiler"] — like unknown names — is [Error]. *)

val engine_name : engine -> string
(** ["multisim"] / ["graph"]. *)

val eval_point :
  engine:engine -> cfg:Config.t -> prepared:Runner.prepared -> float
(** Price one config point (no caching, no supervision): a baseline
    {!Runner.baseline_run} re-simulation, plus the graph rebuild and
    critical path for [Graph_cp]. *)

type point = {
  pt_value : int;
  pt_cached : bool;  (** served by the [?point_cache] *)
  pt_outcome : (float, exn) result;  (** cycles, or what evaluation raised *)
}

type knee = {
  kn_value : int;
  kn_marginal : float;
      (** marginal benefit at the knee: cycles saved per unit over the
          step (in relaxation order) that reaches the knee *)
  kn_saturated : bool;
      (** false when no step dropped below the threshold — the knee is
          the grid edge and the resource is still paying off there *)
}

type curve = {
  cv_param : Param.t;
  cv_base_value : int;  (** the session config's value on this axis *)
  cv_points : point list;  (** ascending by value; includes the baseline *)
  cv_deltas : (int * float) list;
      (** [(value, d(cycles)/d(param))] between consecutive evaluated
          points in ascending-value order, attributed to the upper value *)
  cv_knee : knee option;  (** [None] with fewer than two evaluated points *)
}

type result = {
  sw_engine : engine;
  sw_baseline : float;  (** cycles at the unperturbed session config *)
  sw_points : int;  (** distinct config points evaluated (or served) *)
  sw_cache_hits : int;  (** of which the [?point_cache] already held *)
  sw_curves : curve list;  (** one per axis, in request order *)
}

val default_knee_frac : float
(** 0.05: a step is saturated when it saves less than 5% of the axis'
    best observed cycles-per-unit. *)

val run :
  ?knee_frac:float ->
  ?point_cache:(Config.t -> (unit -> float) -> float * bool) ->
  engine:engine ->
  cfg:Config.t ->
  prepared:Runner.prepared ->
  axes:Param.axis list ->
  unit ->
  result
(** Evaluate the grid.  Each axis is augmented with the session config's
    own value so every curve contains its baseline point; distinct
    configs across all axes are priced once.  [?point_cache cfg build]
    lets the caller (the resident server) interpose a digest-keyed cache:
    it returns the cycles and whether the entry already existed.  A point
    whose evaluation raises is reported as [Error] in its [pt_outcome];
    the baseline point raising is fatal (re-raised) since every
    derivative on the curve is relative to it.
    @raise Invalid_argument on an empty axis list. *)

val recommendations : result -> Advisor.recommendation list
(** One {!Advisor.Resize} per curve with a knee, ranked by descending
    cycles-per-unit ROI of moving the resource from its baseline value to
    the knee. *)

val to_string : result -> string
(** Human-readable curve tables (the [icost sweep] default output). *)
