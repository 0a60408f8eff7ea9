(** Per-static-instruction costs and interactions.

    The paper points out that icost analysis can attribute costs not only
    to machine resources but to *program locations*: "even determining the
    static instructions where it occurs, helping to guide prefetch
    optimizations" (Section 4.2), and the introduction's example groups
    "all cache misses from a single static load".

    This module groups a graph's dynamic events by static instruction and
    measures, with Tune et al.'s edge-editing method:

    - the cost of one static instruction's dynamic events (e.g. all misses
      of one load idealized to hits);
    - the interaction cost between two static instructions' event sets,
      classifying the pair as parallel (prefetch both), serial (one
      suffices) or independent. *)

module Isa = Icost_isa.Isa
module Trace = Icost_isa.Trace
module Events = Icost_uarch.Events
module Config = Icost_uarch.Config
module Category = Icost_core.Category
module Cost = Icost_core.Cost

type t = {
  graph : Graph.t;
  cfg : Config.t;
  trace : Trace.t;
  (* static index -> dynamic seqs of its D-cache misses *)
  miss_seqs : (int, int list) Hashtbl.t;
  base : int;
}

let create (cfg : Config.t) (trace : Trace.t) (evts : Events.evt array)
    (graph : Graph.t) : t =
  let miss_seqs = Hashtbl.create 64 in
  Array.iteri
    (fun i (e : Events.evt) ->
      let d = Trace.get trace i in
      if Isa.is_load d.instr && e.dl1_miss then
        Hashtbl.replace miss_seqs d.static_ix
          (i :: Option.value ~default:[] (Hashtbl.find_opt miss_seqs d.static_ix)))
    evts;
  { graph; cfg; trace; miss_seqs; base = Graph.critical_length graph }

(** Static loads that missed at least once, with their dynamic miss counts,
    most frequent first. *)
let missing_loads (t : t) : (int * int) list =
  Hashtbl.fold (fun ix seqs acc -> (ix, List.length seqs) :: acc) t.miss_seqs []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let seq_set (t : t) (static_ixs : int list) : (int, unit) Hashtbl.t =
  let set = Hashtbl.create 256 in
  List.iter
    (fun ix ->
      List.iter
        (fun seq -> Hashtbl.replace set seq ())
        (Option.value ~default:[] (Hashtbl.find_opt t.miss_seqs ix)))
    static_ixs;
  set

let hits_override (cfg : Config.t) seqs (e : Graph.edge) =
  match e.kind with
  | Graph.EP when Hashtbl.mem seqs (Graph.seq_of_node e.dst) ->
    (* reduce the load to its hit latency *)
    Some cfg.dl1_lat
  | Graph.PP when Hashtbl.mem seqs (Graph.seq_of_node e.src) ->
    (* the covering miss is gone, so the sharing constraint is too;
       keeping the edge at latency 0 is harmless but we drop its effect
       by zeroing it explicitly *)
    Some 0
  | _ -> None

(** [miss_cost t ixs] is the speedup (cycles) from turning every D-cache
    miss of the static loads [ixs] into a hit — the benefit of perfectly
    prefetching those loads. *)
let miss_cost (t : t) (static_ixs : int list) : int =
  let override = hits_override t.cfg (seq_set t static_ixs) in
  t.base - Graph.critical_length ~override t.graph

(** Interaction cost between two static loads' miss sets. *)
let miss_icost (t : t) a b : int =
  miss_cost t [ a; b ] - miss_cost t [ a ] - miss_cost t [ b ]

(** Interaction cost between one static load's misses and a whole event
    category (the paper's conclusion suggests prioritizing prefetches for
    loads whose misses {e serially} interact with branch mispredictions:
    prefetching them also shortens branch resolution). *)
let category_icost (t : t) static_ix (cat : Category.t) : int =
  let override = hits_override t.cfg (seq_set t [ static_ix ]) in
  let ideal = Category.Set.singleton cat in
  let cost_load = t.base - Graph.critical_length ~override t.graph in
  let cost_cat = t.base - Graph.critical_length ~ideal t.graph in
  let cost_both = t.base - Graph.critical_length ~ideal ~override t.graph in
  cost_both - cost_load - cost_cat

type advice = Prefetch_both | Prefetch_either | Independent

let advice_of_icost ?(threshold = 0) ic =
  if ic > threshold then Prefetch_both
  else if ic < -threshold then Prefetch_either
  else Independent

let advice_name = function
  | Prefetch_both -> "parallel interaction: prefetch both to realize the gain"
  | Prefetch_either -> "serial interaction: prefetching one largely covers the other"
  | Independent -> "independent: decide per load"

(** Pairwise advice for the [top] most frequently missing loads.  The
    threshold for calling an interaction parallel/serial is 0.5% of the
    baseline execution time. *)
let pairwise_advice ?(top = 4) (t : t) : (int * int * int * advice) list =
  let loads = List.filteri (fun i _ -> i < top) (List.map fst (missing_loads t)) in
  let threshold = t.base / 200 in
  let rec pairs = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
  in
  List.map
    (fun (a, b) ->
      let ic = miss_icost t a b in
      (a, b, ic, advice_of_icost ~threshold ic))
    (pairs loads)

(** Aggregate cost of a static instruction's execution latency (all its
    dynamic instances), regardless of class — useful for ranking hot
    dependences beyond loads. *)
let static_exec_cost (t : t) (static_ix : int) : int =
  let set = Hashtbl.create 256 in
  Array.iter
    (fun (d : Trace.dyn) -> if d.static_ix = static_ix then Hashtbl.replace set d.seq ())
    t.trace.instrs;
  Graph.cost_of_edges t.graph (fun e ->
      e.kind = Graph.EP && Hashtbl.mem set (Graph.seq_of_node e.dst))
