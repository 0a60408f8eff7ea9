(** Per-static-instruction costs and interactions.

    Groups a graph's dynamic cache-miss events by static load and measures,
    with Tune et al.'s edge editing, the cost of prefetching one load's
    misses and the interaction cost between two loads' miss sets — the
    paper's prefetch-guidance application. *)

module Config = Icost_uarch.Config
module Events = Icost_uarch.Events
module Trace = Icost_isa.Trace

type t = {
  graph : Graph.t;
  cfg : Config.t;
  trace : Trace.t;
  miss_seqs : (int, int list) Hashtbl.t;
      (** static index -> dynamic seqs of its D-cache misses *)
  base : int;  (** baseline critical-path length *)
}

val create : Config.t -> Trace.t -> Events.evt array -> Graph.t -> t

val missing_loads : t -> (int * int) list
(** Static loads that missed, with dynamic miss counts, most frequent
    first. *)

val hits_override : Config.t -> (int, unit) Hashtbl.t -> Graph.edge -> int option
(** The [?override] that turns the D-cache misses of the dynamic loads
    in the set (by sequence number) into hits: their EP edges drop to the
    L1 hit latency and the PP edges their misses covered to 0. *)

val miss_cost : t -> int list -> int
(** Cycles saved by turning every D-cache miss of the given static loads
    into a hit (the benefit of perfectly prefetching them). *)

val miss_icost : t -> int -> int -> int
(** Interaction cost between two static loads' miss sets. *)

val category_icost : t -> int -> Icost_core.Category.t -> int
(** Interaction cost between one static load's misses and a whole event
    category (e.g. [Bmisp]: negative means prefetching the load also
    shortens branch resolution). *)

type advice = Prefetch_both | Prefetch_either | Independent

val advice_of_icost : ?threshold:int -> int -> advice
val advice_name : advice -> string

val pairwise_advice : ?top:int -> t -> (int * int * int * advice) list
(** Advice for every pair among the [top] most frequently missing loads:
    (load a, load b, icost, advice). *)

val static_exec_cost : t -> int -> int
(** Aggregate cost of one static instruction's execution latency over all
    its dynamic instances. *)
