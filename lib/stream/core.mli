(** Bounded-memory streaming analysis core: consumes a {!Source.t} in
    fixed-size segments, times each with the bounded-state simulator,
    compiles it into a dependence-graph fragment with pinned boundary
    nodes, and aggregates the absolute execution time of {e every}
    idealization subset online.  Because all graph edges point forward,
    the segmented recurrence continues the monolithic one exactly — the
    aggregate is bit-identical to whole-trace analysis (pinned by the
    [stream-matches-monolithic] conformance law) while peak memory stays
    O(segment + window), independent of trace length. *)

module Config = Icost_uarch.Config
module Category = Icost_core.Category
module Cost = Icost_core.Cost

exception Segment_fault of int
(** The [stream_segment] fault point fired while opening the given
    segment; no partial aggregate is published. *)

type seg_stat = {
  seg_id : int;
  seg_start : int;  (** global index of the segment's first instruction *)
  seg_len : int;
  cum_cycles : int;  (** baseline cycle frontier after this segment *)
  heap_words : int;  (** major-heap words sampled after this segment *)
}

type result = {
  times : int array;
      (** absolute execution time (cycles) per idealization subset,
          indexed by {!Category.Set.t}; length [2^Category.count] *)
  instrs : int;
  segments : int;
  segment_insns : int;
  cycles : int;  (** baseline time, [times.(Category.Set.empty)] *)
  sim_cycles : int;  (** streaming simulator's own cycle count *)
  peak_heap_words : int;
  seg_stats : seg_stat list;  (** in segment order *)
}

val default_segment_insns : int
(** 8192: large enough to amortize per-segment fragment compilation,
    small enough that a per-job slab stays ~10 MB. *)

val analyze : ?segment_insns:int -> Config.t -> Source.t -> result
(** Stream the source to exhaustion.  Deterministic and invariant under
    both [segment_insns] and the pool job count (each 32-lane chunk is an
    independent recurrence over a disjoint lane range).
    @raise Segment_fault when the [stream_segment] injection point fires. *)

val oracle : result -> Cost.oracle
(** Table-backed cost oracle over the streamed aggregate: every subset
    query is answered from [times], so all downstream breakdown/icost
    machinery runs unchanged over arbitrarily long traces. *)

val peak_mb : result -> float
(** [peak_heap_words] in megabytes. *)

val peak_mb_hwm : unit -> float
(** High-water mark of [peak_heap_words] across every [analyze] run in
    this process, in MB; the service reports it as [stream_peak_mb].
    Segments are counted in the [stream.segments] telemetry counter. *)
