(** Zero-dependency tracing and metrics sink for the analysis stack.

    Three kinds of instruments, all funneled into one process-global sink:

    - {b spans}: hierarchical wall-clock intervals (start/stop with
      nesting tracked per domain), each with a name, a thread (domain) id,
      a parent span and optional string attributes;
    - {b counters}: named monotonic integer counters, safe to bump from
      any domain concurrently (atomic, no lost increments under
      {!Pool.parallel_map});
    - {b gauges}: named last-write-wins floats for point-in-time values.

    {b Counters and gauges always record}: one [Atomic.fetch_and_add] or
    [Atomic.set], sink on or off, so the registry is the one copy of
    every counted fact that [status]/[health], the run manifest, the
    [icost.metrics.v1] export and the benches read.  {!enable} gates
    spans only, because spans read the clock and allocate: a disabled
    [start_span] is one atomic load returning the null token, so the hot
    paths allocate nothing either way.  (The pool's [*_us] counters are
    clock readings, so like spans they only grow while enabled.)
    Handles ({!counter}, {!gauge}) are interned once at
    module-initialization time, never in inner loops.

    Kept outside the registry: [Atomic] state (shutdown flags,
    degraded-until times, shard states, memoized replies), per-instance
    counts that drive behaviour (a fault point's hits for its [@K]
    schedule, a client session's retries, a breaker key's failures),
    [Icost_stream.Core]'s heap high-water mark (a maximum, which a
    last-write-wins gauge cannot hold) and per-call results such as a
    sweep's point counts.

    Span completion appends to a mutex-guarded global ring of
    {!span_capacity} records (the newest are kept; each overwritten
    record bumps the [telemetry.spans_dropped] counter), so the sink is
    safe with the {!Pool} domain pool active.  Exporters (the span tree,
    Chrome trace-event JSON and flat metrics JSON in [Icost_report])
    consume the accumulated data after the measured region.

    The clock defaults to [Unix.gettimeofday] (the finest-grained clock in
    the stdlib); it is pluggable via {!set_clock} so tests can drive spans
    deterministically. *)

(** {1 Sink control} *)

val enabled : unit -> bool
(** One atomic load; the guard every span call starts with. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero all counters and gauges and drop all completed spans (handles
    stay valid).  Intended for tests and for reusing one process for
    several measured runs. *)

val set_clock : (unit -> float) -> unit
(** Replace the span clock (seconds; must be non-decreasing). *)

(** {1 Counters and gauges} *)

type counter

val counter : string -> counter
(** Intern a counter by name: the same name always yields the same
    counter.  Call at module-initialization time, not in hot loops. *)

val add : counter -> int -> unit
(** One atomic add, sink enabled or not. *)

val incr : counter -> unit

val value : counter -> int

val since : (string * int) list -> counter -> int
(** [since base c] is [c]'s growth since [base], a {!counters} snapshot
    (absent names count from zero): a server reports counts since it
    started, even in a process that ran or forked it with counts already
    in the registry. *)

type gauge

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Spans} *)

type span
(** A token returned by {!start_span}; the null token (sink disabled at
    start time) makes {!end_span} a no-op. *)

val start_span : string -> span
(** Open a span on the current domain's stack.  Allocation-free when the
    sink is disabled. *)

val end_span : ?attrs:(string * string) list -> span -> unit
(** Close the span, recording its duration and attributes.  Build [attrs]
    only under an {!enabled} check so disabled call sites stay
    allocation-free. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span, closing it on exceptions
    too.  For coarse call sites (one span per report or per workload). *)

(** {1 Export} *)

type span_record = {
  id : int;  (** unique, > 0 *)
  parent : int;  (** enclosing span id, or 0 for a root *)
  tid : int;  (** domain id the span ran on *)
  name : string;
  start : float;  (** clock seconds at {!start_span} *)
  dur : float;  (** seconds *)
  attrs : (string * string) list;
}

val span_capacity : int
(** Completed spans retained ([2^18]); older ones are dropped and counted
    in [telemetry.spans_dropped]. *)

val spans : unit -> span_record list
(** The retained completed spans, sorted by start time. *)

val counters : unit -> (string * int) list
(** All interned counters with their current values, sorted by name. *)

val gauges : unit -> (string * float) list
