(** Zero-dependency tracing and metrics sink for the analysis stack.

    Three kinds of instruments, all funneled into one process-global sink:

    - {b spans}: hierarchical wall-clock intervals (start/stop with
      nesting tracked per domain), each with a name, a thread (domain) id,
      a parent span and optional string attributes;
    - {b counters}: named monotonic integer counters, safe to bump from
      any domain concurrently (atomic, no lost increments under
      {!Pool.parallel_map});
    - {b gauges}: named last-write-wins floats for point-in-time values.

    The sink is {e disabled by default}: every instrument call first reads
    one atomic flag and returns immediately when it is off, so the hot
    paths (graph evaluation, the timing simulator, the pool's task pull
    loop) pay a single predictable branch and allocate nothing.  Handles
    ({!counter}, {!gauge}) are interned once at module-initialization time
    of the instrumented module, never in inner loops.

    When enabled, span completion appends to a mutex-guarded global ring
    of {!span_capacity} records (the newest are kept; each overwritten
    record bumps the [telemetry.spans_dropped] counter) and counter
    bumps are single [Atomic.fetch_and_add]s, so the sink is safe with
    the {!Pool} domain pool active.  Exporters (the span tree,
    Chrome trace-event JSON and flat metrics JSON in [Icost_report])
    consume the accumulated data after the measured region.

    The clock defaults to [Unix.gettimeofday] (the finest-grained clock in
    the stdlib); it is pluggable via {!set_clock} so tests can drive spans
    deterministically. *)

(** {1 Sink control} *)

val enabled : unit -> bool
(** One atomic load; the guard every instrument call starts with. *)

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
(** Atomic add, a no-op (one branch) when the sink is disabled. *)

val incr : counter -> unit

val value : counter -> int

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
