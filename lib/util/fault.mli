(** Deterministic fault injection for robustness testing.

    The service stack (and any future subsystem) declares {e named
    injection points} at its failure seams — socket reads and writes,
    request decoding, scheduler intake, worker bodies, cache builds —
    and asks each point whether to misbehave {e right now}.  Which
    points misbehave, and when, is driven entirely by a textual
    configuration, so a chaos run is reproducible from its spec string
    the same way an analysis is reproducible from its seed.

    {b Zero cost when off.}  Like {!Telemetry}'s spans, the framework
    is disabled by default: {!fire} first reads one atomic flag and
    returns [false] immediately, so production paths pay a single
    predictable branch and allocate nothing.  Handles ({!point}) are
    interned once at module-initialization time, never in hot loops.

    {b Deterministic when on.}  Every point owns a SplitMix64 stream
    seeded from the global seed and the point's name, and its own hit
    counter, both advanced under a per-point mutex.  A point's
    injection schedule therefore depends only on the spec and on how
    many times {e that point} was hit — not on thread interleaving
    across points.

    {b Spec grammar} ([ICOST_FAULTS] / [icost serve --faults]):

    {v points ::= point ("," point)*
point  ::= NAME                 fire on every hit
         | NAME ":" PROB        fire each hit with probability PROB in [0,1]
         | NAME ":" "@" K       fire on the K-th hit only (1-based)
         | NAME ":" "@" K "+"   fire on every hit from the K-th onward
spec   ::= points (";" "seed=" N)?   segments may appear in any order v}

    Example: ["write_short:0.2,worker_raise:0.05;seed=42"].  Points
    named in the spec that no code ever declares are legal (they simply
    never fire); declared points absent from the spec stay off. *)

type point
(** An interned injection point; obtain with {!point}. *)

exception Injected of string
(** Raised by {!trip}; carries the point name.  The standard "this
    fault is an exception" payload — handlers that must distinguish
    injected faults from organic ones can match on it. *)

(** {1 Configuration} *)

val configure : string -> (unit, string) result
(** Parse a spec, (re)seed and (re)arm every interned point, and enable
    the framework.  Replaces any previous configuration and resets all
    hit counts, so two [configure] calls with the same spec yield
    identical injection sequences. *)

val configure_exn : string -> unit
(** @raise Invalid_argument on a malformed spec. *)

val from_env : unit -> (unit, string) result
(** {!configure} from the [ICOST_FAULTS] environment variable; a no-op
    [Ok ()] when the variable is unset or empty. *)

val disable : unit -> unit
(** Drop the configuration; every point stops firing and {!fire}
    returns to its one-branch fast path. *)

val enabled : unit -> bool

val active_spec : unit -> string option
(** The normalized spec of the active configuration (always ends in
    [";seed=N"]), or [None] when disabled.  Recorded in run manifests
    so chaos artifacts are distinguishable from clean runs. *)

(** {1 Injection points} *)

val point : string -> point
(** Intern a point by name: the same name always yields the same point.
    Call at module-initialization time, not in hot loops. *)

val name : point -> string

val fire : point -> bool
(** Should this point misbehave now?  One atomic load and [false] when
    the framework is disabled; otherwise counts the hit, advances the
    point's PRNG/schedule, and reports an injection, counted in the
    {!Telemetry} counter [fault.injected]. *)

val trip : point -> unit
(** [trip p] raises [Injected (name p)] when [fire p] says so — the
    one-liner for "this seam fails by raising". *)

(** {1 Accounting} *)

val hits : point -> int
(** Times the point was consulted since the last {!configure}. *)

val fired : point -> int
(** Times it actually injected since the last {!configure}. *)
