(** Out-of-order processor timing model (the machine of Table 6).

    Consumes a committed dynamic trace plus its event annotations and
    produces per-instruction stage timings and the total cycle count.
    Wrong-path instructions are not simulated; a misprediction contributes
    a fetch-redirect bubble.  Every idealization of the paper's Table 1 is
    honored through {!Icost_uarch.Config.ideal}, which is how the
    "multisim" oracle measures costs.

    The model has one implementation, the stepper {!Stream.step}; {!run}
    and {!cycles} are folds of it over a whole trace. *)

module Config = Icost_uarch.Config
module Events = Icost_uarch.Events
module Trace = Icost_isa.Trace

(** Per-instruction stage times (cycles, starting at 0). *)
type slot = {
  fetch : int;  (** cycle the instruction left the I-cache *)
  dispatch : int;  (** D: entered the instruction window *)
  ready : int;  (** R: all operands available *)
  exec_start : int;  (** E: issued to a functional unit *)
  complete : int;  (** P: result available *)
  commit : int;  (** C: retired *)
  exec_lat : int;  (** execution latency used (after idealization) *)
  fu_wait : int;  (** [exec_start - ready]: issue/FU contention *)
  imiss_delay : int;  (** I-cache/I-TLB stall charged to this instruction *)
  store_wait : int;  (** extra commit delay from store-bandwidth contention *)
}

type result = {
  cycles : int;  (** commit cycle of the last instruction, plus one *)
  slots : slot array;
  config : Config.t;
}

val load_latency_parts : Config.t -> Events.evt -> int * int
(** (dl1 hit component, miss component) of a load's execution latency. *)

val exec_latency : Config.t -> Trace.dyn -> Events.evt -> int
(** Execution latency after applying the configuration's idealizations. *)

val imiss_delay : Config.t -> Events.evt -> int
(** I-cache + I-TLB stall charged when fetching the instruction. *)

val mispredicts : Config.t -> Events.evt -> bool

val fetch_queue_size : int
(** How far fetch may run ahead of dispatch. *)

val run : Config.t -> Trace.t -> Events.evt array -> result
(** Time the execution, keeping every instruction's slot: the fold of
    {!Stream.step} over the trace.  [evts] must come from
    {!Icost_uarch.Events.annotate} on a configuration with the same
    structural parameters. *)

val cycles : Config.t -> Trace.t -> Events.evt array -> int
(** [(run cfg trace evts).cycles], without building the slot array. *)

val ipc : result -> float

(** The timing model as a stepper over bounded state (a fixed ring of
    recent slots plus footprint-bounded completion and occupancy maps), so
    arbitrarily long traces can be timed one instruction at a time.
    Feeding the instructions of a trace in order yields exactly the slots
    of {!run} on that trace. *)
module Stream : sig
  type t

  val create : Config.t -> t
  (** Fresh simulator state (cycle 0, empty window). *)

  val step : t -> Trace.dyn -> Events.evt -> slot
  (** Time the next committed instruction; must be fed strictly in trace
      order with its matching annotation. *)

  val cycles : t -> int
  (** Commit cycle of the last instruction plus one (0 before any). *)
end
