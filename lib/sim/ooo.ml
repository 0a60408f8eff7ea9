(** Out-of-order processor timing model.

    Consumes a committed dynamic trace plus its event annotations
    ({!Icost_uarch.Events}) and produces per-instruction stage timings
    (fetch, dispatch, ready, execute, complete, commit) and the total cycle
    count.  The model implements the machine of Table 6:

    - in-order fetch with finite bandwidth, termination at the configured
      number of taken branches per cycle, I-cache miss stalls, and a finite
      fetch queue providing back-pressure from dispatch;
    - in-order dispatch into a finite instruction window (re-order buffer);
    - out-of-order issue limited by issue width and functional-unit pools
      (non-pipelined dividers), with a configurable issue-wakeup latency;
    - data-cache hierarchy latencies with MSHR-style line sharing: a load
      that hits a line whose miss is still outstanding completes only when
      the original miss returns (a "partial miss");
    - branch mispredictions modeled as a fetch redirect: the front end
      restarts so that the next instruction dispatches no earlier than the
      branch's completion plus the branch-recovery latency;
    - in-order commit with finite bandwidth.

    Wrong-path instructions are not simulated (their effect is the redirect
    bubble), matching the dependence-graph model's PD edge.

    There is one implementation of the model: {!Stream.step}, which times
    one committed instruction over bounded state.  {!run} is the fold of
    that stepper over a whole trace that keeps every slot; {!cycles} is the
    same fold keeping only the final cycle count; the streaming analyzer
    drives the stepper directly.

    Every idealization of the paper's Table 1 is honored through
    {!Icost_uarch.Config.ideal}: the *same* trace and the *same* event
    annotations are re-timed with selected latencies zeroed or resources
    made infinite, which is how the "multisim" cost oracle measures
    [cost(S) = t_base - t(S idealized)]. *)

module Isa = Icost_isa.Isa
module Trace = Icost_isa.Trace
module Config = Icost_uarch.Config
module Events = Icost_uarch.Events
module Telemetry = Icost_util.Telemetry

(** Per-instruction stage times (cycles, starting at 0). *)
type slot = {
  fetch : int;  (** cycle the instruction left the I-cache *)
  dispatch : int;  (** D: entered the instruction window *)
  ready : int;  (** R: all operands available *)
  exec_start : int;  (** E: issued to a functional unit *)
  complete : int;  (** P: result available *)
  commit : int;  (** C: retired *)
  exec_lat : int;  (** execution latency actually used (after idealization) *)
  fu_wait : int;  (** [exec_start - ready]: issue/FU contention *)
  imiss_delay : int;  (** I-cache/I-TLB stall charged to this instruction *)
  store_wait : int;  (** extra commit delay from store-bandwidth contention *)
}

type result = {
  cycles : int;  (** total execution time: commit cycle of the last instruction + 1 *)
  slots : slot array;
  config : Config.t;
}

(* Issue-slot accounting: number of instructions issued in a given cycle. *)
module Issue_table = struct
  type t = { counts : (int, int) Hashtbl.t; width : int }

  let create width = { counts = Hashtbl.create 4096; width }

  let rec first_free t cycle =
    if t.width >= Config.huge_bw then cycle
    else
      match Hashtbl.find_opt t.counts cycle with
      | Some c when c >= t.width -> first_free t (cycle + 1)
      | _ -> cycle

  let reserve t cycle =
    if t.width < Config.huge_bw then
      Hashtbl.replace t.counts cycle
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts cycle))
end

(* Functional-unit pool: per-cycle occupancy accounting.  A pool of K
   pipelined units admits K issues per cycle (initiation interval 1);
   non-pipelined dividers occupy a unit for their whole latency, so a
   divide marks every cycle of its execution as occupied. *)
module Fu_pool = struct
  type t = { used : (int, int) Hashtbl.t; size : int }

  let create size = { used = Hashtbl.create 4096; size }

  let count t cycle = Option.value ~default:0 (Hashtbl.find_opt t.used cycle)

  (* earliest start >= [cycle] where a unit is free for [busy] consecutive
     cycles *)
  let earliest t ~busy cycle =
    let fits c =
      let rec go k = k >= busy || (count t (c + k) < t.size && go (k + 1)) in
      go 0
    in
    let rec search c = if fits c then c else search (c + 1) in
    search cycle

  let reserve t ~from ~busy =
    for c = from to from + busy - 1 do
      Hashtbl.replace t.used c (count t c + 1)
    done
end

(** Decompose a load's execution latency into (dl1 hit component, miss
    component).  The miss component covers L2/memory and D-TLB handling. *)
let load_latency_parts (cfg : Config.t) (e : Events.evt) =
  let hit = cfg.dl1_lat in
  let miss =
    (if e.dl1_miss then cfg.l2_lat + if e.dl2_miss then cfg.mem_lat else 0 else 0)
    + if e.dtlb_miss then cfg.tlb_miss_lat else 0
  in
  (hit, miss)

(** Execution latency after applying idealizations. *)
let exec_latency (cfg : Config.t) (d : Trace.dyn) (e : Events.evt) =
  let ideal = cfg.ideal in
  let c = Isa.class_of d.instr in
  match c with
  | Isa.Mem_load ->
    let hit, miss = load_latency_parts cfg e in
    let hit = if ideal.zero_dl1 then 0 else hit in
    let miss = if ideal.perfect_dcache then 0 else miss in
    hit + miss
  | Isa.Mem_store -> if ideal.zero_short_alu then 0 else Config.exec_latency cfg c
  | Isa.Short_alu | Isa.Ctrl | Isa.Nop_class ->
    if ideal.zero_short_alu then 0 else Config.exec_latency cfg c
  | Isa.Int_mul | Isa.Int_div | Isa.Fp_add | Isa.Fp_mul | Isa.Fp_div ->
    if ideal.zero_long_alu then 0 else Config.exec_latency cfg c

(** I-cache + I-TLB stall charged when fetching [d]. *)
let imiss_delay (cfg : Config.t) (e : Events.evt) =
  if cfg.ideal.perfect_icache then 0
  else
    (if e.il1_miss then cfg.l2_lat + if e.il2_miss then cfg.mem_lat else 0 else 0)
    + if e.itlb_miss then cfg.tlb_miss_lat else 0

let mispredicts (cfg : Config.t) (e : Events.evt) =
  e.mispredict && not cfg.ideal.perfect_bpred

(* Size of the fetch queue decoupling fetch from dispatch: fetch may run at
   most this many instructions ahead of dispatch. *)
let fetch_queue_size = 32

(** The timing model as a stepper: [step] times the next committed
    instruction, in trace order.  Every stage time of instruction [i]
    depends only on the last [max (window, fetch queue, fetch/commit
    bandwidth)] slots, the last completion per architectural register /
    store address / missing cache line, the cycle-keyed issue, FU and
    store-port occupancy, and a handful of scalar fetch-stage variables.
    So the whole simulator state fits in a fixed-size ring plus maps that
    are pruned to the live footprint, and arbitrarily long traces can be
    timed without materializing their slots. *)
module Stream = struct
  type t = {
    cfg : Config.t;
    window : int;
    fetch_bw : int;
    commit_bw : int;
    issue : Issue_table.t;
    int_alu : Fu_pool.t;
    int_mul : Fu_pool.t;
    fp_alu : Fu_pool.t;
    fp_mul : Fu_pool.t;
    mem_port : Fu_pool.t;
    store_commits : (int, int) Hashtbl.t;
        (** stores retired per cycle (L1 write-port contention; Fig. 5b's
            dynamic CC latency); lifted by the bw idealization *)
    ring : slot array;  (** last [ring_cap] slots, indexed by [seq mod ring_cap] *)
    ring_cap : int;
    reg_complete : int array;
        (** completion cycle of the last writer of each register: the trace
            invariant that a reg dep always names the most recent writer
            makes this equivalent to [slots.(p).complete] *)
    store_complete : (int, int) Hashtbl.t;  (** byte address -> last store completion *)
    line_complete : (int, int) Hashtbl.t;
        (** data line -> completion of the last load that missed on it
            (mirrors the annotator's [last_line_miss] keying) *)
    mutable count : int;
    mutable fetch_cycle : int;
    mutable fetched_this_cycle : int;
    mutable taken_this_cycle : int;
    mutable redirect_complete : int;
        (** completion cycle of a pending mispredicted branch (always the
            immediately preceding instruction), or -1 *)
    mutable next_prune : int;
  }

  let zero_slot =
    { fetch = 0; dispatch = 0; ready = 0; exec_start = 0; complete = 0;
      commit = 0; exec_lat = 0; fu_wait = 0; imiss_delay = 0; store_wait = 0 }

  (* The cycle-keyed contention tables grow with simulated time; entries
     below the (monotone) dispatch/commit frontiers can never be probed or
     reserved again, so they are dropped periodically. *)
  let prune_period = 4096

  let create (cfg : Config.t) : t =
    let window = Config.effective_window cfg in
    let fetch_bw = Config.effective_fetch_bw cfg in
    let commit_bw = Config.effective_commit_bw cfg in
    let ring_cap =
      max window
        (max fetch_queue_size
           (max
              (if fetch_bw < Config.huge_bw then fetch_bw else 1)
              (if commit_bw < Config.huge_bw then commit_bw else 1)))
    in
    {
      cfg;
      window;
      fetch_bw;
      commit_bw;
      issue = Issue_table.create (Config.effective_issue_width cfg);
      int_alu = Fu_pool.create cfg.num_int_alu;
      int_mul = Fu_pool.create cfg.num_int_mul;
      fp_alu = Fu_pool.create cfg.num_fp_alu;
      fp_mul = Fu_pool.create cfg.num_fp_mul;
      mem_port = Fu_pool.create cfg.num_mem_ports;
      store_commits = Hashtbl.create 1024;
      ring = Array.make ring_cap zero_slot;
      ring_cap;
      reg_complete = Array.make Isa.num_regs 0;
      store_complete = Hashtbl.create 1024;
      line_complete = Hashtbl.create 1024;
      count = 0;
      fetch_cycle = 0;
      fetched_this_cycle = 0;
      taken_this_cycle = 0;
      redirect_complete = -1;
      next_prune = prune_period;
    }

  (* slot of instruction [count - k]; valid for 1 <= k <= min count ring_cap *)
  let back t k = t.ring.((t.count - k) mod t.ring_cap)

  let prune t ~dispatch ~commit =
    let drop tbl pred =
      let dead = Hashtbl.fold (fun k _ acc -> if pred k then k :: acc else acc) tbl [] in
      List.iter (Hashtbl.remove tbl) dead
    in
    (* issue slots and FU cycles are only ever probed from ready >=
       dispatch + 1 of a later instruction, and dispatch is monotone *)
    drop t.issue.Issue_table.counts (fun c -> c <= dispatch);
    List.iter
      (fun (p : Fu_pool.t) -> drop p.Fu_pool.used (fun c -> c <= dispatch))
      [ t.int_alu; t.int_mul; t.fp_alu; t.fp_mul; t.mem_port ];
    (* store-commit cycles are probed from the (monotone) commit frontier *)
    drop t.store_commits (fun c -> c < commit);
    (* completed-producer tables are probed into [ready] (respectively
       [complete]), both >= dispatch + 1 of a later instruction: entries
       at or below the dispatch frontier can never win a max again, so
       the tables track the live data footprint, not the cumulative one *)
    let drop_v tbl pred =
      let dead =
        Hashtbl.fold (fun k v acc -> if pred v then k :: acc else acc) tbl []
      in
      List.iter (Hashtbl.remove tbl) dead
    in
    let wake = t.cfg.wakeup_latency - 1 in
    drop_v t.store_complete (fun c -> c + wake <= dispatch);
    drop_v t.line_complete (fun c -> c <= dispatch)

  let step (t : t) (d : Trace.dyn) (e : Events.evt) : slot =
    let cfg = t.cfg in
    let i = t.count in
    let pool_of c =
      match Config.fu_pool_of_class c with
      | Config.Int_alu_pool -> t.int_alu
      | Config.Int_mul_pool -> t.int_mul
      | Config.Fp_alu_pool -> t.fp_alu
      | Config.Fp_mul_pool -> t.fp_mul
      | Config.Mem_port_pool -> t.mem_port
    in
    (* ---- fetch ---- *)
    let stall_floor = ref 0 in
    (* redirect after a mispredicted branch: the next correct-path
       instruction dispatches >= complete(branch) + branch_recovery, so its
       fetch resumes frontend_depth earlier than that *)
    if t.redirect_complete >= 0 then begin
      stall_floor :=
        max !stall_floor (t.redirect_complete + cfg.branch_recovery - cfg.frontend_depth);
      t.redirect_complete <- -1
    end;
    (* fetch-queue back-pressure *)
    if i >= fetch_queue_size then
      stall_floor := max !stall_floor ((back t fetch_queue_size).dispatch - cfg.frontend_depth);
    if !stall_floor > t.fetch_cycle then begin
      t.fetch_cycle <- !stall_floor;
      t.fetched_this_cycle <- 0;
      t.taken_this_cycle <- 0
    end;
    (* bandwidth and taken-branch limits close the current fetch cycle
       (both are part of the paper's "bw" idealization) *)
    if t.fetched_this_cycle >= t.fetch_bw
       || (t.fetch_bw < Config.huge_bw && t.taken_this_cycle >= cfg.fetch_taken_limit)
    then begin
      t.fetch_cycle <- t.fetch_cycle + 1;
      t.fetched_this_cycle <- 0;
      t.taken_this_cycle <- 0
    end;
    let imiss = imiss_delay cfg e in
    if imiss > 0 then begin
      (* the line must arrive before the instruction can be delivered *)
      t.fetch_cycle <- t.fetch_cycle + imiss;
      t.fetched_this_cycle <- 0;
      t.taken_this_cycle <- 0
    end;
    let fetch = t.fetch_cycle in
    t.fetched_this_cycle <- t.fetched_this_cycle + 1;
    if Isa.is_branch d.instr && d.taken then t.taken_this_cycle <- t.taken_this_cycle + 1;
    (* ---- dispatch ---- *)
    let dispatch = ref (fetch + cfg.frontend_depth) in
    if i > 0 then dispatch := max !dispatch (back t 1).dispatch;
    if t.fetch_bw < Config.huge_bw && i >= t.fetch_bw then
      dispatch := max !dispatch ((back t t.fetch_bw).dispatch + 1);
    if i >= t.window then dispatch := max !dispatch (back t t.window).commit;
    let dispatch = !dispatch in
    (* ---- ready: operands ---- *)
    let ready = ref (dispatch + 1) in
    List.iter
      (fun (r, p) ->
        if p >= 0 then ready := max !ready (t.reg_complete.(r) + (cfg.wakeup_latency - 1)))
      d.reg_deps;
    (match d.mem_dep with
     | Some p when p >= 0 ->
       let c =
         match d.mem_addr with
         | Some a -> Option.value ~default:0 (Hashtbl.find_opt t.store_complete a)
         | None -> 0
       in
       ready := max !ready (c + (cfg.wakeup_latency - 1))
     | _ -> ());
    let ready = !ready in
    (* ---- issue: issue slot + functional unit ---- *)
    let cls = Isa.class_of d.instr in
    let pool = pool_of cls in
    let exec_lat = exec_latency cfg d e in
    let busy =
      match cls with
      | Isa.Int_div | Isa.Fp_div -> max 1 exec_lat (* non-pipelined *)
      | _ -> 1
    in
    (* find a cycle with both a free unit and a free issue slot *)
    let rec find c =
      let c' = Fu_pool.earliest pool ~busy c in
      let c'' = Issue_table.first_free t.issue c' in
      if c'' = c' then c' else find c''
    in
    let exec_start = find ready in
    Issue_table.reserve t.issue exec_start;
    Fu_pool.reserve pool ~from:exec_start ~busy;
    (* ---- complete, with cache-line sharing (partial misses) ---- *)
    let complete = ref (exec_start + exec_lat) in
    (match e.share_src with
     | Some _ when not cfg.ideal.perfect_dcache -> (
       match Hashtbl.find_opt t.line_complete e.line with
       | Some c -> complete := max !complete c
       | None -> ())
     | _ -> ());
    let complete = !complete in
    (* ---- commit ---- *)
    let commit = ref (complete + 1) in
    if i > 0 then commit := max !commit (back t 1).commit;
    if t.commit_bw < Config.huge_bw && i >= t.commit_bw then
      commit := max !commit ((back t t.commit_bw).commit + 1);
    let store_wait = ref 0 in
    if Isa.is_store d.instr && t.commit_bw < Config.huge_bw then begin
      let stores_at c = Option.value ~default:0 (Hashtbl.find_opt t.store_commits c) in
      let rec free c = if stores_at c < cfg.store_commit_bw then c else free (c + 1) in
      let c = free !commit in
      store_wait := c - !commit;
      commit := c;
      Hashtbl.replace t.store_commits c (stores_at c + 1)
    end;
    let commit = !commit in
    let slot =
      { fetch; dispatch; ready; exec_start; complete; commit; exec_lat;
        fu_wait = exec_start - ready; imiss_delay = imiss; store_wait = !store_wait }
    in
    t.ring.(i mod t.ring_cap) <- slot;
    (match Isa.dest d.instr with
     | Some rd -> t.reg_complete.(rd) <- complete
     | None -> ());
    if Isa.is_store d.instr then (
      match d.mem_addr with
      | Some a -> Hashtbl.replace t.store_complete a complete
      | None -> ());
    if Isa.is_load d.instr && e.dl1_miss then Hashtbl.replace t.line_complete e.line complete;
    if mispredicts cfg e then t.redirect_complete <- complete;
    t.count <- i + 1;
    if t.count >= t.next_prune then begin
      prune t ~dispatch ~commit;
      t.next_prune <- t.count + prune_period
    end;
    slot

  let cycles t = if t.count = 0 then 0 else (back t 1).commit + 1
end

let c_runs = Telemetry.counter "sim.runs"
let c_instrs = Telemetry.counter "sim.instructions"

(* Time every instruction of [trace] through a fresh stepper, handing each
   slot to [emit]; returns the stepper for its final cycle count.  Each
   run bumps the run and instructions-simulated counters and is one
   telemetry span ([sim.run]), a single-branch no-op when the sink is
   disabled. *)
let fold_steps cfg (trace : Trace.t) (evts : Events.evt array) emit =
  let n = Trace.length trace in
  let sp = Telemetry.start_span "sim.run" in
  let sim = Stream.create cfg in
  for i = 0 to n - 1 do
    emit i (Stream.step sim (Trace.get trace i) evts.(i))
  done;
  Telemetry.incr c_runs;
  Telemetry.add c_instrs n;
  if Telemetry.enabled () then
    Telemetry.end_span sp
      ~attrs:
        [
          ("instrs", string_of_int n);
          ("cycles", string_of_int (Stream.cycles sim));
        ]
  else Telemetry.end_span sp;
  sim

(** [run cfg trace evts] times the execution of [trace] on the machine
    [cfg], keeping every instruction's slot.  [evts] must come from
    {!Icost_uarch.Events.annotate} on a configuration with the same
    structural parameters. *)
let run (cfg : Config.t) (trace : Trace.t) (evts : Events.evt array) : result =
  let slots = Array.make (Trace.length trace) Stream.zero_slot in
  let sim = fold_steps cfg trace evts (fun i s -> slots.(i) <- s) in
  { cycles = Stream.cycles sim; slots; config = cfg }

(** Total cycles only: the fold of {!run} without the slot array, which
    is all a multisim query needs. *)
let cycles cfg trace evts = Stream.cycles (fold_steps cfg trace evts (fun _ _ -> ()))

(** Instructions per cycle of a result. *)
let ipc r =
  if r.cycles = 0 then 0. else float_of_int (Array.length r.slots) /. float_of_int r.cycles
