(** Bounded-memory streaming analysis core.

    The pipeline consumes a {!Source.t} in fixed-size segments.  Each
    segment is timed by the bounded-state simulator
    ({!Icost_sim.Ooo.Stream}), compiled into a dependence-graph fragment
    with {!Icost_depgraph.Build.emit} (the exact monolithic edge-emission
    logic), and priced for {e all} [2^Category.count] idealization subsets
    with {!Icost_depgraph.Graph.eval_lanes_pinned}.

    {b Why segmented evaluation is exact.}  Every edge of the dependence
    graph points forward ([src < dst]), so node arrival times are final
    after one pass and the max-plus recurrence can be check-pointed at any
    instruction boundary.  A segment fragment pins the previous
    [B = max (window, fetch_bw, commit_bw)] instructions' node times as
    boundary nodes — every structural edge (DD/PD/FBW/CD/CC/CBW, lookback
    [<= B]) then lands on a real node — while the unbounded-lookback data
    edges (PR register/store producers, PP line sharing) become per-lane
    floors carried in footprint-bounded maps (last writer per register,
    last store per address, last missing load per line).  Taken-branch FBW
    edges whose source predates the prefix are dropped: the source's
    dispatch is dominated by the in-prefix [D(i - fetch_bw)] source of the
    regular FBW edge (same base, same removal category, D monotone per
    lane), so the drop is exact.  The aggregate over any trace is
    therefore {e bit-identical} to the monolithic evaluation — the
    [stream-matches-monolithic] law pins this with [Exact] tolerance.

    Peak memory is O(segment + window): the per-segment slab (the largest
    allocation, ~[5 * (B + segment) * 32] ints per pool job) is recycled
    through a free list, and all carries are bounded by the data footprint
    of the workload, not the trace length. *)

module Trace = Icost_isa.Trace
module Isa = Icost_isa.Isa
module Config = Icost_uarch.Config
module Ooo = Icost_sim.Ooo
module Graph = Icost_depgraph.Graph
module Build = Icost_depgraph.Build
module Category = Icost_core.Category
module Cost = Icost_core.Cost
module Pool = Icost_util.Pool
module Telemetry = Icost_util.Telemetry
module Fault = Icost_util.Fault

exception Segment_fault of int
(** Raised when the [stream_segment] fault point fires while opening a
    segment; carries the segment id.  The analysis aborts without
    publishing any partial aggregate. *)

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

let fault_segment = Fault.point "stream_segment"
let c_segments = Telemetry.counter "stream.segments"
let c_instrs = Telemetry.counter "stream.instructions"

(* Process-wide heap high-water mark for the service's status body.  A
   maximum, so it cannot be a last-write-wins telemetry gauge. *)
let g_peak_words = Atomic.make 0

let rec bump_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then bump_max a v

let peak_mb_hwm () =
  float_of_int (Atomic.get g_peak_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

let lanes = 32

(* Per-job evaluation scratch, recycled across segments so peak memory is
   [jobs * slab], not [segments * slab]. *)
type scratch = {
  slab : int array;
  latbuf : int array;
  lset : int array;
  ktab : int array array;
}

let default_segment_insns = 8192

let analyze ?(segment_insns = default_segment_insns) (cfg : Config.t)
    (src : Source.t) : result =
  let segment_insns = max 1 segment_insns in
  let p = Build.params_of_config cfg in
  let nsets = 1 lsl Category.count in
  let sets = Array.init nsets (fun s -> s) in
  let bmax = max p.Build.window (max p.Build.fetch_bw p.Build.commit_bw) in
  let wake = p.Build.wakeup_latency - 1 in
  let sim = Ooo.Stream.create cfg in
  (* boundary carries: node-time rows are [nsets] lanes of absolute
     arrival times *)
  let pin = ref (Array.make (5 * bmax * nsets) 0) in
  let pin_next = ref (Array.make (5 * bmax * nsets) 0) in
  let pin_count = ref 0 in
  let reg_rows : int array option array = Array.make Isa.num_regs None in
  let store_rows : (int, int array) Hashtbl.t = Hashtbl.create 256 in
  let line_rows : (int, int array) Hashtbl.t = Hashtbl.create 256 in
  let taken_hist : int Queue.t = Queue.create () in
  let prev_mispredict = ref false in
  let count = ref 0 in
  let seg_id = ref 0 in
  let seg_stats = ref [] in
  let peak_heap = ref 0 in
  let n_nodes_max = 5 * (bmax + segment_insns) in
  let scratch_mutex = Mutex.create () in
  let scratch_free : scratch list ref = ref [] in
  let alloc_scratch () =
    let keep_all = Array.make lanes (-1) in
    let ktab = Array.make 256 keep_all in
    for ci = 0 to Category.count - 1 do
      ktab.(1 lsl ci) <- Array.make lanes 0
    done;
    {
      slab = Array.make (n_nodes_max * lanes) 0;
      latbuf = Array.make lanes 0;
      lset = Array.make lanes 0;
      ktab;
    }
  in
  let take_scratch () =
    Mutex.lock scratch_mutex;
    match !scratch_free with
    | s :: tl ->
      scratch_free := tl;
      Mutex.unlock scratch_mutex;
      s
    | [] ->
      Mutex.unlock scratch_mutex;
      alloc_scratch ()
  in
  let give_scratch s =
    Mutex.lock scratch_mutex;
    scratch_free := s :: !scratch_free;
    Mutex.unlock scratch_mutex
  in
  let read_segment () =
    let rec go acc k =
      if k = segment_insns then List.rev acc
      else match src () with None -> List.rev acc | Some it -> go (it :: acc) (k + 1)
    in
    Array.of_list (go [] 0)
  in
  let rec loop () =
    let items = read_segment () in
    let len = Array.length items in
    if len > 0 then begin
      if Fault.fire fault_segment then raise (Segment_fault !seg_id);
      let sp = Telemetry.start_span "stream.segment" in
      let slots = Array.map (fun (d, e) -> Ooo.Stream.step sim d e) items in
      (* ---- fragment build ---- *)
      let bp = !pin_count in
      let base_g = !count - bp in
      let b = Graph.Builder.create () in
      for _ = 1 to bp do
        Graph.Builder.note_instr b
      done;
      (* per-node external floors (producers older than the pinned prefix) *)
      let ext : (int, int array) Hashtbl.t = Hashtbl.create 16 in
      let add_floor node row =
        match Hashtbl.find_opt ext node with
        | Some r0 ->
          for s = 0 to nsets - 1 do
            if row.(s) > r0.(s) then r0.(s) <- row.(s)
          done
        | None -> Hashtbl.add ext node row
      in
      (* last producer of each kind inside this segment (local index) *)
      let lw = Array.make Isa.num_regs (-1) in
      let lstore : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let lline : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let pm = ref !prev_mispredict in
      for k = 0 to len - 1 do
        let d, e = items.(k) in
        let li = bp + k in
        let gi = !count + k in
        let info = Build.info_of_sim cfg d e slots.(k) in
        (* remap producers to fragment-local indices; producers older than
           the pinned prefix become per-lane floors *)
        let old_row = ref None in
        let note_old pr =
          match pr with
          | None -> ()
          | Some r ->
            let row =
              match !old_row with
              | Some row -> row
              | None ->
                let row = Array.make nsets 0 in
                old_row := Some row;
                row
            in
            for s = 0 to nsets - 1 do
              if r.(s) > row.(s) then row.(s) <- r.(s)
            done
        in
        let reg_producers =
          List.filter_map
            (fun (r, g) ->
              if g >= base_g then Some (g - base_g)
              else begin
                note_old reg_rows.(r);
                None
              end)
            d.Trace.reg_deps
        in
        let mem_producer =
          match d.Trace.mem_dep with
          | Some g when g >= base_g -> Some (g - base_g)
          | Some _ ->
            (match d.Trace.mem_addr with
             | Some a -> note_old (Hashtbl.find_opt store_rows a)
             | None -> ());
            None
          | None -> None
        in
        (match !old_row with
         | Some row ->
           if wake <> 0 then
             for s = 0 to nsets - 1 do
               row.(s) <- row.(s) + wake
             done;
           add_floor (Graph.node ~seq:li ~kind:Graph.R) row
         | None -> ());
        let share_src =
          match e.Icost_uarch.Events.share_src with
          | Some g when g >= base_g -> Some (g - base_g)
          | Some _ ->
            (match Hashtbl.find_opt line_rows e.Icost_uarch.Events.line with
             | Some lr ->
               (* the PP edge is removed in Dmiss-idealized lanes *)
               let row = Array.make nsets 0 in
               for s = 0 to nsets - 1 do
                 if not (Category.Set.mem Category.Dmiss s) then row.(s) <- lr.(s)
               done;
               add_floor (Graph.node ~seq:li ~kind:Graph.P) row
             | None -> ());
            None
          | None -> None
        in
        let info = { info with Build.reg_producers; mem_producer; share_src } in
        let taken_limit_src =
          if info.Build.taken_branch
             && Queue.length taken_hist >= p.Build.fetch_taken_limit
          then begin
            let jl = Queue.peek taken_hist - base_g in
            (* an out-of-prefix source is dominated by the regular FBW edge
               from D(i - fetch_bw): exact drop *)
            if jl >= 0 then Some jl else None
          end
          else None
        in
        Build.emit p b ~prev_mispredict:!pm ~taken_limit_src ~seq:li info;
        if info.Build.taken_branch then begin
          Queue.add gi taken_hist;
          if Queue.length taken_hist > p.Build.fetch_taken_limit then
            ignore (Queue.pop taken_hist)
        end;
        pm := e.Icost_uarch.Events.mispredict;
        (match Isa.dest d.Trace.instr with Some rd -> lw.(rd) <- li | None -> ());
        if Isa.is_store d.Trace.instr then (
          match d.Trace.mem_addr with
          | Some a -> Hashtbl.replace lstore a li
          | None -> ());
        if Isa.is_load d.Trace.instr && e.Icost_uarch.Events.dl1_miss then
          Hashtbl.replace lline e.Icost_uarch.Events.line li
      done;
      let g = Graph.Builder.finish b in
      let ext_floors =
        let arr = Array.of_seq (Hashtbl.to_seq ext) in
        Array.sort (fun (a, _) (b, _) -> compare a b) arr;
        arr
      in
      (* ---- carry extraction plan ---- *)
      let total = bp + len in
      let new_pin = min bmax total in
      let first_keep = total - new_pin in
      let extracts = ref [] in
      for v = 0 to (5 * new_pin) - 1 do
        extracts := ((5 * first_keep) + v, !pin_next, v * nsets) :: !extracts
      done;
      let reg_updates = ref [] in
      for r = 0 to Isa.num_regs - 1 do
        if lw.(r) >= 0 then begin
          let row = Array.make nsets 0 in
          reg_updates := (r, row) :: !reg_updates;
          extracts := (Graph.node ~seq:lw.(r) ~kind:Graph.P, row, 0) :: !extracts
        end
      done;
      let store_updates = ref [] in
      Hashtbl.iter
        (fun a li ->
          let row = Array.make nsets 0 in
          store_updates := (a, row) :: !store_updates;
          extracts := (Graph.node ~seq:li ~kind:Graph.P, row, 0) :: !extracts)
        lstore;
      let line_updates = ref [] in
      Hashtbl.iter
        (fun line li ->
          let row = Array.make nsets 0 in
          line_updates := (line, row) :: !line_updates;
          extracts := (Graph.node ~seq:li ~kind:Graph.P, row, 0) :: !extracts)
        lline;
      let extracts = !extracts in
      (* ---- price all subsets, 32 lanes per pass; each chunk writes a
         disjoint lane range of every carry row, so extraction is
         race-free ---- *)
      let n_pinned = 5 * bp in
      let nchunks = nsets / lanes in
      Pool.parallel_chunks nchunks (fun ~lo ~hi ->
          let sc = take_scratch () in
          Fun.protect
            ~finally:(fun () -> give_scratch sc)
            (fun () ->
              for ch = lo to hi - 1 do
                let slo = ch * lanes in
                Graph.eval_lanes_pinned g sets ~lo:slo ~nl:lanes ~n_pinned
                  ~pinned:!pin ~pin_stride:nsets ~ext_floors ~latbuf:sc.latbuf
                  ~lset:sc.lset ~ktab:sc.ktab ~slab:sc.slab;
                List.iter
                  (fun (node, dst, off) ->
                    let soff = node * lanes in
                    for l = 0 to lanes - 1 do
                      dst.(off + slo + l) <- sc.slab.(soff + l)
                    done)
                  extracts
              done))
      ;
      (* ---- commit carries ---- *)
      let t = !pin in
      pin := !pin_next;
      pin_next := t;
      pin_count := new_pin;
      List.iter (fun (r, row) -> reg_rows.(r) <- Some row) !reg_updates;
      List.iter (fun (a, row) -> Hashtbl.replace store_rows a row) !store_updates;
      List.iter (fun (line, row) -> Hashtbl.replace line_rows line row) !line_updates;
      prev_mispredict := !pm;
      count := !count + len;
      (* ---- prune dead carries: D is monotone per lane (base-0 DD chain,
         never removed) and every floor attaches at an R or P node, both
         >= D + 1 in every lane; a carried row wholly below the newest
         dispatch row can therefore never raise any future max, so
         dropping it is exact.  This bounds the carry maps by the LIVE
         data footprint (addresses touched within roughly a window), not
         the cumulative one. ---- *)
      let lastd = (Graph.node ~seq:(new_pin - 1) ~kind:Graph.D * nsets) in
      let frontier = !pin in
      let dead_all addend row =
        let rec go s =
          s >= nsets || (row.(s) + addend <= frontier.(lastd + s) && go (s + 1))
        in
        go 0
      in
      (* line rows are only consulted in non-Dmiss lanes (the PP edge is
         removed under Dmiss idealization) *)
      let dead_nondmiss row =
        let rec go s =
          s >= nsets
          || ((Category.Set.mem Category.Dmiss s
               || row.(s) <= frontier.(lastd + s))
              && go (s + 1))
        in
        go 0
      in
      for r = 0 to Isa.num_regs - 1 do
        match reg_rows.(r) with
        | Some row when dead_all wake row -> reg_rows.(r) <- None
        | _ -> ()
      done;
      let drop tbl dead =
        let dead_keys =
          Hashtbl.fold (fun k row acc -> if dead row then k :: acc else acc) tbl []
        in
        List.iter (Hashtbl.remove tbl) dead_keys
      in
      drop store_rows (dead_all wake);
      drop line_rows dead_nondmiss;
      let cum_cycles = Ooo.Stream.cycles sim in
      let heap_words = (Gc.quick_stat ()).Gc.heap_words in
      if heap_words > !peak_heap then peak_heap := heap_words;
      bump_max g_peak_words heap_words;
      seg_stats :=
        {
          seg_id = !seg_id;
          seg_start = !count - len;
          seg_len = len;
          cum_cycles;
          heap_words;
        }
        :: !seg_stats;
      Telemetry.incr c_segments;
      Telemetry.add c_instrs len;
      Telemetry.end_span sp
        ~attrs:
          [
            ("seg", string_of_int !seg_id);
            ("instrs", string_of_int len);
            ("cum_cycles", string_of_int cum_cycles);
          ];
      incr seg_id;
      if len = segment_insns then loop ()
    end
  in
  loop ();
  let times = Array.make nsets 0 in
  if !count > 0 then begin
    let last_c = Graph.node ~seq:(!pin_count - 1) ~kind:Graph.C in
    let base = last_c * nsets in
    for s = 0 to nsets - 1 do
      times.(s) <- !pin.(base + s) + 1
    done
  end;
  {
    times;
    instrs = !count;
    segments = !seg_id;
    segment_insns;
    cycles = times.(Category.Set.empty);
    sim_cycles = Ooo.Stream.cycles sim;
    peak_heap_words = !peak_heap;
    seg_stats = List.rev !seg_stats;
  }

(** Table-backed cost oracle: the streamed aggregate answers every subset
    query from its precomputed absolute-time table, so all downstream
    breakdown/icost machinery runs unchanged over arbitrarily long
    traces. *)
let oracle (r : result) : Cost.oracle =
  Cost.with_batch
    ~batch:(fun ss -> Array.map (fun s -> float_of_int r.times.(s)) ss)
    (fun s -> float_of_int r.times.(s))

let peak_mb (r : result) : float =
  float_of_int (r.peak_heap_words * (Sys.word_size / 8)) /. (1024. *. 1024.)
