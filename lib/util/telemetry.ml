(** Process-global tracing/metrics sink.  See telemetry.mli for the
    contract.

    Concurrency design: the (span-only) enabled flag and every counter cell are
    [Atomic.t]s; span nesting is tracked on a per-domain stack (domain-local
    storage, no locking); completed spans are appended to one mutex-guarded
    global ring of [span_capacity] records (spans are coarse — pipeline
    stages, oracle queries, reports — so one lock per completed span is
    noise).  A full ring overwrites its oldest record and counts it in
    [telemetry.spans_dropped], so a long-lived traced daemon stays
    bounded.  Counter and gauge handles are interned in a mutex-guarded
    registry, which instrumented modules consult once at initialization
    time. *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let enable () = Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let clock : (unit -> float) ref = ref Unix.gettimeofday

let set_clock f = clock := f

let now () = !clock ()

(* ---------- counters and gauges ---------- *)

type counter = { cname : string; cell : int Atomic.t }

type gauge = { gname : string; gcell : float Atomic.t }

let registry_mutex = Mutex.create ()

let counter_registry : (string, counter) Hashtbl.t = Hashtbl.create 64

let gauge_registry : (string, gauge) Hashtbl.t = Hashtbl.create 16

let counter name =
  Mutex.lock registry_mutex;
  let c =
    match Hashtbl.find_opt counter_registry name with
    | Some c -> c
    | None ->
      let c = { cname = name; cell = Atomic.make 0 } in
      Hashtbl.add counter_registry name c;
      c
  in
  Mutex.unlock registry_mutex;
  c

let add c n = ignore (Atomic.fetch_and_add c.cell n)

let incr c = add c 1

let value c = Atomic.get c.cell

let since base c =
  Atomic.get c.cell - Option.value ~default:0 (List.assoc_opt c.cname base)

let gauge name =
  Mutex.lock registry_mutex;
  let g =
    match Hashtbl.find_opt gauge_registry name with
    | Some g -> g
    | None ->
      let g = { gname = name; gcell = Atomic.make 0. } in
      Hashtbl.add gauge_registry name g;
      g
  in
  Mutex.unlock registry_mutex;
  g

let set g v = Atomic.set g.gcell v

let gauge_value g = Atomic.get g.gcell

(* ---------- spans ---------- *)

type span = int

type span_record = {
  id : int;
  parent : int;
  tid : int;
  name : string;
  start : float;
  dur : float;
  attrs : (string * string) list;
}

type pending = { p_id : int; p_name : string; p_start : float; p_parent : int }

(* per-domain span stack: nesting without locks *)
let stack_key : pending list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let next_id = Atomic.make 1

let span_capacity = 1 lsl 18

let c_spans_dropped = counter "telemetry.spans_dropped"

let completed_mutex = Mutex.create ()

(* allocated on the first recorded span, so untraced processes pay nothing;
   [completed_n] counts every span recorded, so the newest sits at
   [(completed_n - 1) mod span_capacity] *)
let completed : span_record array ref = ref [||]

let completed_n = ref 0

let start_span name : span =
  if not (Atomic.get enabled_flag) then 0
  else begin
    let st = Domain.DLS.get stack_key in
    let parent = match !st with [] -> 0 | p :: _ -> p.p_id in
    let id = Atomic.fetch_and_add next_id 1 in
    st := { p_id = id; p_name = name; p_start = now (); p_parent = parent } :: !st;
    id
  end

let record ?(attrs = []) (p : pending) stop =
  let r =
    {
      id = p.p_id;
      parent = p.p_parent;
      tid = (Domain.self () :> int);
      name = p.p_name;
      start = p.p_start;
      dur = Float.max 0. (stop -. p.p_start);
      attrs;
    }
  in
  Mutex.lock completed_mutex;
  if Array.length !completed = 0 then completed := Array.make span_capacity r;
  !completed.(!completed_n land (span_capacity - 1)) <- r;
  completed_n := !completed_n + 1;
  let dropped = !completed_n > span_capacity in
  Mutex.unlock completed_mutex;
  if dropped then incr c_spans_dropped

let end_span ?attrs (sp : span) =
  if sp <> 0 then begin
    let st = Domain.DLS.get stack_key in
    (* pop to the matching token; unbalanced inner spans (an exception path
       that skipped end_span) are dropped rather than mis-nested *)
    let rec pop = function
      | [] -> ()
      | p :: rest when p.p_id = sp ->
        st := rest;
        record ?attrs p (now ())
      | _ :: rest -> pop rest
    in
    pop !st
  end

let with_span ?attrs name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let sp = start_span name in
    Fun.protect ~finally:(fun () -> end_span ?attrs sp) f
  end

(* ---------- export ---------- *)

let spans () =
  Mutex.lock completed_mutex;
  let kept = min !completed_n span_capacity in
  let l = Array.to_list (Array.sub !completed 0 kept) in
  Mutex.unlock completed_mutex;
  List.stable_sort (fun a b -> compare a.start b.start) l

let counters () =
  Mutex.lock registry_mutex;
  let l = Hashtbl.fold (fun _ c acc -> (c.cname, Atomic.get c.cell) :: acc) counter_registry [] in
  Mutex.unlock registry_mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) l

let gauges () =
  Mutex.lock registry_mutex;
  let l = Hashtbl.fold (fun _ g acc -> (g.gname, Atomic.get g.gcell) :: acc) gauge_registry [] in
  Mutex.unlock registry_mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) l

let reset () =
  Mutex.lock completed_mutex;
  completed := [||];
  completed_n := 0;
  Mutex.unlock completed_mutex;
  Mutex.lock registry_mutex;
  Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counter_registry;
  Hashtbl.iter (fun _ g -> Atomic.set g.gcell 0.) gauge_registry;
  Mutex.unlock registry_mutex
