(* Single-flight LRU cache.  See cache.mli for the contract.

   One mutex guards the table and the LRU stamps; builders
   run outside it with the entry parked in the [Pending] state so other
   threads on the same key block on the condition variable instead of
   duplicating work.  [cap] is small (a handful of analysis sessions), so
   eviction is a linear scan for the oldest ready stamp rather than a
   linked list. *)

module Telemetry = Icost_util.Telemetry
module Fault = Icost_util.Fault

type 'v state = Pending | Ready of 'v | Failed of exn

type 'v entry = { mutable state : 'v state; mutable stamp : int }

type 'v t = {
  mutex : Mutex.t;
  changed : Condition.t;  (* signalled when any Pending entry resolves *)
  tbl : (string, 'v entry) Hashtbl.t;
  cap : int;
  fp_build : Fault.point;  (* "cache_build.<name>": builder raises *)
  mutable tick : int;
  c_hits : Telemetry.counter;
  c_misses : Telemetry.counter;
  c_evictions : Telemetry.counter;
}

type stats = { hits : int; misses : int; evictions : int }

let create ~name ~cap =
  {
    mutex = Mutex.create ();
    changed = Condition.create ();
    tbl = Hashtbl.create 16;
    cap = max 1 cap;
    fp_build = Fault.point ("cache_build." ^ name);
    tick = 0;
    c_hits = Telemetry.counter (Printf.sprintf "service.cache.%s.hits" name);
    c_misses = Telemetry.counter (Printf.sprintf "service.cache.%s.misses" name);
    c_evictions =
      Telemetry.counter (Printf.sprintf "service.cache.%s.evictions" name);
  }

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

(* Caller holds the lock. *)
let ready_count t =
  Hashtbl.fold (fun _ e n -> match e.state with Ready _ -> n + 1 | _ -> n) t.tbl 0

(* Evict ready entries (never pending ones), oldest stamp first, until at
   most [limit] remain.  Caller holds the lock; returns the count shed. *)
let evict_down_to t limit =
  let shed = ref 0 in
  while ready_count t > limit do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match (e.state, acc) with
          | Ready _, None -> Some (k, e.stamp)
          | Ready _, Some (_, stamp) when e.stamp < stamp -> Some (k, e.stamp)
          | _ -> acc)
        t.tbl None
    in
    match victim with
    | None -> ()
    | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      incr shed;
      Telemetry.incr t.c_evictions
  done;
  !shed

let enforce_cap t = ignore (evict_down_to t t.cap)

let rec find_or_add (t : 'v t) (key : string) (build : unit -> 'v) : 'v =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.tbl key with
  | Some ({ state = Ready v; _ } as e) ->
    touch t e;
    Mutex.unlock t.mutex;
    Telemetry.incr t.c_hits;
    v
  | Some { state = Pending; _ } ->
    (* someone is building it: wait for the resolution, then re-examine *)
    Condition.wait t.changed t.mutex;
    Mutex.unlock t.mutex;
    find_or_add t key build
  | Some { state = Failed _; _ } ->
    (* a previous builder failed; clear the tombstone and retry so a
       transient error does not poison the key forever *)
    Hashtbl.remove t.tbl key;
    Mutex.unlock t.mutex;
    find_or_add t key build
  | None ->
    let entry = { state = Pending; stamp = 0 } in
    touch t entry;
    Hashtbl.replace t.tbl key entry;
    Mutex.unlock t.mutex;
    Telemetry.incr t.c_misses;
    let outcome =
      match
        Fault.trip t.fp_build;
        build ()
      with
      | v -> Ready v
      | exception e -> Failed e
    in
    Mutex.lock t.mutex;
    entry.state <- outcome;
    touch t entry;
    if (match outcome with Ready _ -> true | _ -> false) then enforce_cap t;
    Condition.broadcast t.changed;
    Mutex.unlock t.mutex;
    (match outcome with
     | Ready v -> v
     | Failed e -> raise e
     | Pending -> assert false)

let find_opt t key =
  Mutex.lock t.mutex;
  let found =
    match Hashtbl.find_opt t.tbl key with
    | Some ({ state = Ready v; _ } as e) ->
      touch t e;
      Some v
    | Some { state = Pending | Failed _; _ } | None -> None
  in
  Mutex.unlock t.mutex;
  Telemetry.incr (if Option.is_some found then t.c_hits else t.c_misses);
  found

let add t key v =
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.tbl key with
   | Some ({ state = Ready _; _ } as e) -> touch t e
   | Some { state = Pending; _ } -> ()  (* a builder owns the key *)
   | Some { state = Failed _; _ } | None ->
     let e = { state = Ready v; stamp = 0 } in
     touch t e;
     Hashtbl.replace t.tbl key e;
     enforce_cap t);
  Mutex.unlock t.mutex

let remove t key =
  Mutex.lock t.mutex;
  let removed =
    match Hashtbl.find_opt t.tbl key with
    | Some { state = Ready _ | Failed _; _ } ->
      Hashtbl.remove t.tbl key;
      true
    | Some { state = Pending; _ } | None -> false
  in
  Mutex.unlock t.mutex;
  removed

let trim t ~keep =
  Mutex.lock t.mutex;
  let shed = evict_down_to t (max 0 keep) in
  Mutex.unlock t.mutex;
  shed

let length t =
  Mutex.lock t.mutex;
  let n = ready_count t in
  Mutex.unlock t.mutex;
  n

let stats ?(since = []) t =
  let v = Telemetry.since since in
  { hits = v t.c_hits; misses = v t.c_misses; evictions = v t.c_evictions }
