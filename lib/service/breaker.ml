(* Per-key circuit breaker.  See breaker.mli for the contract. *)

module Telemetry = Icost_util.Telemetry

let c_trips = Telemetry.counter "service.breaker_open"

(* [fails] is consecutive failures; a trip sets [opened_until] without
   resetting [fails], so the half-open trial after the cooldown re-opens
   on its first failure.  [stamp] orders entries for bounded-table
   eviction. *)
type entry = {
  mutable fails : int;
  mutable opened_until : float;
  mutable stamp : int;
}

type t = {
  mutex : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  threshold : int;
  cooldown : float;
  max_keys : int;
  mutable tick : int;
}

let create ?(threshold = 3) ?(cooldown = 5.) () =
  {
    mutex = Mutex.create ();
    tbl = Hashtbl.create 16;
    threshold = max 1 threshold;
    cooldown = Float.max 0. cooldown;
    max_keys = 128;
    tick = 0;
  }

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

(* caller holds the lock *)
let drop_stalest t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | None -> Some (k, e.stamp)
        | Some (_, stamp) when e.stamp < stamp -> Some (k, e.stamp)
        | _ -> acc)
      t.tbl None
  in
  match victim with None -> () | Some (k, _) -> Hashtbl.remove t.tbl k

let check t key =
  Mutex.lock t.mutex;
  let verdict =
    match Hashtbl.find_opt t.tbl key with
    | Some e when Unix.gettimeofday () < e.opened_until -> `Open
    | _ -> `Ok
  in
  Mutex.unlock t.mutex;
  verdict

let success t key =
  Mutex.lock t.mutex;
  Hashtbl.remove t.tbl key;
  Mutex.unlock t.mutex

let failure t key =
  Mutex.lock t.mutex;
  let e =
    match Hashtbl.find_opt t.tbl key with
    | Some e -> e
    | None ->
      if Hashtbl.length t.tbl >= t.max_keys then drop_stalest t;
      let e = { fails = 0; opened_until = 0.; stamp = 0 } in
      Hashtbl.replace t.tbl key e;
      e
  in
  touch t e;
  e.fails <- e.fails + 1;
  let tripped = e.fails >= t.threshold in
  if tripped then e.opened_until <- Unix.gettimeofday () +. t.cooldown;
  Mutex.unlock t.mutex;
  if tripped then Telemetry.incr c_trips

let open_count t =
  Mutex.lock t.mutex;
  let now = Unix.gettimeofday () in
  let n =
    Hashtbl.fold
      (fun _ e acc -> if now < e.opened_until then acc + 1 else acc)
      t.tbl 0
  in
  Mutex.unlock t.mutex;
  n
