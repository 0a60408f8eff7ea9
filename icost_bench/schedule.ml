(* The served traffic mix, made from the seed alone: open-loop Poisson
   arrival times, which requests are hot, and the never-repeating keys of
   the cold ones. *)

module Prng = Icost_util.Prng

(* Arrival offsets (seconds from the phase start) of a Poisson process of
   [rate] requests per second over [duration] seconds. *)
let arrivals ~seed ~rate ~duration =
  let g = Prng.create seed in
  let rec go t acc =
    let t = t -. (log (1. -. Prng.float g) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

(* One request in every [block] is cold, at a seeded position within its
   block, so every stretch of traffic carries the same cold share instead
   of a binomial one. *)
let block = 10

type mix = { g : Prng.t; hot : int; mutable slot : int; mutable cold_at : int }

let mix ~seed ~hot =
  let g = Prng.create seed in
  { g; hot; slot = 0; cold_at = Prng.int g block }

let next m =
  let k = if m.slot = m.cold_at then `Cold else `Hot (Prng.int m.g m.hot) in
  m.slot <- m.slot + 1;
  if m.slot = block then begin
    m.slot <- 0;
    m.cold_at <- Prng.int m.g block
  end;
  k

(* A cold request's target: a measure window whose preparation key
   (kernel, window) the daemon has never seen. *)
type cold = { kernel : string; measure : int; engine : string }

let measure_lo = 3_000
let measure_hi = 7_000

type colds = {
  cg : Prng.t;
  combos : (string * string) array;
  mutable pos : int;
  used : (string * int, unit) Hashtbl.t;
}

(* Cold keys cycle through every (kernel, engine) pair in a fresh seeded
   order per cycle, so the share of expensive kernels does not drift with
   the seed; [reserved] windows (the hot set's) are never drawn. *)
let colds ~seed ~kernels ~engines ~reserved =
  let combos =
    Array.of_list
      (List.concat_map (fun k -> List.map (fun e -> (k, e)) engines) kernels)
  in
  let used = Hashtbl.create 1024 in
  List.iter
    (fun m -> List.iter (fun k -> Hashtbl.replace used (k, m) ()) kernels)
    reserved;
  { cg = Prng.create seed; combos; pos = Array.length combos; used }

let next_cold c =
  if c.pos = Array.length c.combos then begin
    Prng.shuffle c.cg c.combos;
    c.pos <- 0
  end;
  let kernel, engine = c.combos.(c.pos) in
  c.pos <- c.pos + 1;
  let rec pick () =
    let m = Prng.int_range c.cg measure_lo measure_hi in
    if Hashtbl.mem c.used (kernel, m) then pick () else m
  in
  let measure = pick () in
  Hashtbl.replace c.used (kernel, measure) ();
  { kernel; measure; engine }

(* Start a fresh cycle at the next draw, so a phase of whole cycles sees
   every (kernel, engine) pair equally often. *)
let restart c = c.pos <- Array.length c.combos
