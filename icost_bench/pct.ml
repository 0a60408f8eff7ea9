(* Order statistics over benchmark samples. *)

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let check_nonempty what xs =
  if Array.length xs = 0 then invalid_arg (what ^ ": no samples")

(* Nearest-rank percentile: the smallest sample with at least a share [q]
   of all samples at or below it. *)
let percentile xs q =
  check_nonempty "Pct.percentile" xs;
  let n = Array.length xs in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  (sorted xs).(max 0 (min (n - 1) (rank - 1)))

(* How many of [n] samples lie above the nearest-rank [q] percentile. *)
let beyond n q = n - max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

(* A percentile is worth reporting only with at least ten samples beyond
   it: with fewer, it is one or two unlucky samples, not a tail. *)
let reportable n q = n > 0 && beyond n q >= 10

let highest_reportable n =
  List.find_opt (reportable n) [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* The sample count behind a p95 and, when fewer than ten samples lie
   beyond it, the highest percentile that does have ten. *)
let tail_note n =
  match highest_reportable n with
  | Some q when q >= 0.95 -> Printf.sprintf "%d samples, %d beyond p95" n (beyond n 0.95)
  | Some q -> Printf.sprintf "%d samples; only p%g has ten beyond it" n (q *. 100.)
  | None -> Printf.sprintf "%d samples; no percentile has ten beyond it" n

(* Python's statistics.median: the mean of the two middle samples for an
   even count. *)
let median xs =
  check_nonempty "Pct.median" xs;
  let s = sorted xs in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Quartiles exactly as Python's statistics.quantiles(xs, n=4) computes
   them (the default exclusive method), so the spreads this benchmark
   reports match the ones its users compute from the printed values. *)
let quartiles xs =
  let s = sorted xs in
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Pct.quartiles: need at least two samples";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 2, cut 3)

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

(* A growable float buffer for samples whose count is set by the clock. *)
module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0. in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let get v i = v.a.(i)
  let to_array v = Array.sub v.a 0 v.n
end
