(* Spans recorded by the benchmark around its own calls into each layer's
   public functions.  The buffer is allocated once, up front, so a traced
   run's memory does not grow with its length: when it is full, further
   spans are counted as dropped rather than stored.  The program's own
   telemetry ([Icost_util.Telemetry]) stays disabled; its span list is
   unbounded. *)

type t = {
  cap : int;
  name : string array;
  id : int array;  (** segment index, call number or request number *)
  parent : int array;  (** index of the enclosing span, -1 for a root *)
  lane : int array;  (** Chrome trace thread row *)
  start : float array;
  stop : float array;
  mutable n : int;
  mutable dropped : int;
  mutable open_ : int list;  (** spans entered and not yet left *)
}

let clock = Unix.gettimeofday

let create cap =
  {
    cap;
    name = Array.make cap "";
    id = Array.make cap 0;
    parent = Array.make cap (-1);
    lane = Array.make cap 0;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    n = 0;
    dropped = 0;
    open_ = [];
  }

(* A closed span with explicit times and parent, for intervals that do
   not nest on a stack (overlapping requests of an open-loop phase).
   Returns its index, or -1 when the buffer is full. *)
let add t ?(lane = 0) ~name ~id ~parent ~start ~stop () =
  if t.n = t.cap then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.name.(i) <- name;
    t.id.(i) <- id;
    t.parent.(i) <- parent;
    t.lane.(i) <- lane;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.n <- i + 1;
    i
  end

let current t = match t.open_ with i :: _ -> i | [] -> -1

(* Open a span whose parent is the innermost open one. *)
let enter t ?(at = clock ()) ~name ~id () =
  let i = add t ~name ~id ~parent:(current t) ~start:at ~stop:at () in
  t.open_ <- i :: t.open_;
  i

let leave t ?(at = clock ()) i =
  (match t.open_ with _ :: rest -> t.open_ <- rest | [] -> ());
  if i >= 0 then t.stop.(i) <- at

let with_span t ~name ~id f =
  let i = enter t ~name ~id () in
  Fun.protect ~finally:(fun () -> leave t i) f

let duration t i = t.stop.(i) -. t.start.(i)

(* Length of the union of [ivs] clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
  in
  let rec go acc reach = function
    | [] -> acc
    | (a, b) :: rest ->
      let a = Float.max a reach in
      if b > a then go (acc +. (b -. a)) b rest else go acc reach rest
  in
  go 0. neg_infinity (List.sort compare clipped)

(* Self time of every span: its duration minus the part of it that its
   children cover. *)
let self_times t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then kids.(p) <- (t.start.(i), t.stop.(i)) :: kids.(p)
  done;
  Array.init t.n (fun i ->
      duration t i -. covered ~lo:t.start.(i) ~hi:t.stop.(i) kids.(i))

let fold_named t name f init =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    if String.equal t.name.(i) name then acc := f !acc i
  done;
  !acc

(* Summed self time (seconds) of the spans called [name]. *)
let self_total t name =
  let self = self_times t in
  fold_named t name (fun acc i -> acc +. self.(i)) 0.

(* Durations (seconds) of the spans called [name], in record order. *)
let durations t name =
  Array.of_list (List.rev (fold_named t name (fun acc i -> duration t i :: acc) []))

(* Chrome trace-event JSON (chrome://tracing, Perfetto). *)
let write_chrome t file =
  let t0 = if t.n = 0 then 0. else Array.fold_left Float.min infinity (Array.sub t.start 0 t.n) in
  Out_channel.with_open_text file (fun oc ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
          (if i = 0 then "" else ",")
          (Icost_service.Json.encode (Icost_service.Json.Str t.name.(i)))
          t.lane.(i)
          ((t.start.(i) -. t0) *. 1e6)
          (duration t i *. 1e6) t.id.(i) t.parent.(i)
      done;
      Printf.fprintf oc "\n],\"otherData\":{\"dropped_spans\":%d}}\n" t.dropped)
