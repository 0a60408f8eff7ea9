(* The serve-mix workload: the built [icost serve] daemon on a Unix
   socket, with default caches, [--workers 2 --jobs 1], driven by one
   single-threaded generator over two connections.

   90% of requests are hot (one of the breakdowns primed during set-up:
   cache and memo replay) and 10% cold (a preparation key the daemon has
   never seen: analysis under queueing).  The phases are an open loop at
   the fixed rates [low_qps] and [high_qps], each request timed from the
   moment it was due to be sent, and closed-loop bursts that send the
   next request as soon as the previous reply arrives, which keep the
   daemon busy and measure its capacity.  Only this workload crosses the
   service layers; everything here is measured from outside the daemon. *)

module P = Icost_service.Protocol
module Prng = Icost_util.Prng
module Breakdown = Icost_core.Breakdown
module Workload = Icost_workloads.Workload
module Runner = Icost_experiments.Runner

(* Fixed rates, frozen at about 25% and 60% of the highest rate that met
   the latency limit on a 2-core x86-64 host (about 90 req/s). *)
let low_qps = 22.
let high_qps = 54.

(* Latency limit of a fixed-rate phase: p95 within it and no growing
   backlog (see [backlog_ok]). *)
let limit_p95_ms = 300.

let warmup = Breakdown_wl.warmup
let hot_measure = 5_000
let engines = [ "multisim"; "graph"; "profiler"; "stream" ]
let clock = Unix.gettimeofday

let breakdown_op ~kernel ~measure ~engine =
  P.Breakdown
    { target = { P.default_target with workload = kernel; engine; warmup; measure };
      focus = "dl1" }

(* ---- daemon ---- *)

(* Daemons still running; killed at exit, whatever ends the run. *)
let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

let spawn ~icost ~socket =
  let pid =
    Unix.create_process icost
      [| icost; "serve"; "--socket"; socket; "--workers"; "2"; "--jobs"; "1" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  pid

type conn = {
  fd : Unix.file_descr;
  lane : int;
  pending : Buffer.t;  (** bytes after the last complete reply line *)
  chunk : Bytes.t;
  inflight : inflight Queue.t;  (** replies come back in request order *)
}

and inflight = {
  no : int;
  sched : float;  (** when the request was due to be sent *)
  kind : kind;
  enc : float * float;  (** encode interval *)
}

and kind = Hot of int | Cold of Schedule.cold * bool  (** verify it? *)

let connect ~socket ~lane =
  let deadline = clock () +. 30. in
  let rec go delay =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
      { fd; lane; pending = Buffer.create 4096; chunk = Bytes.create 65536;
        inflight = Queue.create () }
    | exception (Unix.Unix_error _ as e) ->
      Unix.close fd;
      if clock () > deadline then raise e;
      Unix.sleepf delay;
      go (Float.min 0.25 (delay *. 2.))
  in
  go 0.01

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_line c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* Read what is available and hand every complete line to [f]. *)
let read_lines c f =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "daemon closed the connection";
  Buffer.add_subbytes c.pending c.chunk 0 n;
  let s = Buffer.contents c.pending in
  let rec go start =
    match String.index_from_opt s start '\n' with
    | Some i ->
      f (String.sub s start (i - start));
      go (i + 1)
    | None ->
      Buffer.clear c.pending;
      Buffer.add_string c.pending (String.sub s start (String.length s - start))
  in
  go 0

(* Blocking request/reply for set-up and control traffic. *)
let call_lines c lines =
  List.iter (send_line c) lines;
  let got = ref [] in
  while List.length !got < List.length lines do
    read_lines c (fun l -> got := l :: !got)
  done;
  List.rev !got

let request no op = P.encode_request { P.req_id = no; deadline_ms = None; op }

(* A decoded reply with its id zeroed: equal replies to equal requests
   compare byte for byte. *)
let normalize = function
  | Ok r -> (
      match r.P.body with
      | Ok _ -> Ok (P.encode_reply { r with P.rep_id = 0 })
      | Error (code, msg) -> Error (P.error_code_name code ^ ": " ^ msg))
  | Error msg -> Error msg

let status ~socket =
  let c = connect ~socket ~lane:0 in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  match call_lines c [ request 0 P.Status ] with
  | [ line ] -> (
      match P.decode_reply line with
      | Ok { P.body = Ok (P.R_status s); _ } -> s
      | _ -> failwith ("status: unexpected reply " ^ line))
  | _ -> assert false

let shutdown ~socket pid =
  (try
     let c = connect ~socket ~lane:0 in
     ignore (call_lines c [ request 0 P.Shutdown ]);
     close c
   with _ -> ());
  let deadline = clock () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when clock () < deadline -> Unix.sleepf 0.02; wait ()
    | 0, _ -> reap pid
    | _ -> live := List.filter (( <> ) pid) !live
  in
  wait ()

(* ---- phases ---- *)

type phase = {
  lat : Pct.Vec.t;
  hot_lat : Pct.Vec.t;
  cold_lat : Pct.Vec.t;
  sched_at : Pct.Vec.t;
  done_at : Pct.Vec.t;
  mutable sent : int;
  mutable completed : int;
  mutable errors : int;
  mutable diverged : int;
  mutable late_max : float;
  mutable backlog_max : int;
  mutable codec : float;
  mutable cold_sample : (Schedule.cold * string) list;
  mutable t_start : float;
  mutable t_end : float;
}

type state = {
  conns : conn array;
  hot_ops : P.op array;
  primed : string array;
  mix : Schedule.mix;
  colds : Schedule.colds;
  verify_g : Prng.t;
  mutable colds_sent : int;
  mutable next_no : int;
  mutable spans : Spans.t option;  (** set for the traced burst *)
}

let new_phase () =
  { lat = Pct.Vec.create (); hot_lat = Pct.Vec.create (); cold_lat = Pct.Vec.create ();
    sched_at = Pct.Vec.create (); done_at = Pct.Vec.create (); sent = 0; completed = 0;
    errors = 0; diverged = 0; late_max = 0.; backlog_max = 0; codec = 0.;
    cold_sample = []; t_start = 0.; t_end = 0. }

let send st ph c ~sched =
  let kind, op =
    match Schedule.next st.mix with
    | `Hot i -> (Hot i, st.hot_ops.(i))
    | `Cold ->
      let key = Schedule.next_cold st.colds in
      (* the first cold request is always checked, then a seeded 1 in 10 *)
      let verify = st.colds_sent = 0 || Prng.int st.verify_g 10 = 0 in
      st.colds_sent <- st.colds_sent + 1;
      ( Cold (key, verify),
        breakdown_op ~kernel:key.Schedule.kernel ~measure:key.Schedule.measure
          ~engine:key.Schedule.engine )
  in
  let no = st.next_no in
  st.next_no <- no + 1;
  let e0 = clock () in
  let line = request no op in
  let e1 = clock () in
  send_line c line;
  Queue.push { no; sched; kind; enc = (e0, e1) } c.inflight;
  ph.codec <- ph.codec +. (e1 -. e0);
  ph.sent <- ph.sent + 1;
  Pct.Vec.add ph.sched_at sched;
  ph.late_max <- Float.max ph.late_max (e0 -. sched);
  ph.backlog_max <- max ph.backlog_max (ph.sent - ph.completed)

let on_reply st ph ~parent c line =
  let t = clock () in
  let q = Queue.pop c.inflight in
  let d0 = clock () in
  let decoded = P.decode_reply line in
  let d1 = clock () in
  ph.codec <- ph.codec +. (d1 -. d0);
  ph.completed <- ph.completed + 1;
  Pct.Vec.add ph.done_at t;
  let lat = t -. q.sched in
  Pct.Vec.add ph.lat lat;
  (match normalize decoded with
   | Error msg ->
     ph.errors <- ph.errors + 1;
     if ph.errors <= 3 then Printf.printf "  error reply to request %d: %s\n" q.no msg
   | Ok norm -> (
       match q.kind with
       | Hot i ->
         Pct.Vec.add ph.hot_lat lat;
         if not (String.equal norm st.primed.(i)) then ph.diverged <- ph.diverged + 1
       | Cold (key, verify) ->
         Pct.Vec.add ph.cold_lat lat;
         if verify then ph.cold_sample <- (key, norm) :: ph.cold_sample));
  Option.iter
    (fun sp ->
      let r =
        Spans.add sp ~lane:c.lane ~name:"service.request" ~id:q.no ~parent ~start:q.sched
          ~stop:t ()
      in
      let e0, e1 = q.enc in
      ignore (Spans.add sp ~lane:c.lane ~name:"client.encode" ~id:q.no ~parent:r ~start:e0 ~stop:e1 ());
      ignore (Spans.add sp ~lane:c.lane ~name:"client.decode" ~id:q.no ~parent:r ~start:d0 ~stop:d1 ()))
    st.spans

type mode =
  | Open of float array * float  (** arrival offsets, duration *)
  | Closed of int  (** requests to send *)

(* One phase on the single generator thread: send what is due, wait on
   both connections until the next send is due, handle replies. *)
let run_phase st ~name mode =
  let ph = new_phase () in
  let parent =
    match st.spans with Some sp -> Spans.enter sp ~name ~id:0 () | None -> -1
  in
  let t0 = clock () in
  ph.t_start <- t0;
  let hard_stop =
    t0 +. 60. +. match mode with Open (_, d) -> d | Closed n -> float_of_int n /. 10.
  in
  let next = ref 0 in
  let busy c = not (Queue.is_empty c.inflight) in
  let least_loaded () =
    Array.fold_left
      (fun best c -> if Queue.length c.inflight < Queue.length best.inflight then c else best)
      st.conns.(ph.sent mod Array.length st.conns) st.conns
  in
  let finished = ref false in
  while not !finished do
    let now = clock () in
    (match mode with
     | Open (offs, _) ->
       while !next < Array.length offs && t0 +. offs.(!next) <= now do
         send st ph (least_loaded ()) ~sched:(t0 +. offs.(!next));
         incr next
       done
     | Closed n ->
       (* one request outstanding: with one analysis domain, a second
          only queues behind the first *)
       if ph.sent < n && not (Array.exists busy st.conns) then
         send st ph st.conns.(ph.sent mod Array.length st.conns) ~sched:now);
    let more =
      match mode with
      | Open (offs, _) -> !next < Array.length offs
      | Closed n -> ph.sent < n
    in
    let waiting = List.filter busy (Array.to_list st.conns) in
    if waiting = [] && not more then finished := true
    else if now > hard_stop then begin
      (* replies that never came count as failed *)
      List.iter (fun c -> ph.errors <- ph.errors + Queue.length c.inflight) waiting;
      finished := true
    end
    else begin
      let timeout =
        match mode with
        | Open (offs, _) when !next < Array.length offs ->
          Float.max 0. (t0 +. offs.(!next) -. now)
        | _ -> 0.05
      in
      match waiting with
      | [] -> Unix.sleepf timeout
      | cs ->
        let ready =
          try
            let r, _, _ = Unix.select (List.map (fun c -> c.fd) cs) [] [] timeout in
            r
          with Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun fd ->
            let c = List.find (fun c -> c.fd = fd) cs in
            read_lines c (on_reply st ph ~parent c))
          ready
    end
  done;
  ph.t_end <- clock ();
  Option.iter (fun sp -> Spans.leave sp parent) st.spans;
  ph

(* No growing backlog: replies completed over the phase's last quarter
   (allowing the latency limit past its end) keep up with the sends
   scheduled in it. *)
let backlog_ok ph ~duration =
  let from = ph.t_start +. (0.75 *. duration) and until = ph.t_start +. duration in
  let count v ~until =
    let n = ref 0 in
    for i = 0 to Pct.Vec.length v - 1 do
      let t = Pct.Vec.get v i in
      if t >= from && t < until then incr n
    done;
    !n
  in
  float_of_int (count ph.done_at ~until:(until +. (limit_p95_ms /. 1e3)))
  >= 0.95 *. float_of_int (count ph.sched_at ~until)

(* The sampled cold replies against the same breakdown computed in this
   process and encoded through [Protocol]. *)
let verify_colds ph =
  List.filter
    (fun ((key : Schedule.cold), norm) ->
      let kind =
        match key.engine with
        | "multisim" -> Runner.Multisim
        | "profiler" -> Runner.Profiler
        | "stream" -> Runner.Streamed
        | _ -> Runner.Fullgraph
      in
      let bd = Breakdown_wl.cold_call ~measure:key.measure kind key.kernel in
      let body =
        P.R_breakdown
          { baseline = bd.Breakdown.baseline_cycles;
            rows =
              List.map
                (fun (r : Breakdown.row) ->
                  { P.row_label = Breakdown.row_label r; row_percent = r.Breakdown.percent;
                    row_cycles = r.Breakdown.cycles })
                bd.Breakdown.rows }
      in
      not (String.equal norm (P.encode_reply { P.rep_id = 0; body = Ok body })))
    ph.cold_sample

(* Requests per second one at a time, from each class's service time
   weighted by the mix.  Hot times are one mode with rare pauses, so
   they enter as their median, which a pause of the host does not move.
   Cold times have a mode per engine and kernel, between which a median
   would jump, so they enter as their mean over whole cycles of cold
   keys, where every (kernel, engine) pair counts equally. *)
let capacity ph =
  let cold = 1. /. float_of_int Schedule.block in
  let n_cold = Pct.Vec.length ph.cold_lat in
  if Pct.Vec.length ph.hot_lat = 0 || n_cold = 0 then
    float_of_int ph.completed /. (ph.t_end -. ph.t_start)
  else
    let cold_mean = Array.fold_left ( +. ) 0. (Pct.Vec.to_array ph.cold_lat) /. float_of_int n_cold in
    1. /. (((1. -. cold) *. Pct.median (Pct.Vec.to_array ph.hot_lat)) +. (cold *. cold_mean))

let vec_pct v q = if Pct.Vec.length v = 0 then 0. else Pct.percentile (Pct.Vec.to_array v) q *. 1e3

(* ---- the workload ---- *)

let run ~icost ~seed ~seconds ~quick ~traced ~spans =
  let kernels = if quick then [ "gcc"; "gzip" ] else Workload.names in
  let hot_ops =
    Array.of_list
      (List.concat_map
         (fun kernel ->
           List.map (fun engine -> breakdown_op ~kernel ~measure:hot_measure ~engine) engines)
         kernels)
  in
  let dir = ".icost_bench" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Printf.sprintf "%s/d%d.sock" dir (Unix.getpid ()) in
  (* set-up: start the daemon and prime the hot set *)
  let setup () =
    let t0 = clock () in
    let pid = spawn ~icost ~socket in
    let c = connect ~socket ~lane:1 in
    let primed =
      (* one at a time: two analyses in flight would make the peak
         memory depend on how they overlap *)
      List.concat_map (fun (i, op) -> call_lines c [ request i op ])
        (List.mapi (fun i op -> (i, op)) (Array.to_list hot_ops))
      |> List.map (fun l ->
             match normalize (P.decode_reply l) with
             | Ok n -> n
             | Error msg -> failwith ("priming the hot set: " ^ msg))
      |> Array.of_list
    in
    (pid, c, primed, clock () -. t0)
  in
  let reps = if quick then 1 else 3 in
  (* the last set-up's daemon serves the run *)
  let all_setups =
    List.init reps (fun k ->
        let ((pid, c, _, _) as s) = setup () in
        if k < reps - 1 then begin
          close c;
          shutdown ~socket pid
        end;
        s)
  in
  let pid, c1, primed, _ = List.nth all_setups (reps - 1) in
  let setup_s = Pct.median (Array.of_list (List.map (fun (_, _, _, s) -> s) all_setups)) in
  let primes_agree = List.for_all (fun (_, _, p, _) -> p = primed) all_setups in
  let c2 = connect ~socket ~lane:2 in
  let sub = Hashtbl.hash (seed, "serve") in
  let st =
    {
      conns = [| c1; c2 |];
      hot_ops;
      primed;
      mix = Schedule.mix ~seed:(sub + 1) ~hot:(Array.length hot_ops);
      colds =
        Schedule.colds ~seed:(sub + 2) ~kernels:Workload.names ~engines
          ~reserved:[ hot_measure ];
      verify_g = Prng.create (sub + 3);
      colds_sent = 0;
      next_no = Array.length hot_ops;
      spans = None;
    }
  in
  let d_low = 0.5 *. seconds and d_high = 0.25 *. seconds in
  (* Capacity is measured in three bursts spread through the run, each a
     whole cycle of cold keys, and the median burst is kept: a slow spell
     of the daemon's core covers one burst, not the median. *)
  let burst () =
    Schedule.restart st.colds;
    let cycle = Schedule.block * List.length Workload.names * List.length engines in
    run_phase st ~name:"serve.capacity" (Closed (if quick then 8 else cycle))
  in
  let cap_a = burst () in
  let cpu0 = Procfs.cpu_ms pid in
  let s0 = status ~socket in
  let low =
    run_phase st ~name:"serve.low"
      (Open (Schedule.arrivals ~seed:(sub + 4) ~rate:low_qps ~duration:d_low, d_low))
  in
  let s1 = status ~socket in
  let cap_b = burst () in
  let s2 = status ~socket in
  let high =
    run_phase st ~name:"serve.high"
      (Open (Schedule.arrivals ~seed:(sub + 5) ~rate:high_qps ~duration:d_high, d_high))
  in
  let s3 = status ~socket in
  let cap_c = burst () in
  let cpu1 = Procfs.cpu_ms pid in
  let bursts = [ cap_a; cap_b; cap_c ] in
  let cap = Pct.median (Array.of_list (List.map capacity bursts)) in
  let traced_cap =
    if not traced then None
    else begin
      st.spans <- Some spans;
      Some (burst ())
    end
  in
  let peak_mb = Procfs.peak_rss_mb (string_of_int pid) in
  close c1;
  close c2;
  shutdown ~socket pid;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let measured = [ cap_a; low; cap_b; high; cap_c ] in
  let phases = measured @ Option.to_list traced_cap in
  let bad_colds = List.concat_map verify_colds phases in
  let sum f = List.fold_left (fun a ph -> a + f ph) 0 phases in
  let sent = sum (fun p -> p.sent) and errors = sum (fun p -> p.errors) in
  let diverged = sum (fun p -> p.diverged) in
  let verified = sum (fun p -> List.length p.cold_sample) in
  let report label ph d =
    let n = Pct.Vec.length ph.lat in
    let p95 = vec_pct ph.lat 0.95 in
    let limit_met = p95 <= limit_p95_ms && backlog_ok ph ~duration:d in
    Printf.printf
      "  %-5s %6.1f req/s offered: p50 %.3f ms, p95 %.3f ms (%s), \
       backlog max %d, generator late by up to %.2f ms%s; latency limit met: %b\n"
      label
      (float_of_int ph.sent /. d)
      (vec_pct ph.lat 0.5) p95 (Pct.tail_note n) ph.backlog_max (ph.late_max *. 1e3)
      (if ph.late_max > 0.005 then " (limited by the generator)" else "")
      limit_met
  in
  Printf.printf "serve-mix: %d hot breakdowns primed; set-up %.2f s (median of %d)\n"
    (Array.length hot_ops) setup_s reps;
  report "low" low d_low;
  report "high" high d_high;
  Printf.printf
    "  capacity (closed loop, one request outstanding): %.1f req/s, the median of bursts at %s \
     req/s from service times (%s req/s completed)\n"
    cap
    (String.concat ", " (List.map (fun b -> Printf.sprintf "%.1f" (capacity b)) bursts))
    (String.concat ", "
       (List.map
          (fun b -> Printf.sprintf "%.1f" (float_of_int b.completed /. (b.t_end -. b.t_start)))
          bursts));
  Printf.printf
    "  hot replies identical to primed: %b; sampled cold replies (%d) identical to \
     in-process: %b; primed replies agree across set-ups: %b\n"
    (diverged = 0) verified (bad_colds = []) primes_agree;
  let e2e =
    [
      ("setup_s", setup_s);
      ("latency_p50_ms", vec_pct low.lat 0.5);
      ("throughput_per_s", cap);
      ("peak_mb", peak_mb);
    ]
  in
  let layers =
    (* status tallies around the two fixed-rate phases *)
    let delta f = f s1 - f s0 + f s3 - f s2 in
    let hits = delta (fun s -> s.P.cache_hits) in
    let misses = delta (fun s -> s.P.cache_misses) in
    let completed = List.fold_left (fun a p -> a + p.completed) 0 measured in
    let codec = List.fold_left (fun a p -> a +. p.codec) 0. measured in
    [
      ("latency_p95_ms", vec_pct low.lat 0.95);
      ("service.high_p50_ms", vec_pct high.lat 0.5);
      ("service.high_p95_ms", vec_pct high.lat 0.95);
      ("service.hot_p50_ms", vec_pct high.hot_lat 0.5);
      ("service.cold_p50_ms", vec_pct low.cold_lat 0.5);
      ("service.cache_hit_frac", float_of_int hits /. float_of_int (max 1 (hits + misses)));
      ("service.evictions", float_of_int (delta (fun s -> s.P.cache_evictions)));
      ("service.daemon_cpu_ms_per_req", (cpu1 -. cpu0) /. float_of_int (max 1 completed));
      ("service.backlog_max", float_of_int (max low.backlog_max high.backlog_max));
      ("service.gen_late_max_ms", Float.max low.late_max high.late_max *. 1e3);
      ("service.client_codec_us", codec /. float_of_int (max 1 completed) *. 1e6);
    ]
    @
    match traced_cap with
    | Some t -> [ ("trace_overhead_frac", (cap /. capacity t) -. 1.) ]
    | None -> []
  in
  {
    Report.correct = diverged = 0 && bad_colds = [] && primes_agree;
    attempted = sent;
    failed = errors;
    e2e;
    layers;
  }
