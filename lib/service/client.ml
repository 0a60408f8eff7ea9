(* Blocking protocol client with a resilient session layer.  See
   client.mli. *)

module Telemetry = Icost_util.Telemetry
module Prng = Icost_util.Prng
module P = Protocol

type t = {
  fd : Unix.file_descr;
  buf : Linebuf.t;
  scratch : bytes;  (* per-connection read chunk, reused across calls *)
}

exception Disconnected of string

let () =
  Printexc.register_printer (function
    | Disconnected msg -> Some (Printf.sprintf "Client.Disconnected(%S)" msg)
    | _ -> None)

let c_retries = Telemetry.counter "service.retries"

(* ---------- bare connection ---------- *)

let connect_error addr err =
  let hint =
    match (addr, err) with
    | Endpoint.Unix_path _, Unix.ENOENT ->
      "socket file does not exist (daemon not started, or already exited)"
    | Endpoint.Unix_path _, Unix.ECONNREFUSED ->
      "connection refused (stale socket file with no listener behind it)"
    | Endpoint.Tcp _, Unix.ECONNREFUSED ->
      "connection refused (no daemon listening at this endpoint)"
    | _, e -> Unix.error_message e
  in
  Failure
    (Printf.sprintf "cannot connect to %s: %s" (Endpoint.addr_to_string addr)
       hint)

let connect_addr ?(retry_for = 0.) addr =
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec attempt backoff =
    match Endpoint.connect_fd addr with
    | fd -> { fd; buf = Linebuf.create (); scratch = Bytes.create 65536 }
    | exception Unix.Unix_error (err, _, _) ->
      let now = Unix.gettimeofday () in
      if now < deadline then begin
        (* capped exponential backoff, clamped to the remaining window,
           instead of a fixed-period poll *)
        ignore (Unix.select [] [] [] (Float.min backoff (deadline -. now)));
        attempt (Float.min (backoff *. 2.) 0.25)
      end
      else raise (connect_error addr err)
  in
  attempt 0.01

let connect ?retry_for ~socket () =
  connect_addr ?retry_for (Endpoint.Unix_path socket)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let read_line c =
  match Linebuf.pop c.buf with
  | Some line -> line
  | None ->
    let chunk = c.scratch in
    let rec fill () =
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | 0 -> raise (Disconnected "connection closed by server")
      | n -> (
        Linebuf.feed c.buf chunk ~len:n;
        match Linebuf.pop c.buf with
        | Some line -> line
        | None -> fill ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE) as e, _, _)
        -> raise (Disconnected (Unix.error_message e))
    in
    fill ()

let send_line c (line : string) =
  let line = line ^ "\n" in
  let rec write_all off =
    if off < String.length line then
      match Unix.write_substring c.fd line off (String.length line - off) with
      | n -> write_all (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE) as e, _, _)
        -> raise (Disconnected (Unix.error_message e))
  in
  write_all 0

let recv_line = read_line
let send c (req : P.request) = send_line c (P.encode_request req)

let recv c : P.reply =
  match P.decode_reply (read_line c) with
  | Ok reply -> reply
  | Error msg -> failwith ("undecodable reply: " ^ msg)

let call c (req : P.request) : P.reply =
  send c req;
  recv c

(* Write the whole window before reading anything: the server's
   sequence-ordered writer guarantees replies come back in request
   order, so reading N replies positionally is correct. *)
let pipeline c (reqs : P.request list) : P.reply list =
  List.iter (send c) reqs;
  List.map (fun _ -> recv c) reqs

let with_client ?retry_for ~socket f =
  let c = connect ?retry_for ~socket () in
  Fun.protect ~finally:(fun () -> close c) (fun () -> f c)

let with_addr ?retry_for addr f =
  let c = connect_addr ?retry_for addr in
  Fun.protect ~finally:(fun () -> close c) (fun () -> f c)

(* ---------- resilient session layer ---------- *)

type retry_opts = {
  retries : int;
  budget_ms : int;
  base_backoff_ms : float;
  max_backoff_ms : float;
}

let default_retry_opts =
  { retries = 2; budget_ms = 5000; base_backoff_ms = 25.; max_backoff_ms = 1000. }

type session = {
  addr : Endpoint.addr;
  opts : retry_opts;
  prng : Prng.t;  (* jitter source; seeded per session *)
  mutable conn : t option;
  mutable retried : int;
}

let connect_session_addr ?(opts = default_retry_opts) ?retry_for addr =
  let conn = connect_addr ?retry_for addr in
  {
    addr;
    opts;
    prng = Prng.create (Hashtbl.hash (Endpoint.addr_to_string addr) lxor 0x5e551e);
    conn = Some conn;
    retried = 0;
  }

let connect_session ?opts ?retry_for ~socket () =
  connect_session_addr ?opts ?retry_for (Endpoint.Unix_path socket)

let close_session s =
  Option.iter close s.conn;
  s.conn <- None

let session_retries s = s.retried

let conn_of s =
  match s.conn with
  | Some c -> c
  | None ->
    let c = connect_addr s.addr in
    s.conn <- Some c;
    c

let drop_conn s =
  Option.iter close s.conn;
  s.conn <- None

let count_retry s =
  s.retried <- s.retried + 1;
  Telemetry.incr c_retries

(* Decorrelated jitter (AWS architecture-blog variant): each sleep is
   uniform in [base, 3 * previous], capped, and clamped to whatever is
   left of the per-call budget so the last retry never oversleeps it.
   [floor_ms] is the server's retry hint ([retry_after_ms], e.g. from a
   breaker refusal): sleeping less would burn a retry on a refusal the
   server already promised, so the hint floors the jittered sleep —
   still clamped to the budget. *)
let backoff_sleep ?(floor_ms = 0.) s ~prev ~deadline =
  let o = s.opts in
  let base = o.base_backoff_ms /. 1e3 in
  let cap = o.max_backoff_ms /. 1e3 in
  let span = Float.max 0. ((3. *. prev) -. base) in
  let sleep = Float.min cap (base +. (Prng.float s.prng *. span)) in
  let sleep = Float.max sleep (floor_ms /. 1e3) in
  let remaining = deadline -. Unix.gettimeofday () in
  let sleep = Float.min sleep (Float.max 0. remaining) in
  if sleep > 0. then ignore (Unix.select [] [] [] sleep);
  sleep

let call_with_retry s (req : P.request) : P.reply =
  let deadline =
    Unix.gettimeofday () +. (float_of_int s.opts.budget_ms /. 1e3)
  in
  let idempotent = P.idempotent req.P.op in
  let may_retry attempt =
    idempotent && attempt < s.opts.retries
    && Unix.gettimeofday () < deadline
  in
  let rec go attempt prev_sleep =
    let outcome =
      match call (conn_of s) req with
      | reply -> `Reply reply
      | exception Disconnected msg ->
        (* the dead socket cannot carry the next attempt *)
        drop_conn s;
        `Dropped msg
    in
    match outcome with
    | `Reply ({ P.body = Ok _; _ } as reply) -> reply
    | `Reply ({ P.body = Error (code, msg); _ } as reply) ->
      if P.retryable code && may_retry attempt then begin
        count_retry s;
        let floor_ms =
          match P.retry_after_of_msg msg with
          | Some ms -> float_of_int ms
          | None -> 0.
        in
        let slept = backoff_sleep ~floor_ms s ~prev:prev_sleep ~deadline in
        go (attempt + 1) slept
      end
      else reply
    | `Dropped msg ->
      if may_retry attempt then begin
        count_retry s;
        let slept = backoff_sleep s ~prev:prev_sleep ~deadline in
        go (attempt + 1) slept
      end
      else raise (Disconnected msg)
  in
  go 0 0.
