module Fault = Icost_util.Fault

type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;  (* guards the wire, [parked], [wseq] and [alive] *)
  rbuf : Linebuf.t;  (* received bytes, split into lines on arrival *)
  scratch : bytes;  (* per-connection read chunk, reused across calls *)
  mutable alive : bool;
  mutable rseq : int;  (* next sequence the reader hands out *)
  mutable wseq : int;  (* next sequence to reach the wire *)
  parked : (int, string) Hashtbl.t;  (* replies waiting on predecessors *)
}

(* injection points for the transport seams; no-op single branches unless
   armed via ICOST_FAULTS / --faults *)
let fp_accept = Fault.point "accept_reset"
let fp_read = Fault.point "conn_reset"
let fp_write_short = Fault.point "write_short"

let conn_fd c = c.fd

(* Loop until the whole line is on the wire: [Unix.write_substring] may
   write fewer bytes than asked (and the [write_short] fault point forces
   exactly that), which used to truncate replies mid-line and desync the
   stream.  EINTR restarts the same write. *)
let write_all_fd fd (s : string) =
  let len = String.length s in
  let rec go off =
    if off < len then begin
      let remaining = len - off in
      let attempt =
        if Fault.fire fp_write_short then max 1 (remaining / 2) else remaining
      in
      match Unix.write_substring fd s off attempt with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    end
  in
  go 0

let next_seq c =
  let s = c.rseq in
  c.rseq <- s + 1;
  s

(* Park the line under its sequence slot, then flush every consecutive
   slot starting at [wseq].  Whichever thread completes the missing slot
   drains the run, so ordering needs no dedicated writer thread.  Dead
   connections keep consuming slots (dropping the bytes) so that replies
   parked behind them are reclaimed rather than leaked. *)
let write_line (c : conn) ~seq line =
  Mutex.lock c.wmutex;
  Hashtbl.replace c.parked seq line;
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt c.parked c.wseq with
    | None -> continue := false
    | Some l ->
      Hashtbl.remove c.parked c.wseq;
      c.wseq <- c.wseq + 1;
      if c.alive then (
        try write_all_fd c.fd l with Unix.Unix_error _ -> c.alive <- false)
  done;
  Mutex.unlock c.wmutex

(* Read one '\n'-terminated line, refusing to buffer more than [max]
   bytes of unterminated tail.  Completed lines are handed out before the
   size check and the check is strict, so a line of exactly [max] bytes
   always reaches the decoder (whose own bound is strict too); anything
   longer is rejected, either here as [`Too_long] or, when the
   terminating newline lands in the same read, by the decoder's own size
   message. *)
let read_line_bounded (c : conn) ~max:max_bytes :
    [ `Line of string | `Too_long | `Eof ] =
  let chunk = c.scratch in
  let rec loop () =
    match Linebuf.pop c.rbuf with
    | Some line -> `Line line
    | None ->
      if Linebuf.pending_bytes c.rbuf > max_bytes then `Too_long
      else if Fault.fire fp_read then `Eof (* injected connection reset *)
      else begin
        match Unix.read c.fd chunk 0 (Bytes.length chunk) with
        | 0 -> `Eof
        | n ->
          Linebuf.feed c.rbuf chunk ~len:n;
          loop ()
        | exception Unix.Unix_error ((Unix.EBADF | Unix.ECONNRESET), _, _) ->
          `Eof
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      end
  in
  loop ()

type t = {
  listeners : Endpoint.listener list;
  wake_r : Unix.file_descr;  (* self-pipe: any write wakes the accept loop *)
  wake_w : Unix.file_descr;
  stop : bool Atomic.t;
  conns_mutex : Mutex.t;
  conns : (int, conn * Thread.t) Hashtbl.t;  (* live connections, by id *)
  mutable next_id : int;
}

let create listeners =
  let wake_r, wake_w = Unix.pipe () in
  {
    listeners;
    wake_r;
    wake_w;
    stop = Atomic.make false;
    conns_mutex = Mutex.create ();
    conns = Hashtbl.create 16;
    next_id = 0;
  }

let request_stop t =
  if not (Atomic.exchange t.stop true) then
    (* the pipe write is the only async-signal-ish operation, safe from
       both signal handlers and connection threads *)
    try ignore (Unix.write_substring t.wake_w "x" 0 1) with _ -> ()

let stop_requested t = Atomic.get t.stop

let spawn_conn t fd on_conn =
  let c =
    {
      fd;
      wmutex = Mutex.create ();
      rbuf = Linebuf.create ();
      scratch = Bytes.create 16384;
      alive = true;
      rseq = 0;
      wseq = 0;
      parked = Hashtbl.create 8;
    }
  in
  (* the record is registered before its thread can finish, and the
     thread drops it on exit, so only live connections are kept *)
  Mutex.lock t.conns_mutex;
  let id = t.next_id in
  t.next_id <- id + 1;
  let th =
    Thread.create
      (fun () ->
        (try on_conn c with _ -> ());
        Mutex.lock c.wmutex;
        c.alive <- false;
        Mutex.unlock c.wmutex;
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        Mutex.lock t.conns_mutex;
        Hashtbl.remove t.conns id;
        Mutex.unlock t.conns_mutex)
      ()
  in
  Hashtbl.replace t.conns id (c, th);
  Mutex.unlock t.conns_mutex

let serve t ~on_conn =
  let lfds = List.map Endpoint.listener_fd t.listeners in
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      match Unix.select (t.wake_r :: lfds) [] [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, _, _ ->
        List.iter
          (fun lfd ->
            if List.mem lfd readable && not (Atomic.get t.stop) then
              match Unix.accept lfd with
              | fd, _ when Fault.fire fp_accept ->
                (* injected accept-time reset: drop the connection unserved *)
                (try Unix.close fd with Unix.Unix_error _ -> ())
              | fd, _ ->
                (* no-op on Unix sockets; on TCP, request/reply round
                   trips must not wait out Nagle *)
                (try Unix.setsockopt fd Unix.TCP_NODELAY true
                 with Unix.Unix_error _ -> ());
                spawn_conn t fd on_conn
              | exception Unix.Unix_error _ -> ())
          lfds;
        loop ()
    end
  in
  loop ();
  List.iter Endpoint.close_listener t.listeners

let finish t =
  Mutex.lock t.conns_mutex;
  let conns = Hashtbl.fold (fun _ ct acc -> ct :: acc) t.conns [] in
  Hashtbl.reset t.conns;
  Mutex.unlock t.conns_mutex;
  List.iter
    (fun ((c : conn), _) ->
      (* a blocked reader does not wake on [close] alone *)
      try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun (_, th) -> Thread.join th) conns;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
