(** Shared accept loop and connection bookkeeping.

    Both the plain server and the shard router serve the same kind of
    endpoint set (a Unix socket, optionally a TCP listener) with the
    same connection discipline, so the machinery lives here once:

    - a [select]-driven accept loop over any number of listeners, woken
      by a self-pipe on stop;
    - a thread per connection, tracked while it runs (a finished
      connection drops its record) for join-at-shutdown;
    - bounded line reading (the icost.rpc.v1 request cap);
    - {b sequence-ordered reply writes}: the connection reader assigns
      each request a sequence number, and replies — produced inline or
      by worker threads finishing in any order — are parked until every
      earlier reply is on the wire.  This is what turns "pipelining" from
      "replies may arrive out of order, match by id" into the protocol's
      in-order guarantee.

    The transport-level fault points ([accept_reset], [conn_reset],
    [write_short]) are owned by this module. *)

type conn
(** One client connection.  Owned by its reader thread; written to by
    any thread through {!write_line}. *)

val conn_fd : conn -> Unix.file_descr

val next_seq : conn -> int
(** Allocate the next reply sequence number.  Call from the connection's
    reader thread only, exactly once per request line; every allocated
    sequence must eventually be passed to {!write_line} exactly once or
    later replies park forever. *)

val write_line : conn -> seq:int -> string -> unit
(** Queue one reply line (terminated by ['\n'] by the caller) for slot
    [seq].  Lines reach the wire strictly in sequence order; a line whose
    predecessors are still outstanding is parked.  Writes to a dead
    connection are discarded but still advance the sequence window. *)

val read_line_bounded :
  conn -> max:int -> [ `Line of string | `Too_long | `Eof ]
(** Read one ['\n']-terminated line, refusing to buffer more than [max]
    bytes while searching for the newline. *)

type t

val create : Endpoint.listener list -> t
(** Takes ownership of the listeners (closed when {!serve} returns). *)

val request_stop : t -> unit
(** Ask {!serve} to return; safe from signal handlers and any thread. *)

val stop_requested : t -> bool

val serve : t -> on_conn:(conn -> unit) -> unit
(** Accept until {!request_stop}; each connection runs [on_conn] on its
    own thread (the fd is closed when [on_conn] returns).  Closes the
    listeners — unlinking Unix socket files — before returning, so no
    new connections arrive while the caller drains. *)

val finish : t -> unit
(** Dismantle after {!serve} returned: shut down surviving connections,
    join their threads, close the self-pipe. *)
