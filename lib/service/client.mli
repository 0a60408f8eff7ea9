(** Blocking [icost.rpc.v1] client ([icost query] and the test suite).

    Speaks to a daemon over a Unix socket or TCP ({!Endpoint.addr}).
    {!call} writes one request line and blocks until its reply line
    arrives; {!pipeline} writes a whole window of requests before reading
    the replies positionally — correct because the server answers
    pipelined requests in request order.

    Two layers:

    - the bare connection ({!connect}/{!call}/{!close}) raises
      {!Disconnected} when the server drops the link mid-call;
    - the resilient {!session} layer wraps it with automatic reconnect
      and bounded retry ({!call_with_retry}): exponential backoff with
      decorrelated jitter, a wall-clock retry budget, and the rule that
      only idempotent operations on retryable errors are re-sent (see
      {!Protocol.idempotent} and {!Protocol.retryable} — [shutdown] is
      never retried). *)

type t

exception Disconnected of string
(** The connection died mid-conversation (EOF, [EPIPE], [ECONNRESET]).
    Distinct from [Failure] so retry machinery can tell a transport drop
    (reconnect and re-send) from a protocol error (give up). *)

val connect : ?retry_for:float -> socket:string -> unit -> t
(** Connect to the server's Unix socket.  [retry_for] (seconds, default
    [0.]) keeps retrying on connection failure with capped exponential
    backoff (10ms doubling to 250ms) — the standard way to wait for a
    daemon that was just forked to come up.
    @raise Failure when the socket cannot be connected in time; the
    message distinguishes a missing socket file ([ENOENT] — daemon not
    started or already exited) from a refused connection ([ECONNREFUSED]
    — stale socket file, no listener behind it). *)

val connect_addr : ?retry_for:float -> Endpoint.addr -> t
(** {!connect} generalized to either transport. *)

val call : t -> Protocol.request -> Protocol.reply
(** Send one request, wait for its reply.
    @raise Disconnected when the server closes or resets the connection.
    @raise Failure on an undecodable reply. *)

val send : t -> Protocol.request -> unit
(** Write one request without waiting for its reply (pipelining). *)

val recv : t -> Protocol.reply
(** Block for the next reply line.  With the server's in-order reply
    guarantee, the k-th {!recv} answers the k-th {!send}. *)

val pipeline : t -> Protocol.request list -> Protocol.reply list
(** Write the whole request window, then read its replies positionally
    ([List.nth replies k] answers [List.nth reqs k]). *)

val send_line : t -> string -> unit
(** Raw passthrough (the shard router forwarding frames verbatim):
    write [line ^ "\n"]. *)

val recv_line : t -> string
(** Raw passthrough: the next reply line, newline stripped.
    @raise Disconnected on EOF/reset. *)

val close : t -> unit

val with_client : ?retry_for:float -> socket:string -> (t -> 'a) -> 'a
(** [connect], run, [close] (also on exceptions). *)

val with_addr : ?retry_for:float -> Endpoint.addr -> (t -> 'a) -> 'a
(** {!with_client} generalized to either transport. *)

(** {1 Resilient sessions} *)

type retry_opts = {
  retries : int;  (** max re-sends per call (0 disables retrying) *)
  budget_ms : int;  (** wall-clock retry budget per call, milliseconds *)
  base_backoff_ms : float;  (** first backoff sleep *)
  max_backoff_ms : float;  (** backoff cap *)
}

val default_retry_opts : retry_opts
(** 2 retries, 5000ms budget, 25ms base backoff capped at 1000ms. *)

type session

val connect_session :
  ?opts:retry_opts -> ?retry_for:float -> socket:string -> unit -> session
(** Like {!connect}, plus the retry policy used by {!call_with_retry}. *)

val connect_session_addr :
  ?opts:retry_opts -> ?retry_for:float -> Endpoint.addr -> session
(** {!connect_session} generalized to either transport. *)

val call_with_retry : session -> Protocol.request -> Protocol.reply
(** {!call} with resilience: on a {!Disconnected} transport drop the
    session reconnects and re-sends; on a retryable error reply
    ({!Protocol.retryable}) it backs off (exponential, decorrelated
    jitter, clamped to the remaining budget) and re-sends.  Both paths
    consume one retry from [opts.retries] and stop when the budget
    elapses — the last reply (or {!Disconnected}) is then surfaced
    as-is.  Non-idempotent requests ([shutdown]) are never re-sent.
    @raise Disconnected when the transport drops and no retry remains. *)

val close_session : session -> unit

val session_retries : session -> int
(** Re-sends performed by this session so far.  Every session's re-sends
    are also counted process-wide in the [service.retries] telemetry
    counter, which feeds the run manifest. *)
