(** Per-key circuit breaker for the analysis server.

    A request whose worker raises gets a typed [internal] reply, but a
    {e persistently} failing target (a workload/config whose build
    deterministically crashes, say) would otherwise burn a worker and a
    full cache rebuild on every retry.  The breaker cuts that loop:
    after [threshold] consecutive failures on one key the key {e trips
    open} and requests for it fail fast with [unavailable] — no queue
    slot, no worker — until [cooldown] seconds elapse.  The first
    request after the cooldown is the half-open trial: success closes
    the breaker, another failure re-opens it immediately (the
    consecutive-failure count is retained, not reset, by a trip).

    Keys are the server's session-cache keys, so the breaker's notion
    of "same target" matches the cache's.  The table is bounded: when
    more than a small cap of keys are tracked, the stalest entry is
    dropped (a dropped entry merely forgets failure history).

    Trips are counted in the [service.breaker_open] telemetry counter. *)

type t

val create : ?threshold:int -> ?cooldown:float -> unit -> t
(** [threshold] (default 3, clamped to >= 1): consecutive failures on a
    key that trip it open.  [cooldown] (default 5 s, clamped to >= 0):
    seconds a tripped key stays open. *)

val check : t -> string -> [ `Ok | `Open ]
(** [`Open] while the key is tripped and its cooldown has not elapsed.
    Never modifies failure counts. *)

val success : t -> string -> unit
(** Close the key and forget its failure history. *)

val failure : t -> string -> unit
(** Count one failure; trips the key open when the consecutive count
    reaches the threshold (and on every failure after that). *)

val open_count : t -> int
(** Keys currently open (cooldown not yet elapsed). *)

