(** Concurrent single-flight LRU cache for server sessions.

    The server keeps prepared workloads, memoized cost oracles, encoded
    frame results and priced sweep points in instances of this cache,
    keyed by strings derived from the request target (see
    [doc/protocol.md] for the exact key layout).  Two properties matter
    more than raw speed here:

    - {b single flight}: when N clients miss on the same key at once, the
      builder runs exactly once; the other N-1 block until the value is
      ready and then share it.  A builder that raises re-raises to its own
      caller and leaves the key absent, so waiters (and later requests)
      retry the build instead of inheriting a poisoned entry.
    - {b bounded size}: at most [cap] ready entries are retained; inserting
      past the cap evicts the least-recently-used ready entry (in-flight
      entries are never evicted).

    Every cache counts its hits, misses and evictions in
    {!Icost_util.Telemetry} counters ([service.cache.<name>.hits] etc.),
    which always record; {!stats} reads them back.  Caches that share a
    name share the counters. *)

type 'v t

val create : name:string -> cap:int -> 'v t
(** [cap] is clamped to >= 1.  [name] labels the telemetry counters. *)

val find_or_add : 'v t -> string -> (unit -> 'v) -> 'v
(** Return the cached value for the key, building it with the thunk on a
    miss.  The thunk runs outside the cache lock; concurrent callers on
    the same key wait for it rather than re-running it.  The build is an
    {!Icost_util.Fault} injection point named [cache_build.<name>]: when
    armed, the builder raises [Fault.Injected] instead of running. *)

val find_opt : 'v t -> string -> 'v option
(** Look the key up without building: a ready entry counts a hit (and
    refreshes its LRU stamp), anything else a miss.  Never inserts and
    never waits on an in-flight build. *)

val add : 'v t -> string -> 'v -> unit
(** Insert a ready value under the LRU cap without counting a lookup.
    A key that already holds a value keeps it (its stamp is refreshed);
    a key whose build is in flight is left to its builder. *)

val remove : 'v t -> string -> bool
(** Drop the key's entry if it is resolved (ready or failed); in-flight
    builds are left alone.  Used by the server's per-request supervision
    to evict a session whose analysis raised.  Returns whether an entry
    was dropped. *)

val trim : 'v t -> keep:int -> int
(** Evict coldest-first until at most [keep] ready entries remain (the
    graceful-degradation shedding path); returns the count shed, which
    is also added to the eviction counter. *)

val length : 'v t -> int
(** Ready entries currently held. *)

type stats = { hits : int; misses : int; evictions : int }

val stats : ?since:(string * int) list -> 'v t -> stats
(** The counters' growth since the {!Icost_util.Telemetry.counters}
    snapshot [since] (default: process start). *)
