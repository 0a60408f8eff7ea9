(** The microexecution dependence-graph model (Tables 2 and 3 of the paper).

    Each dynamic instruction contributes five nodes — [D]ispatch, [R]eady,
    [E]xecute, com[P]lete, [C]ommit — connected by latency-labelled
    dependence edges (see {!edge_kind}).  Edge latencies are decomposed by
    owning {!Icost_core.Category}, so idealizing a category set is a pure
    re-evaluation of the graph: owned components contribute zero and some
    edges (PD, CD, FBW, CBW, PP) disappear entirely. *)

module Category = Icost_core.Category

type node_kind = D | R | E | P | C

val node_kinds : node_kind array
val kind_index : node_kind -> int
val kind_name : node_kind -> string

(** The twelve edge kinds of Table 3. *)
type edge_kind =
  | DD  (** in-order dispatch (+ I-cache miss latency) *)
  | FBW  (** finite fetch bandwidth (incl. the taken-branch limit) *)
  | CD  (** finite re-order buffer *)
  | PD  (** control dependence after a mispredicted branch *)
  | DR  (** execution follows dispatch *)
  | PR  (** data dependences (register and memory) *)
  | RE  (** execute after ready (+ contention) *)
  | EP  (** complete after execute (execution latency) *)
  | PP  (** cache-line sharing between loads *)
  | PC  (** commit follows completion *)
  | CC  (** in-order commit (+ store bandwidth) *)
  | CBW  (** commit bandwidth *)

val edge_kind_name : edge_kind -> string

(** A latency component owned by a category: idealizing the category
    zeroes the component. *)
type component = { cat : Category.t; lat : int }

(** One edge, as a record built on demand from the flat arrays (see
    {!edge}); the graph itself stores no records. *)
type edge = {
  src : int;  (** node id *)
  dst : int;
  kind : edge_kind;
  base : int;  (** latency no idealization removes *)
  components : component list;
  removed_by : Category.t option;
      (** the edge (constraint included) disappears when this category is
          idealized *)
}

type t
(** A finished graph, held once, in flat arrays: a CSR index of each
    node's in-edges; per edge its source, kind, base latency, removal
    category and slice of category-owned components; node-sorted floors
    (minimum arrival times for nodes whose stall has no incoming edge to
    ride on, e.g. the first instruction's I-cache miss); and a certified
    latency bound that lets {!eval_slices} pack lanes.  Every query reads
    these arrays; the allocation-free paths ({!eval_into},
    {!eval_subsets}, {!eval_lanes_pinned}) read nothing else. *)

val num_instrs : t -> int
val num_nodes : t -> int
val num_edges : t -> int

val node : seq:int -> kind:node_kind -> int
(** Node id of instruction [seq]'s [kind] node. *)

val seq_of_node : int -> int
val kind_of_node : int -> node_kind
val node_name : int -> string

val edge : t -> int -> edge
(** [edge g k] is the [k]th edge in CSR order (the in-edges of node 0,
    then of node 1, ...; each node's in-edges in reverse emission order),
    [0 <= k < num_edges g].  Builds a fresh record: for inspection, not for
    inner loops.
    @raise Invalid_argument when [k] is out of range. *)

(** Incremental construction; see {!Build} for the high-level entry
    points. *)
module Builder : sig
  type b

  val create : unit -> b
  val note_instr : b -> unit

  val add_edge :
    b ->
    src:int ->
    dst:int ->
    kind:edge_kind ->
    ?base:int ->
    ?components:component list ->
    ?removed_by:Category.t ->
    unit ->
    unit
  (** Edges must point forward ([src < dst]); node order is then a
      topological order. *)

  val add_floor : b -> node:int -> base:int -> components:component list -> unit

  val finish : b -> t
  (** Counting-sort the appended edges by destination straight into the
      graph's arrays. *)
end

val marshal : t -> string
(** Byte image for snapshotting: a [Marshal] of the flat arrays, which
    decode as a handful of large blocks. *)

val unmarshal : string -> t
(** Inverse of {!marshal}.  Checks the image's shape (array lengths
    against the node and edge counts, offsets inside their arrays,
    sources before destinations, singleton category masks).
    @raise Failure on malformed bytes.  Callers must authenticate the
    bytes first (e.g. a digest check) — this is not hardened against
    adversarial input. *)

val eval : ?ideal:Category.Set.t -> ?override:(edge -> int option) -> t -> int array
(** Arrival time of every node under the idealization (default none), in
    one topological pass.  [override] may replace an edge's latency
    ([None] keeps the idealized latency), enabling finer what-if queries
    than category idealization; it sees every edge once, removed ones
    included, in {!edge} order. *)

val eval_into : ?ideal:Category.Set.t -> t -> int array -> unit
(** Like {!eval}, but fills a caller-provided scratch buffer (length >=
    {!num_nodes}), allocating nothing.
    Use for repeated what-if queries over one graph.
    @raise Invalid_argument if the buffer is too short. *)

val critical_length : ?ideal:Category.Set.t -> ?override:(edge -> int option) -> t -> int
(** Arrival of the last C node plus one retire cycle: the modeled
    execution time. *)

val eval_subsets : t -> Category.Set.t array -> int array
(** [eval_subsets t sets] is [Array.map (fun s -> critical_length ~ideal:s t) sets],
    computed bit-sliced ({!eval_slices} with the default lane count): each
    pass over the edge arrays prices up to {!max_lanes} subsets at
    once, so a 256-subset sweep is 4 edge-array streams instead of 256.
    Bit-identical to {!eval_subsets_scalar} (checked by the
    [sliced-eval-exact] conformance law). *)

val eval_subsets_scalar : t -> Category.Set.t array -> int array
(** Reference implementation: one full scalar {!eval_into} pass per
    subset, with one reusable buffer per {!Icost_util.Pool} job, fanned
    out across the pool.  Kept as the differential oracle for the sliced
    path. *)

val max_lanes : int
(** Maximum subsets priced per bit-sliced pass (64): lanes live in one
    node-major int slab, and 64 keeps a full-width pass's per-node working
    set within a cache line budget while already amortizing the edge
    stream 64-fold. *)

val eval_slices : ?lanes:int -> t -> Category.Set.t array -> int array
(** [eval_slices ?lanes t sets]: bit-sliced subset sweep with an explicit
    lane count (clamped to 1..{!max_lanes}; default {!max_lanes}).  Per
    lane the max-plus recurrence is identical to the scalar pass, so the
    result is invariant under [lanes] and the pool job count. *)

val eval_lanes_pinned :
  t ->
  Category.Set.t array ->
  lo:int ->
  nl:int ->
  n_pinned:int ->
  pinned:int array ->
  pin_stride:int ->
  ext_floors:(int * int array) array ->
  latbuf:int array ->
  lset:int array ->
  ktab:int array array ->
  slab:int array ->
  unit
(** The unpacked bit-sliced lane kernel, shared by streaming segment
    fragments and by {!eval_slices} on whole graphs whose latency bound
    rules out SWAR packing (the case [n_pinned = 0] with no floors; the
    sweep reads the sink's Commit row out of [slab]).  The first
    [n_pinned] nodes are boundary nodes loaded verbatim from [pinned]
    (node-major, stride [pin_stride], lane offset [lo]) instead of
    evaluated, and [ext_floors] (sorted by node, rows offset by [lo])
    injects per-lane lower bounds for producers older than the pinned
    prefix.  Evaluates lanes [sets.(lo) .. sets.(lo + nl - 1)]
    ([nl <= max_lanes]) into the caller's [slab] (node-major, stride
    [nl]); no result row is written elsewhere, so the caller reads what it
    needs (the sink row, or the next segment's boundary carries) from
    the slab.  [latbuf]/[lset] are scratch of length >= [nl];
    [ktab] must have 256 rows of length >= [nl] with row 0 all [-1].
    Since every edge satisfies [src < dst], continuing the recurrence from
    pinned absolute times is exactly the monolithic evaluation restarted
    mid-graph (bit-exact). *)

val cost_of_edges : ?ideal:Category.Set.t -> t -> (edge -> bool) -> int
(** Speedup from zeroing every matching edge (Tune et al.). *)

val instr_cost : ?ideal:Category.Set.t -> t -> seq:int -> int
(** Cost of one dynamic instruction's execution latency (its EP edge). *)

val slacks : ?ideal:Category.Set.t -> t -> int array
(** Per-node slack: how much later the node could arrive without growing
    the critical path ([max_int] for nodes with no path to the sink). *)

val critical_path : ?ideal:Category.Set.t -> t -> (int * edge_kind option) list
(** One critical path, source first; each element pairs a node with the
    kind of the edge taken {e into} it ([None] at the source). *)

val edge_histogram : t -> (edge_kind, int) Hashtbl.t
val to_dot : ?ideal:Category.Set.t -> t -> string
(** Graphviz rendering (small graphs); critical-path edges drawn bold. *)

val pp_small : Format.formatter -> ?ideal:Category.Set.t -> t -> unit
(** Compact text rendering: node times per instruction, then the edges. *)
