(** The microexecution dependence-graph model (Tables 2 and 3 of the paper).

    Each dynamic instruction contributes five nodes:

    - [D]: dispatch into the window
    - [R]: all data operands ready, waiting on a functional unit
    - [E]: executing
    - [P]: completed execution
    - [C]: committing

    and up to twelve kinds of latency-labelled dependence edges:

    {v
    DD   in-order dispatch            D(i-1)   -> D(i)   (+ I-cache miss latency)
    FBW  finite fetch bandwidth       D(i-fbw) -> D(i)   latency 1
    CD   finite re-order buffer       C(i-w)   -> D(i)
    PD   control dependence           P(i-1)   -> D(i)   (mispredicted branch; recovery latency)
    DR   execution follows dispatch   D(i)     -> R(i)
    PR   data dependences             P(j)     -> R(i)   (register and memory)
    RE   execute after ready          R(i)     -> E(i)   (+ FU contention)
    EP   complete after execute       E(i)     -> P(i)   (execution latency)
    PP   cache-line sharing           P(j)     -> P(i)   (partial misses)
    PC   commit follows completion    P(i)     -> C(i)
    CC   in-order commit              C(i-1)   -> C(i)
    CBW  commit bandwidth             C(i-cbw) -> C(i)   latency 1
    v}

    Edge latencies are stored *decomposed by category* so that idealizing a
    set of categories is a pure re-evaluation: components owned by an
    idealized category contribute zero, and some edges (PD, CD, FBW, CBW,
    PP) disappear entirely when their owning category is idealized.  This is
    the "alter a bottleneck's edges" methodology of Section 3. *)

module Category = Icost_core.Category
module Telemetry = Icost_util.Telemetry

type node_kind = D | R | E | P | C

let node_kinds = [| D; R; E; P; C |]

let kind_index = function D -> 0 | R -> 1 | E -> 2 | P -> 3 | C -> 4

let kind_name = function D -> "D" | R -> "R" | E -> "E" | P -> "P" | C -> "C"

type edge_kind = DD | FBW | CD | PD | DR | PR | RE | EP | PP | PC | CC | CBW

let edge_kind_name = function
  | DD -> "DD"
  | FBW -> "FBW"
  | CD -> "CD"
  | PD -> "PD"
  | DR -> "DR"
  | PR -> "PR"
  | RE -> "RE"
  | EP -> "EP"
  | PP -> "PP"
  | PC -> "PC"
  | CC -> "CC"
  | CBW -> "CBW"

(** A latency component owned by a category: idealizing the category zeroes
    the component. *)
type component = { cat : Category.t; lat : int }

type edge = {
  src : int;  (** node id *)
  dst : int;
  kind : edge_kind;
  base : int;  (** latency that no idealization removes *)
  components : component list;
  removed_by : Category.t option;
      (** the whole edge (constraint included) disappears when this category
          is idealized *)
}

(* The graph in flat arrays, the one form every query reads.  Edges are in
   CSR order: the in-edges of node [v] are [first_in.(v) .. first_in.(v+1)
   - 1].  Per edge there is a source node, a kind, a base latency, a removal
   mask (0 when no category removes the edge) and a slice
   [e_comp_off.(k) .. e_comp_off.(k+1) - 1] of (category mask, latency)
   components.  Floors (minimum arrival times for nodes whose stall has no
   incoming edge to ride on, e.g. the first instruction's I-cache miss) are
   sorted by node, so one forward cursor applies them; their components sit
   in the same component arrays after the edges'.  Category sets are
   bitmasks ({!Category.Set.t} = [int]), so membership tests in the inner
   loops are single [land]s. *)
type t = {
  num_instrs : int;
  first_in : int array;  (** [5 * num_instrs + 1] CSR offsets *)
  e_src : int array;
  e_kind : edge_kind array;
  e_base : int array;
  e_removed : int array;  (** singleton category mask, or 0 *)
  e_comp_off : int array;  (** [num_edges + 1] offsets into [comp_*] *)
  comp_mask : int array;  (** singleton category mask *)
  comp_lat : int array;
  f_node : int array;  (** floors, sorted by node *)
  f_base : int array;
  f_off : int array;  (** [num_floors + 1] offsets into [comp_*] *)
  lat_bound : int;
      (** sound upper bound on any node arrival time under any idealization
          (sum over nodes of the max full incoming latency, plus all floor
          latencies), or [-1] when some latency is negative.  Lets the
          sliced evaluator prove that packed lane fields cannot overflow. *)
}

let num_instrs t = t.num_instrs

let num_nodes t = 5 * t.num_instrs

let num_edges t = Array.length t.e_src

let node ~seq ~kind = (5 * seq) + kind_index kind

let seq_of_node v = v / 5

let kind_of_node v = node_kinds.(v mod 5)

let node_name v = Printf.sprintf "%s%d" (kind_name (kind_of_node v)) (seq_of_node v)

let cat_mask (c : Category.t) : int = Category.Set.singleton c

let cat_of_mask m = List.hd (Category.Set.to_list m)

(* [base] plus the components [lo .. hi - 1] that [s] does not idealize. *)
let span_latency t (s : Category.Set.t) base lo hi =
  let lat = ref base in
  for j = lo to hi - 1 do
    if t.comp_mask.(j) land s = 0 then lat := !lat + t.comp_lat.(j)
  done;
  !lat

(* Effective latency of edge [k] under [s]; [None] if [s] removes it. *)
let latency t (s : Category.Set.t) k =
  if t.e_removed.(k) land s <> 0 then None
  else Some (span_latency t s t.e_base.(k) t.e_comp_off.(k) t.e_comp_off.(k + 1))

let edge_at t ~dst k =
  let comps = ref [] in
  for j = t.e_comp_off.(k + 1) - 1 downto t.e_comp_off.(k) do
    comps := { cat = cat_of_mask t.comp_mask.(j); lat = t.comp_lat.(j) } :: !comps
  done;
  {
    src = t.e_src.(k);
    dst;
    kind = t.e_kind.(k);
    base = t.e_base.(k);
    components = !comps;
    removed_by =
      (if t.e_removed.(k) = 0 then None else Some (cat_of_mask t.e_removed.(k)));
  }

let edge t k =
  if k < 0 || k >= num_edges t then invalid_arg "Graph.edge";
  (* the destination is the node whose CSR range holds [k] *)
  let lo = ref 0 and hi = ref (num_nodes t) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.first_in.(mid) <= k then lo := mid else hi := mid
  done;
  edge_at t ~dst:!lo k

(* ---------- building ---------- *)

module Builder = struct
  (* Edges in emission order, in chunks of [slots] edges: edge [i] is slot
     [i land (slots - 1)] of chunk [i lsr bits].  Growing never copies an
     edge.  A chunk's arrays are small blocks, allocated young and, once
     promoted, kept in the major heap's size-class pools: large blocks
     (whole doubled arrays, or chunks of 128 slots or more) leave garbage
     that raised the peak heap of graph-heavy runs by ~10%. *)
  let bits = 6
  let slots = 1 lsl bits

  type chunk = {
    src : int array;
    dst : int array;
    kind : edge_kind array;
    base : int array;
    removed : int array;  (* singleton category mask, or 0 *)
    comps : component list array;
  }

  type b = {
    mutable n_instrs : int;
    mutable ne : int;
    mutable chunks : chunk array;  (* doubled as it fills *)
    mutable floors : (int * int * component list) list;
  }

  let create () = { n_instrs = 0; ne = 0; chunks = [||]; floors = [] }

  (** Constrain [node] to arrive no earlier than [base] plus the (category
      owned) components. *)
  let add_floor b ~node ~base ~components =
    b.floors <- (node, base, components) :: b.floors

  let add_edge b ~src ~dst ~kind ?(base = 0) ?(components = []) ?removed_by () =
    assert (src < dst);
    let ci = b.ne lsr bits and o = b.ne land (slots - 1) in
    if o = 0 then begin
      let c =
        {
          src = Array.make slots 0;
          dst = Array.make slots 0;
          kind = Array.make slots DD;
          base = Array.make slots 0;
          removed = Array.make slots 0;
          comps = Array.make slots [];
        }
      in
      if ci = Array.length b.chunks then
        b.chunks <- Array.append b.chunks (Array.make (max 8 ci) c)
      else b.chunks.(ci) <- c
    end;
    let c = b.chunks.(ci) in
    c.src.(o) <- src;
    c.dst.(o) <- dst;
    c.kind.(o) <- kind;
    c.base.(o) <- base;
    c.removed.(o) <- (match removed_by with None -> 0 | Some c -> cat_mask c);
    c.comps.(o) <- components;
    b.ne <- b.ne + 1

  let note_instr b = b.n_instrs <- b.n_instrs + 1

  let c_graphs = Telemetry.counter "graph.finished"
  let c_nodes = Telemetry.counter "graph.nodes"
  let c_edges = Telemetry.counter "graph.edges"
  let c_components = Telemetry.counter "graph.edge_components"

  (** Counting-sort the edges by destination into CSR order, flattening
      each edge's components next to it, and sort the floors by node. *)
  let finish b : t =
    let sp = Telemetry.start_span "graph.compile" in
    let num_instrs = b.n_instrs in
    let n = 5 * num_instrs and ne = b.ne in
    let dst i = b.chunks.(i lsr bits).dst.(i land (slots - 1)) in
    let first_in = Array.make (n + 1) 0 in
    let nc = ref 0 in
    for i = 0 to ne - 1 do
      let c = b.chunks.(i lsr bits) and o = i land (slots - 1) in
      first_in.(c.dst.(o) + 1) <- first_in.(c.dst.(o) + 1) + 1;
      nc := !nc + List.length c.comps.(o)
    done;
    for v = 1 to n do
      first_in.(v) <- first_in.(v) + first_in.(v - 1)
    done;
    (* newest edge first, so each node's in-edges sit in reverse emission
       order (the order critical-path ties and renderings follow) *)
    let cursor = Array.sub first_in 0 n in
    let perm = Array.make ne 0 in
    for i = ne - 1 downto 0 do
      let d = dst i in
      perm.(cursor.(d)) <- i;
      cursor.(d) <- cursor.(d) + 1
    done;
    let floors =
      List.stable_sort (fun (a, _, _) (b, _, _) -> compare (a : int) b) b.floors
    in
    let nf = List.length floors in
    let nc =
      List.fold_left (fun acc (_, _, cs) -> acc + List.length cs) !nc floors
    in
    let e_src = Array.make ne 0
    and e_kind = Array.make ne DD
    and e_base = Array.make ne 0
    and e_removed = Array.make ne 0
    and e_comp_off = Array.make (ne + 1) 0
    and comp_mask = Array.make nc 0
    and comp_lat = Array.make nc 0 in
    (* a longest path visits nodes in topological order, so its length is
       at most the sum over nodes of the largest full (no idealization)
       incoming latency; floors only raise a node to a fixed value, so
       adding their totals keeps the bound sound.  Negative latencies break
       both the bound and the packed evaluator's non-negativity invariant,
       so they poison the bound to -1. *)
    let neg = ref false and bound = ref 0 in
    let j = ref 0 in
    let add_comp acc { cat; lat } =
      if lat < 0 then neg := true;
      comp_mask.(!j) <- cat_mask cat;
      comp_lat.(!j) <- lat;
      incr j;
      acc + lat
    in
    for v = 0 to n - 1 do
      let vmax = ref 0 in
      for k = first_in.(v) to first_in.(v + 1) - 1 do
        let i = perm.(k) in
        let c = b.chunks.(i lsr bits) and o = i land (slots - 1) in
        e_src.(k) <- c.src.(o);
        e_kind.(k) <- c.kind.(o);
        e_base.(k) <- c.base.(o);
        e_removed.(k) <- c.removed.(o);
        e_comp_off.(k) <- !j;
        if c.base.(o) < 0 then neg := true;
        let full = List.fold_left add_comp c.base.(o) c.comps.(o) in
        if full > !vmax then vmax := full
      done;
      bound := !bound + !vmax
    done;
    e_comp_off.(ne) <- !j;
    let f_node = Array.make nf 0
    and f_base = Array.make nf 0
    and f_off = Array.make (nf + 1) !j in
    List.iteri
      (fun i (node, base, cs) ->
        f_node.(i) <- node;
        f_base.(i) <- base;
        f_off.(i) <- !j;
        if base < 0 then neg := true;
        bound := List.fold_left add_comp (!bound + base) cs)
      floors;
    f_off.(nf) <- !j;
    Telemetry.incr c_graphs;
    Telemetry.add c_nodes n;
    Telemetry.add c_edges ne;
    Telemetry.add c_components e_comp_off.(ne);
    if Telemetry.enabled () then
      Telemetry.end_span sp
        ~attrs:
          [ ("instrs", string_of_int num_instrs); ("edges", string_of_int ne) ]
    else Telemetry.end_span sp;
    {
      num_instrs;
      first_in;
      e_src;
      e_kind;
      e_base;
      e_removed;
      e_comp_off;
      comp_mask;
      comp_lat;
      f_node;
      f_base;
      f_off;
      lat_bound = (if !neg then -1 else !bound);
    }
end

(* ---------- serialization ---------- *)

let marshal (g : t) : string = Marshal.to_string g []

let unmarshal (s : string) : t =
  let bad () = failwith "Graph.unmarshal: malformed bytes" in
  let t =
    try (Marshal.from_string s 0 : t)
    with Failure _ | Invalid_argument _ -> bad ()
  in
  let n = num_nodes t and ne = num_edges t and nf = Array.length t.f_node in
  let nc = Array.length t.comp_mask in
  let rec sorted a i =
    i >= Array.length a || (a.(i - 1) <= a.(i) && sorted a (i + 1))
  in
  (* [a] is [len] non-decreasing offsets running from [lo] to [hi] *)
  let offsets a ~len ~lo ~hi =
    Array.length a = len && a.(0) = lo && a.(len - 1) = hi && sorted a 1
  in
  let singleton m = m > 0 && m land (m - 1) = 0 && m <= Category.Set.full in
  let ok =
    try
      t.num_instrs >= 0
      && offsets t.first_in ~len:(n + 1) ~lo:0 ~hi:ne
      && Array.length t.e_kind = ne
      && Array.length t.e_base = ne
      && Array.length t.e_removed = ne
      && Array.length t.comp_lat = nc
      && Array.length t.f_base = nf
      && offsets t.f_off ~len:(nf + 1) ~lo:t.f_off.(0) ~hi:nc
      && offsets t.e_comp_off ~len:(ne + 1) ~lo:0 ~hi:t.f_off.(0)
      && Array.for_all singleton t.comp_mask
      && Array.for_all (fun m -> m = 0 || singleton m) t.e_removed
      && sorted t.f_node 1
      && Array.for_all (fun v -> v >= 0 && v < n) t.f_node
      && (let ok = ref true in
          (* every source precedes its destination *)
          for v = 0 to n - 1 do
            for k = t.first_in.(v) to t.first_in.(v + 1) - 1 do
              if t.e_src.(k) < 0 || t.e_src.(k) >= v then ok := false
            done
          done;
          !ok)
    with Invalid_argument _ -> false
  in
  if ok then t else bad ()

(* ---------- evaluation ---------- *)

(* Override evaluation: builds each edge's record so [override] can
   inspect it, otherwise the same pass as {!eval_into}. *)
let eval_generic ~(ideal : Category.Set.t) ~(override : edge -> int option)
    (t : t) : int array =
  let n = num_nodes t in
  let time = Array.make n 0 in
  let nf = Array.length t.f_node in
  let fi = ref 0 in
  for v = 0 to n - 1 do
    let best = ref 0 in
    for k = t.first_in.(v) to t.first_in.(v + 1) - 1 do
      let lat =
        match override (edge_at t ~dst:v k) with
        | Some l -> Some l
        | None -> latency t ideal k
      in
      match lat with
      | None -> ()
      | Some lat ->
        let cand = time.(t.e_src.(k)) + lat in
        if cand > !best then best := cand
    done;
    while !fi < nf && t.f_node.(!fi) = v do
      let lat = span_latency t ideal t.f_base.(!fi) t.f_off.(!fi) t.f_off.(!fi + 1) in
      if lat > !best then best := lat;
      incr fi
    done;
    time.(v) <- !best
  done;
  time

(** [eval_into ?ideal t time] fills [time] (length >= [num_nodes t]) with
    the arrival time of every node under the idealization, in one
    topological pass over the flat arrays, allocating nothing.  The
    inner loop is the hot path of every graph-backed cost query: a subset
    sweep calls it once per category subset on one scratch buffer. *)
let c_evals = Telemetry.counter "graph.evals"

let eval_into ?(ideal = Category.Set.empty) (t : t) (time : int array) : unit =
  let n = num_nodes t in
  if Array.length time < n then invalid_arg "Graph.eval_into: buffer too short";
  (* one atomic add; keeps this path allocation-free *)
  Telemetry.incr c_evals;
  let s : int = ideal in
  let nf = Array.length t.f_node in
  let fi = ref 0 in
  for v = 0 to n - 1 do
    let best = ref 0 in
    let hi = t.first_in.(v + 1) in
    for k = t.first_in.(v) to hi - 1 do
      if t.e_removed.(k) land s = 0 then begin
        let lat = ref t.e_base.(k) in
        for j = t.e_comp_off.(k) to t.e_comp_off.(k + 1) - 1 do
          if t.comp_mask.(j) land s = 0 then lat := !lat + t.comp_lat.(j)
        done;
        let cand = time.(t.e_src.(k)) + !lat in
        if cand > !best then best := cand
      end
    done;
    while !fi < nf && t.f_node.(!fi) = v do
      let lat = ref t.f_base.(!fi) in
      for j = t.f_off.(!fi) to t.f_off.(!fi + 1) - 1 do
        if t.comp_mask.(j) land s = 0 then lat := !lat + t.comp_lat.(j)
      done;
      if !lat > !best then best := !lat;
      incr fi
    done;
    time.(v) <- !best
  done

(** [eval ?ideal ?override t] computes the arrival time of every node under
    the given idealization (default: none), in one topological pass.  All
    edges point forward in node order, so node order is a topological
    order.  [override], when given, may replace an edge's latency
    (returning [None] leaves the idealized latency in force); it enables
    finer-grained what-if queries than category idealization, e.g. zeroing
    a single instruction's execution latency (Tune et al.'s per-instruction
    cost).  Without an override the query is {!eval_into}. *)
let eval ?(ideal = Category.Set.empty) ?override (t : t) : int array =
  match override with
  | Some override -> eval_generic ~ideal ~override t
  | None ->
    let time = Array.make (num_nodes t) 0 in
    eval_into ~ideal t time;
    time

(** Critical-path length: arrival time of the last C node (plus one cycle to
    retire it), i.e. the modeled execution time. *)
let critical_length ?ideal ?override (t : t) : int =
  if t.num_instrs = 0 then 0
  else
    let time = eval ?ideal ?override t in
    time.(node ~seq:(t.num_instrs - 1) ~kind:C) + 1

(** [eval_subsets_scalar t sets] computes {!critical_length} under every
    idealization in [sets] with one full scalar graph pass per subset,
    sweeping the graph with one scratch buffer per pool job (zero
    per-query allocation) and fanning the sweep out across the domain
    pool.  Results are index-aligned with [sets].  This is the reference
    implementation the bit-sliced {!eval_subsets} is checked against (the
    [sliced-eval-exact] conformance law) and the fallback oracle for
    differential debugging. *)
let eval_subsets_scalar (t : t) (sets : Category.Set.t array) : int array =
  let m = Array.length sets in
  let out = Array.make m 0 in
  if t.num_instrs > 0 && m > 0 then begin
    let sp = Telemetry.start_span "graph.eval_subsets_scalar" in
    let sink = node ~seq:(t.num_instrs - 1) ~kind:C in
    Icost_util.Pool.parallel_chunks m (fun ~lo ~hi ->
        let buf = Array.make (num_nodes t) 0 in
        for i = lo to hi - 1 do
          eval_into ~ideal:sets.(i) t buf;
          out.(i) <- buf.(sink) + 1
        done);
    if Telemetry.enabled () then
      Telemetry.end_span sp ~attrs:[ ("sets", string_of_int m) ]
    else Telemetry.end_span sp
  end;
  out

(* ---------- bit-sliced evaluation ---------- *)

let max_lanes = 64

let c_sliced = Telemetry.counter "graph.sliced_evals"

(* The unpacked lane kernel: one bit-sliced topological pass pricing [nl]
   subsets ([sets.(lo) .. sets.(lo + nl - 1)]) at once.  [slab] holds the
   arrival-time vector of every node, node-major with stride [nl] (lane
   [l] of node [v] lives at [slab.(v * nl + l)]); [latbuf] and [lset] are
   per-pass scratch of length >= [nl].  The caller reads whatever rows it
   needs out of [slab]: the sink's C row for a whole graph, or the next
   segment's carries for a streaming fragment.

   Each lane runs exactly the max-plus recurrence of {!eval_into} — the
   same edges in the same order with the same integer latencies — so per
   lane the result is identical to a scalar pass by construction.  All
   per-lane decisions are made branch-free: [ktab.(mask)] is a per-chunk
   row of keep masks, [-1] in lane [l] when [mask] is NOT idealized in
   that lane (the component contributes / the edge survives) and [0]
   when it is, so component sums become [d land row.(l)] accumulations
   and removal becomes an [land] on the candidate delta.  The max-plus
   update itself is the branch-free
   [cur + (d land lnot (d asr 62))] (adds [d] only when positive, i.e.
   [max cur (cur + d)] on 63-bit ints), because the taken/not-taken
   pattern of a compare-and-store max is data-dependent noise that
   mispredicts; removing it is what lets a lane update retire in a few
   ALU ops.  [ktab] only needs rows for masks the builder emits:
   singleton category masks ([Builder.add_edge] makes every component and
   removal mask with [cat_mask]) plus row 0 (all [-1]) for
   never-removed edges.

   Segment fragments additionally pin a prefix: the first [n_pinned]
   nodes are boundary nodes whose per-lane arrival times were computed by
   the previous segment and are loaded verbatim instead of evaluated
   (their in-edge lists are empty by construction), and [ext_floors]
   injects per-lane lower bounds for edges whose source fell off the
   pinned prefix (register/store/line producers older than the boundary).
   Because every edge satisfies [src < dst], continuing the max-plus
   recurrence from pinned absolute times is exactly the monolithic
   evaluation restarted mid-graph — streaming is bit-exact, not
   approximate.  A whole graph is the case [n_pinned = 0] with no floors.

   [pinned] is node-major with stride [pin_stride] and lane offset [lo]
   (so carries can be stored once for all 256 subsets and evaluated in
   32-lane chunks); [ext_floors] rows use the same [lo] offset and must be
   sorted by node. *)
let eval_lanes_pinned (t : t) (sets : Category.Set.t array) ~lo ~nl
    ~(n_pinned : int) ~(pinned : int array) ~(pin_stride : int)
    ~(ext_floors : (int * int array) array) ~(latbuf : int array)
    ~(lset : int array) ~(ktab : int array array) ~(slab : int array) : unit =
  let n = num_nodes t in
  let nf = Array.length t.f_node in
  for l = 0 to nl - 1 do
    lset.(l) <- sets.(lo + l)
  done;
  for ci = 0 to Category.count - 1 do
    let mask = 1 lsl ci in
    let row = ktab.(mask) in
    for l = 0 to nl - 1 do
      row.(l) <- (if mask land lset.(l) = 0 then -1 else 0)
    done
  done;
  for v = 0 to n_pinned - 1 do
    let boff = v * nl and poff = (v * pin_stride) + lo in
    for l = 0 to nl - 1 do
      Array.unsafe_set slab (boff + l) (Array.unsafe_get pinned (poff + l))
    done
  done;
  let fi = ref 0 in
  while !fi < nf && t.f_node.(!fi) < n_pinned do incr fi done;
  let nef = Array.length ext_floors in
  let efi = ref 0 in
  while !efi < nef && fst ext_floors.(!efi) < n_pinned do incr efi done;
  for v = n_pinned to n - 1 do
    (* node [v]'s lane vector is maximized in place in the slab; no edge
       is a self-loop (src < dst), so reads of [soff + l] never alias it *)
    let boff = v * nl in
    (* manual zeroing: [Array.fill] is a C call, too heavy per node *)
    for l = 0 to nl - 1 do
      Array.unsafe_set slab (boff + l) 0
    done;
    let hi = t.first_in.(v + 1) in
    for k = t.first_in.(v) to hi - 1 do
      let rm = Array.unsafe_get t.e_removed k in
      let base = Array.unsafe_get t.e_base k in
      let o0 = Array.unsafe_get t.e_comp_off k in
      let o1 = Array.unsafe_get t.e_comp_off (k + 1) in
      let soff = Array.unsafe_get t.e_src k * nl in
      if o0 = o1 then
        if rm = 0 then
          (* latency identical in every lane: pure streaming max *)
          for l = 0 to nl - 1 do
            let cur = Array.unsafe_get slab (boff + l) in
            let d = Array.unsafe_get slab (soff + l) + base - cur in
            Array.unsafe_set slab (boff + l) (cur + (d land lnot (d asr 62)))
          done
        else begin
          (* removable, constant latency (CD/FBW/CBW): masking the delta
             with the keep row suppresses the candidate in idealized
             lanes *)
          let row = Array.unsafe_get ktab rm in
          for l = 0 to nl - 1 do
            let cur = Array.unsafe_get slab (boff + l) in
            let d =
              (Array.unsafe_get slab (soff + l) + base - cur)
              land Array.unsafe_get row l
            in
            Array.unsafe_set slab (boff + l) (cur + (d land lnot (d asr 62)))
          done
        end
      else if rm = 0 && o0 + 1 = o1 then begin
        (* one component, never removed: fold the component through its
           keep row inline *)
        let crow = Array.unsafe_get ktab (Array.unsafe_get t.comp_mask o0) in
        let d0 = Array.unsafe_get t.comp_lat o0 in
        for l = 0 to nl - 1 do
          let cur = Array.unsafe_get slab (boff + l) in
          let d =
            Array.unsafe_get slab (soff + l)
            + base
            + (d0 land Array.unsafe_get crow l)
            - cur
          in
          Array.unsafe_set slab (boff + l) (cur + (d land lnot (d asr 62)))
        done
      end
      else begin
        (* general: accumulate per-lane latency component-major, so the
           component data is read once per edge instead of once per
           lane; [ktab.(0)] is all [-1], so never-removed edges flow
           through the same removal mask unchanged *)
        Array.fill latbuf 0 nl base;
        for j = o0 to o1 - 1 do
          let crow = Array.unsafe_get ktab (Array.unsafe_get t.comp_mask j) in
          let d = Array.unsafe_get t.comp_lat j in
          for l = 0 to nl - 1 do
            Array.unsafe_set latbuf l
              (Array.unsafe_get latbuf l + (d land Array.unsafe_get crow l))
          done
        done;
        let rrow = Array.unsafe_get ktab rm in
        for l = 0 to nl - 1 do
          let cur = Array.unsafe_get slab (boff + l) in
          let d =
            (Array.unsafe_get slab (soff + l) + Array.unsafe_get latbuf l - cur)
            land Array.unsafe_get rrow l
          in
          Array.unsafe_set slab (boff + l) (cur + (d land lnot (d asr 62)))
        done
      end
    done;
    while !fi < nf && t.f_node.(!fi) = v do
      let fb = t.f_base.(!fi) in
      let j0 = t.f_off.(!fi) and j1 = t.f_off.(!fi + 1) in
      Array.fill latbuf 0 nl fb;
      for j = j0 to j1 - 1 do
        let crow = Array.unsafe_get ktab (Array.unsafe_get t.comp_mask j) in
        let d = Array.unsafe_get t.comp_lat j in
        for l = 0 to nl - 1 do
          Array.unsafe_set latbuf l
            (Array.unsafe_get latbuf l + (d land Array.unsafe_get crow l))
        done
      done;
      for l = 0 to nl - 1 do
        let cur = Array.unsafe_get slab (boff + l) in
        let d = Array.unsafe_get latbuf l - cur in
        Array.unsafe_set slab (boff + l) (cur + (d land lnot (d asr 62)))
      done;
      incr fi
    done;
    while !efi < nef && fst ext_floors.(!efi) = v do
      let row = snd ext_floors.(!efi) in
      for l = 0 to nl - 1 do
        let cur = Array.unsafe_get slab (boff + l) in
        let d = Array.unsafe_get row (lo + l) - cur in
        Array.unsafe_set slab (boff + l) (cur + (d land lnot (d asr 62)))
      done;
      incr efi
    done
  done

(* ---------- packed (SWAR) lanes ---------- *)

(* When the graph can prove every arrival time stays below 2^20
   ([lat_bound]), three lanes share one 63-bit word: 21-bit fields at bits
   0/21/42, each a 20-bit value plus one guard bit.  All lane values are
   non-negative and bounded, so field sums never carry across field
   boundaries, and a word-wide max costs ~8 ALU ops for 3 lanes:

     m  = ((cand | H) - cur) & H     guard of each field survives the
                                     subtract iff cand >= cur there
     fm = m - (m >> 20)              expand surviving guards to 0xFFFFF
     max = (cand & fm) | (cur & ~fm)

   Keep rows hold per-field VALUE masks (0xFFFFF when the category is not
   idealized in that lane, 0 when it is), so component contributions are
   [(lat * sw_rep) land row] and removal masks the whole candidate to 0
   (sound because times are non-negative, so max(cur, 0) = cur). *)

let sw_vmax = (1 lsl 20) - 1
let sw_rep = 1 lor (1 lsl 21) lor (1 lsl 42)
let sw_high = (sw_vmax + 1) * sw_rep
let sw_keep = sw_vmax * sw_rep

let[@inline always] sw_max cur cand =
  let m = ((cand lor sw_high) - cur) land sw_high in
  let fm = m - (m lsr 20) in
  cand land fm lor (cur land lnot fm)

(* Packed twin of {!eval_lanes_pinned} for whole graphs: [nl] lanes in [pw = ceil (nl / 3)] words
   per node.  The lane vector is padded to whole words with copies of the
   last subset, so padding fields run a real lane's recurrence and the
   overflow bound covers them; only [nl] results are unpacked.  A node's
   first in-edge stores its candidate directly (candidates are
   non-negative, so the store doubles as the zero-init), which drops both
   the per-node zero fill and one max per node. *)
let eval_chunk_swar (t : t) (sets : Category.Set.t array) ~lo ~nl
    ~(slab : int array) ~(latbuf : int array) ~(lset : int array)
    ~(ktab : int array array) (out : int array) : unit =
  let n = num_nodes t in
  let nf = Array.length t.f_node in
  let pw = (nl + 2) / 3 in
  for l = 0 to (3 * pw) - 1 do
    lset.(l) <- sets.(lo + min l (nl - 1))
  done;
  for ci = 0 to Category.count - 1 do
    let mask = 1 lsl ci in
    let row = ktab.(mask) in
    for w = 0 to pw - 1 do
      let r = ref 0 in
      for f = 0 to 2 do
        if mask land lset.((3 * w) + f) = 0 then
          r := !r lor (sw_vmax lsl (21 * f))
      done;
      row.(w) <- !r
    done
  done;
  let fi = ref 0 in
  for v = 0 to n - 1 do
    let boff = v * pw in
    let k0 = t.first_in.(v) in
    let hi = t.first_in.(v + 1) in
    if k0 = hi then
      for w = 0 to pw - 1 do
        Array.unsafe_set slab (boff + w) 0
      done
    else
      for k = k0 to hi - 1 do
        let rm = Array.unsafe_get t.e_removed k in
        let o0 = Array.unsafe_get t.e_comp_off k in
        let o1 = Array.unsafe_get t.e_comp_off (k + 1) in
        let soff = Array.unsafe_get t.e_src k * pw in
        let baserep = Array.unsafe_get t.e_base k * sw_rep in
        if o0 = o1 then
          if rm = 0 then
            if k = k0 then
              for w = 0 to pw - 1 do
                Array.unsafe_set slab (boff + w)
                  (Array.unsafe_get slab (soff + w) + baserep)
              done
            else
              for w = 0 to pw - 1 do
                let cur = Array.unsafe_get slab (boff + w) in
                let cand = Array.unsafe_get slab (soff + w) + baserep in
                Array.unsafe_set slab (boff + w) (sw_max cur cand)
              done
          else begin
            let rrow = Array.unsafe_get ktab rm in
            if k = k0 then
              for w = 0 to pw - 1 do
                Array.unsafe_set slab (boff + w)
                  ((Array.unsafe_get slab (soff + w) + baserep)
                  land Array.unsafe_get rrow w)
              done
            else
              for w = 0 to pw - 1 do
                let cur = Array.unsafe_get slab (boff + w) in
                let cand =
                  (Array.unsafe_get slab (soff + w) + baserep)
                  land Array.unsafe_get rrow w
                in
                Array.unsafe_set slab (boff + w) (sw_max cur cand)
              done
          end
        else if rm = 0 && o0 + 1 = o1 then begin
          let crow = Array.unsafe_get ktab (Array.unsafe_get t.comp_mask o0) in
          let d0 = Array.unsafe_get t.comp_lat o0 * sw_rep in
          if k = k0 then
            for w = 0 to pw - 1 do
              Array.unsafe_set slab (boff + w)
                (Array.unsafe_get slab (soff + w)
                + baserep
                + (d0 land Array.unsafe_get crow w))
            done
          else
            for w = 0 to pw - 1 do
              let cur = Array.unsafe_get slab (boff + w) in
              let cand =
                Array.unsafe_get slab (soff + w)
                + baserep
                + (d0 land Array.unsafe_get crow w)
              in
              Array.unsafe_set slab (boff + w) (sw_max cur cand)
            done
        end
        else begin
          for w = 0 to pw - 1 do
            Array.unsafe_set latbuf w baserep
          done;
          for j = o0 to o1 - 1 do
            let crow =
              Array.unsafe_get ktab (Array.unsafe_get t.comp_mask j)
            in
            let d = Array.unsafe_get t.comp_lat j * sw_rep in
            for w = 0 to pw - 1 do
              Array.unsafe_set latbuf w
                (Array.unsafe_get latbuf w + (d land Array.unsafe_get crow w))
            done
          done;
          let rrow = Array.unsafe_get ktab rm in
          if k = k0 then
            for w = 0 to pw - 1 do
              Array.unsafe_set slab (boff + w)
                ((Array.unsafe_get slab (soff + w) + Array.unsafe_get latbuf w)
                land Array.unsafe_get rrow w)
            done
          else
            for w = 0 to pw - 1 do
              let cur = Array.unsafe_get slab (boff + w) in
              let cand =
                (Array.unsafe_get slab (soff + w) + Array.unsafe_get latbuf w)
                land Array.unsafe_get rrow w
              in
              Array.unsafe_set slab (boff + w) (sw_max cur cand)
            done
        end
      done;
    while !fi < nf && t.f_node.(!fi) = v do
      let fb = t.f_base.(!fi) * sw_rep in
      let j0 = t.f_off.(!fi) and j1 = t.f_off.(!fi + 1) in
      for w = 0 to pw - 1 do
        Array.unsafe_set latbuf w fb
      done;
      for j = j0 to j1 - 1 do
        let crow = Array.unsafe_get ktab (Array.unsafe_get t.comp_mask j) in
        let d = Array.unsafe_get t.comp_lat j * sw_rep in
        for w = 0 to pw - 1 do
          Array.unsafe_set latbuf w
            (Array.unsafe_get latbuf w + (d land Array.unsafe_get crow w))
        done
      done;
      for w = 0 to pw - 1 do
        let cur = Array.unsafe_get slab (boff + w) in
        Array.unsafe_set slab (boff + w)
          (sw_max cur (Array.unsafe_get latbuf w))
      done;
      incr fi
    done
  done;
  let soff = node ~seq:(t.num_instrs - 1) ~kind:C * pw in
  for l = 0 to nl - 1 do
    out.(lo + l) <-
      (Array.unsafe_get slab (soff + (l / 3)) lsr (21 * (l mod 3)))
      land sw_vmax
      + 1
  done

(** [eval_slices ?lanes t sets] is {!eval_subsets_scalar} computed
    bit-sliced: each pool chunk prices up to [lanes] subsets (clamped to
    1..{!max_lanes}, default {!max_lanes}) per pass over the edge
    arrays.  Per lane the recurrence is identical to the scalar
    pass, so results are bit-identical regardless of [lanes] or the pool
    job count; chunks write disjoint slices of the output. *)
let eval_slices ?(lanes = max_lanes) (t : t) (sets : Category.Set.t array) :
    int array =
  let m = Array.length sets in
  let lanes = if lanes < 1 then 1 else min lanes (min max_lanes (max 1 m)) in
  let out = Array.make m 0 in
  if t.num_instrs > 0 && m > 0 then begin
    let sp = Telemetry.start_span "graph.eval_subsets" in
    let n = num_nodes t in
    (* the packed path needs every arrival time (+1 for the reported
       critical length) to fit a 20-bit field *)
    let packed =
      t.lat_bound >= 0 && t.lat_bound + 1 <= sw_vmax
    in
    let nchunks = (m + lanes - 1) / lanes in
    Icost_util.Pool.parallel_chunks nchunks (fun ~lo ~hi ->
        if packed then begin
          let pwmax = (lanes + 2) / 3 in
          let slab = Array.make (n * pwmax) 0 in
          let latbuf = Array.make pwmax 0 in
          let lset = Array.make (3 * pwmax) 0 in
          (* keep rows: one per singleton category mask, refreshed per
             chunk, plus a constant all-keep row shared by every mask the
             builder never emits (only row 0 is ever dereferenced) *)
          let keep_all = Array.make pwmax sw_keep in
          let ktab = Array.make 256 keep_all in
          for ci = 0 to Category.count - 1 do
            ktab.(1 lsl ci) <- Array.make pwmax 0
          done;
          for ch = lo to hi - 1 do
            let slo = ch * lanes in
            let nl = min lanes (m - slo) in
            Telemetry.incr c_sliced;
            eval_chunk_swar t sets ~lo:slo ~nl ~slab ~latbuf ~lset ~ktab out
          done
        end
        else begin
          let slab = Array.make (n * lanes) 0 in
          let latbuf = Array.make lanes 0 in
          let lset = Array.make lanes 0 in
          let keep_all = Array.make lanes (-1) in
          let ktab = Array.make 256 keep_all in
          for ci = 0 to Category.count - 1 do
            ktab.(1 lsl ci) <- Array.make lanes 0
          done;
          let sink = node ~seq:(t.num_instrs - 1) ~kind:C in
          for ch = lo to hi - 1 do
            let slo = ch * lanes in
            let nl = min lanes (m - slo) in
            Telemetry.incr c_sliced;
            eval_lanes_pinned t sets ~lo:slo ~nl ~n_pinned:0 ~pinned:[||]
              ~pin_stride:0 ~ext_floors:[||] ~latbuf ~lset ~ktab ~slab;
            for l = 0 to nl - 1 do
              out.(slo + l) <- slab.((sink * nl) + l) + 1
            done
          done
        end);
    if Telemetry.enabled () then
      Telemetry.end_span sp
        ~attrs:
          [
            ("sets", string_of_int m);
            ("lanes", string_of_int lanes);
            ("passes", string_of_int nchunks);
            ("packed", string_of_bool packed);
          ]
    else Telemetry.end_span sp
  end;
  out

(** [eval_subsets t sets] computes {!critical_length} under every
    idealization in [sets]; results are index-aligned with [sets].  The
    implementation is the bit-sliced {!eval_slices} (up to {!max_lanes}
    subsets per edge-array pass); {!eval_subsets_scalar} remains as the
    reference oracle. *)
let eval_subsets (t : t) (sets : Category.Set.t array) : int array =
  (* 32 lanes measures fastest on the 10k-instr kernels: enough to amortize
     per-edge decode, small enough that a chunk's slab stays cache-resident *)
  eval_slices ~lanes:32 t sets

(** Cost of a set of edges (Tune et al.): speedup from zeroing the latency
    of every edge matching [pred]. *)
let cost_of_edges ?ideal (t : t) pred : int =
  let base = critical_length ?ideal t in
  let zeroed = critical_length ?ideal ~override:(fun e -> if pred e then Some 0 else None) t in
  base - zeroed

(** Cost of one dynamic instruction's execution latency: zero its EP edge. *)
let instr_cost ?ideal (t : t) ~seq : int =
  cost_of_edges ?ideal t (fun e -> e.kind = EP && seq_of_node e.dst = seq)

(** Slack of a node: how much later it could arrive without growing the
    critical path.  Computed from forward times and backward requirement
    times in two passes. *)
let slacks ?(ideal = Category.Set.empty) (t : t) : int array =
  let n = num_nodes t in
  let time = eval ~ideal t in
  let cp = if n = 0 then 0 else time.(n - 1) in
  (* latest(v): latest arrival of v keeping the last C node at cp *)
  let latest = Array.make n max_int in
  if n > 0 then latest.(n - 1) <- cp;
  for v = n - 1 downto 0 do
    for k = t.first_in.(v) to t.first_in.(v + 1) - 1 do
      match latency t ideal k with
      | None -> ()
      | Some lat ->
        let src = t.e_src.(k) in
        if latest.(v) <> max_int && latest.(v) - lat < latest.(src) then
          latest.(src) <- latest.(v) - lat
    done
  done;
  Array.init n (fun v ->
      if latest.(v) = max_int then max_int else latest.(v) - time.(v))

(** [critical_path t] returns the node ids of one critical path, last node
    first, together with the edge kinds taken (paired with the *downstream*
    node).  Ties are broken toward the earliest incoming edge. *)
let critical_path ?(ideal = Category.Set.empty) (t : t) : (int * edge_kind option) list =
  if t.num_instrs = 0 then []
  else begin
    let time = eval ~ideal t in
    let rec walk v acc =
      let hi = t.first_in.(v + 1) in
      (* the first (earliest) incoming edge on the critical path *)
      let rec pred k =
        if k >= hi then None
        else
          match latency t ideal k with
          | Some lat when time.(t.e_src.(k)) + lat = time.(v) -> Some k
          | _ -> pred (k + 1)
      in
      match pred t.first_in.(v) with
      | Some k when time.(v) > 0 -> walk t.e_src.(k) ((v, Some t.e_kind.(k)) :: acc)
      | _ -> (v, None) :: acc
    in
    walk (node ~seq:(t.num_instrs - 1) ~kind:C) []
  end

(** Count of edges by kind (model statistics and tests). *)
let edge_histogram (t : t) =
  let tbl = Hashtbl.create 12 in
  Array.iter
    (fun kind ->
      Hashtbl.replace tbl kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl kind)))
    t.e_kind;
  tbl

(* [f v k] for every edge, in CSR order ([v] is its destination). *)
let iter_edges t f =
  for v = 0 to num_nodes t - 1 do
    for k = t.first_in.(v) to t.first_in.(v + 1) - 1 do
      f v k
    done
  done

(** Graphviz DOT rendering (for small graphs, e.g. the Figure 2 demo).
    Critical-path edges are drawn bold. *)
let to_dot ?(ideal = Category.Set.empty) (t : t) : string =
  let time = eval ~ideal t in
  let on_cp =
    let cp = critical_path ~ideal t in
    let tbl = Hashtbl.create 64 in
    let rec mark = function
      | (v, _) :: ((w, _) :: _ as rest) ->
        Hashtbl.replace tbl (v, w) ();
        mark rest
      | _ -> ()
    in
    mark cp;
    fun src dst -> Hashtbl.mem tbl (src, dst)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph microexecution {\n  rankdir=LR;\n";
  for i = 0 to t.num_instrs - 1 do
    Buffer.add_string buf (Printf.sprintf "  subgraph cluster_%d { label=\"i%d\";" i i);
    Array.iter
      (fun k ->
        let v = node ~seq:i ~kind:k in
        Buffer.add_string buf
          (Printf.sprintf " n%d [label=\"%s%d\\nt=%d\"];" v (kind_name k) i time.(v)))
      node_kinds;
    Buffer.add_string buf " }\n"
  done;
  iter_edges t (fun dst k ->
      let src = t.e_src.(k) in
      let lat = Option.value ~default:0 (latency t ideal k) in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%s:%d\"%s];\n" src dst
           (edge_kind_name t.e_kind.(k)) lat
           (if on_cp src dst then " penwidth=3" else "")));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(** Compact text rendering of a small graph: one line per instruction with
    node times, then the edge list. *)
let pp_small ppf ?(ideal = Category.Set.empty) (t : t) =
  let time = eval ~ideal t in
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.num_instrs - 1 do
    Format.fprintf ppf "i%-3d" i;
    Array.iter
      (fun k ->
        Format.fprintf ppf "  %s=%-4d" (kind_name k) time.(node ~seq:i ~kind:k))
      node_kinds;
    Format.fprintf ppf "@,"
  done;
  iter_edges t (fun dst k ->
      match latency t ideal k with
      | None -> ()
      | Some lat ->
        Format.fprintf ppf "%s -> %s  %s lat=%d@," (node_name t.e_src.(k))
          (node_name dst) (edge_kind_name t.e_kind.(k)) lat);
  Format.fprintf ppf "@]"
