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

(** Flat-array ("compiled") form of the edge and floor latency data,
    precomputed at {!Builder.finish} time.  The hot evaluation loop reads
    only unboxed [int array]s: per edge a source node, a base latency, a
    removal bitmask (0 when no category removes the edge) and a slice of
    (category-bitmask, latency-delta) component pairs; floors are the same
    data sorted by node so one forward cursor replaces the per-eval
    [Hashtbl].  Category sets are bitmasks ({!Category.Set.t} = [int]), so
    membership tests in the inner loop are single [land]s. *)
type compiled = {
  e_src : int array;  (** per edge, in CSR order *)
  e_base : int array;
  e_removed : int array;  (** singleton category mask, or 0 *)
  e_comp_off : int array;  (** [num_edges + 1] offsets into [comp_*] *)
  comp_mask : int array;
  comp_lat : int array;
  f_node : int array;  (** floor entries, sorted by node *)
  f_base : int array;
  f_off : int array;  (** [num_floors + 1] offsets into [f_comp_*] *)
  f_comp_mask : int array;
  f_comp_lat : int array;
  lat_bound : int;
      (** sound upper bound on any node arrival time under any idealization
          (sum over nodes of the max full incoming latency, plus all floor
          latencies), or [-1] when some latency is negative.  Lets the
          sliced evaluator prove that packed lane fields cannot overflow. *)
}

type t = {
  num_instrs : int;
  edges : edge array;  (** sorted by [dst] *)
  first_in : int array;  (** CSR index: incoming edges of node [v] are
                             [edges.(first_in.(v)) .. edges.(first_in.(v+1) - 1)] *)
  floors : (int * int * component list) list;
      (** (node, base, components): minimum arrival times for nodes with no
          incoming edge to carry them (e.g. the first instruction's I-cache
          stall delaying its dispatch) *)
  compiled : compiled;
}

let num_nodes t = 5 * t.num_instrs

let node ~seq ~kind = (5 * seq) + kind_index kind

let seq_of_node v = v / 5

let kind_of_node v = node_kinds.(v mod 5)

let node_name v = Printf.sprintf "%s%d" (kind_name (kind_of_node v)) (seq_of_node v)

(** Effective latency of [e] under the idealization [s]; [None] if the edge
    is removed entirely. *)
let edge_latency (s : Category.Set.t) (e : edge) : int option =
  match e.removed_by with
  | Some c when Category.Set.mem c s -> None
  | _ ->
    let extra =
      List.fold_left
        (fun acc { cat; lat } -> if Category.Set.mem cat s then acc else acc + lat)
        0 e.components
    in
    Some (e.base + extra)

let cat_mask (c : Category.t) : int = Category.Set.singleton c

let compile ~(edges : edge array) ~(floors : (int * int * component list) list)
    : compiled =
  let ne = Array.length edges in
  let e_src = Array.make ne 0 in
  let e_base = Array.make ne 0 in
  let e_removed = Array.make ne 0 in
  let e_comp_off = Array.make (ne + 1) 0 in
  let ncomp =
    Array.fold_left (fun acc e -> acc + List.length e.components) 0 edges
  in
  let comp_mask = Array.make (max 1 ncomp) 0 in
  let comp_lat = Array.make (max 1 ncomp) 0 in
  let k = ref 0 in
  Array.iteri
    (fun i e ->
      e_src.(i) <- e.src;
      e_base.(i) <- e.base;
      e_removed.(i) <- (match e.removed_by with None -> 0 | Some c -> cat_mask c);
      e_comp_off.(i) <- !k;
      List.iter
        (fun { cat; lat } ->
          comp_mask.(!k) <- cat_mask cat;
          comp_lat.(!k) <- lat;
          incr k)
        e.components)
    edges;
  e_comp_off.(ne) <- !k;
  let floors =
    List.stable_sort (fun (a, _, _) (b, _, _) -> compare (a : int) b) floors
  in
  let nf = List.length floors in
  let f_node = Array.make (max 1 nf) max_int in
  let f_base = Array.make (max 1 nf) 0 in
  let f_off = Array.make (nf + 1) 0 in
  let nfcomp =
    List.fold_left (fun acc (_, _, cs) -> acc + List.length cs) 0 floors
  in
  let f_comp_mask = Array.make (max 1 nfcomp) 0 in
  let f_comp_lat = Array.make (max 1 nfcomp) 0 in
  let j = ref 0 in
  List.iteri
    (fun i (node, base, cs) ->
      f_node.(i) <- node;
      f_base.(i) <- base;
      f_off.(i) <- !j;
      List.iter
        (fun { cat; lat } ->
          f_comp_mask.(!j) <- cat_mask cat;
          f_comp_lat.(!j) <- lat;
          incr j)
        cs)
    floors;
  f_off.(nf) <- !j;
  let f_node = if nf = 0 then [||] else f_node in
  let f_base = if nf = 0 then [||] else f_base in
  let lat_bound =
    (* a longest path visits nodes in topological order, so its length is at
       most the sum over nodes of the largest full (no idealization)
       incoming latency; floors only raise a node to a fixed value, so
       adding their totals keeps the bound sound.  Negative latencies break
       both the bound and the packed evaluator's non-negativity invariant,
       so they poison the bound to -1. *)
    let neg = ref false in
    let full e =
      if e.base < 0 then neg := true;
      List.fold_left
        (fun acc { lat; _ } ->
          if lat < 0 then neg := true;
          acc + lat)
        e.base e.components
    in
    let bound = ref 0 in
    let cur_dst = ref (-1) in
    let cur_max = ref 0 in
    Array.iter
      (fun e ->
        let l = full e in
        if e.dst <> !cur_dst then begin
          bound := !bound + !cur_max;
          cur_dst := e.dst;
          cur_max := l
        end
        else if l > !cur_max then cur_max := l)
      edges;
    bound := !bound + !cur_max;
    List.iter
      (fun (_, base, cs) ->
        if base < 0 then neg := true;
        bound :=
          !bound
          + List.fold_left
              (fun acc { lat; _ } ->
                if lat < 0 then neg := true;
                acc + lat)
              base cs)
      floors;
    if !neg then -1 else !bound
  in
  {
    e_src;
    e_base;
    e_removed;
    e_comp_off;
    comp_mask;
    comp_lat;
    f_node;
    f_base;
    f_off;
    f_comp_mask;
    f_comp_lat;
    lat_bound;
  }

(* ---------- compact serialization ---------- *)

let edge_kind_tag = function
  | DD -> 0
  | FBW -> 1
  | CD -> 2
  | PD -> 3
  | DR -> 4
  | PR -> 5
  | RE -> 6
  | EP -> 7
  | PP -> 8
  | PC -> 9
  | CC -> 10
  | CBW -> 11

let edge_kind_of_tag = function
  | 0 -> DD
  | 1 -> FBW
  | 2 -> CD
  | 3 -> PD
  | 4 -> DR
  | 5 -> PR
  | 6 -> RE
  | 7 -> EP
  | 8 -> PP
  | 9 -> PC
  | 10 -> CC
  | 11 -> CBW
  | n -> failwith (Printf.sprintf "Graph.unmarshal: bad edge kind %d" n)

(* The derived [compiled] arrays are dropped ([unmarshal] recompiles them)
   and the edge records are transposed into flat int arrays, so decoding
   allocates a handful of large blocks instead of one block per edge. *)
let marshal (g : t) : string =
  let ne = Array.length g.edges in
  let src = Array.make (max 1 ne) 0
  and dst = Array.make (max 1 ne) 0
  and kindi = Array.make (max 1 ne) 0
  and base = Array.make (max 1 ne) 0
  and removed = Array.make (max 1 ne) 0
  and comp_off = Array.make (ne + 1) 0 in
  let ncomp =
    Array.fold_left (fun acc e -> acc + List.length e.components) 0 g.edges
  in
  let comp_cat = Array.make (max 1 ncomp) 0
  and comp_lat = Array.make (max 1 ncomp) 0 in
  let k = ref 0 in
  Array.iteri
    (fun i e ->
      src.(i) <- e.src;
      dst.(i) <- e.dst;
      kindi.(i) <- edge_kind_tag e.kind;
      base.(i) <- e.base;
      removed.(i) <-
        (match e.removed_by with None -> -1 | Some c -> Category.to_int c);
      comp_off.(i) <- !k;
      List.iter
        (fun { cat; lat } ->
          comp_cat.(!k) <- Category.to_int cat;
          comp_lat.(!k) <- lat;
          incr k)
        e.components)
    g.edges;
  comp_off.(ne) <- !k;
  Marshal.to_string
    ( g.num_instrs,
      ne,
      src,
      dst,
      kindi,
      base,
      removed,
      comp_off,
      comp_cat,
      comp_lat,
      g.first_in,
      g.floors )
    []

let unmarshal (s : string) : t =
  let ( num_instrs,
        ne,
        src,
        dst,
        kindi,
        base,
        removed,
        comp_off,
        comp_cat,
        comp_lat,
        first_in,
        floors ) =
    try
      (Marshal.from_string s 0
        : int
          * int
          * int array
          * int array
          * int array
          * int array
          * int array
          * int array
          * int array
          * int array
          * int array
          * (int * int * component list) list)
    with Failure _ -> failwith "Graph.unmarshal: malformed bytes"
  in
  if
    ne < 0
    || Array.length src < ne
    || Array.length dst < ne
    || Array.length kindi < ne
    || Array.length base < ne
    || Array.length removed < ne
    || Array.length comp_off < ne + 1
    || comp_off.(ne) > Array.length comp_cat
    || comp_off.(ne) > Array.length comp_lat
  then failwith "Graph.unmarshal: malformed bytes";
  let edges =
    try
      Array.init ne (fun i ->
          let comps = ref [] in
          for k = comp_off.(i + 1) - 1 downto comp_off.(i) do
            comps :=
              { cat = Category.of_int comp_cat.(k); lat = comp_lat.(k) }
              :: !comps
          done;
          {
            src = src.(i);
            dst = dst.(i);
            kind = edge_kind_of_tag kindi.(i);
            base = base.(i);
            components = !comps;
            removed_by =
              (if removed.(i) < 0 then None
               else Some (Category.of_int removed.(i)));
          })
    with Invalid_argument _ -> failwith "Graph.unmarshal: malformed bytes"
  in
  { num_instrs; edges; first_in; floors; compiled = compile ~edges ~floors }

(* ---------- building ---------- *)

module Builder = struct
  type b = {
    mutable edge_buf : edge list;
    mutable n_edges : int;
    mutable n_instrs : int;
    mutable floors : (int * int * component list) list;
  }

  let create () = { edge_buf = []; n_edges = 0; n_instrs = 0; floors = [] }

  (** Constrain [node] to arrive no earlier than [base] plus the (category
      owned) components. *)
  let add_floor b ~node ~base ~components =
    b.floors <- (node, base, components) :: b.floors

  let add_edge b ~src ~dst ~kind ?(base = 0) ?(components = []) ?removed_by () =
    assert (src < dst);
    b.edge_buf <- { src; dst; kind; base; components; removed_by } :: b.edge_buf;
    b.n_edges <- b.n_edges + 1

  let note_instr b = b.n_instrs <- b.n_instrs + 1

  let c_graphs = Telemetry.counter "graph.finished"
  let c_nodes = Telemetry.counter "graph.nodes"
  let c_edges = Telemetry.counter "graph.edges"
  let c_components = Telemetry.counter "graph.edge_components"

  (** Finalize into CSR form (counting sort of edges by destination). *)
  let finish b : t =
    let sp = Telemetry.start_span "graph.compile" in
    let num_instrs = b.n_instrs in
    let n_nodes = 5 * num_instrs in
    let counts = Array.make (n_nodes + 1) 0 in
    List.iter (fun e -> counts.(e.dst + 1) <- counts.(e.dst + 1) + 1) b.edge_buf;
    for v = 1 to n_nodes do
      counts.(v) <- counts.(v) + counts.(v - 1)
    done;
    let first_in = Array.copy counts in
    let dummy =
      { src = 0; dst = 0; kind = DD; base = 0; components = []; removed_by = None }
    in
    let edges = Array.make b.n_edges dummy in
    let cursor = Array.copy first_in in
    List.iter
      (fun e ->
        edges.(cursor.(e.dst)) <- e;
        cursor.(e.dst) <- cursor.(e.dst) + 1)
      b.edge_buf;
    let compiled = compile ~edges ~floors:b.floors in
    Telemetry.incr c_graphs;
    Telemetry.add c_nodes n_nodes;
    Telemetry.add c_edges b.n_edges;
    Telemetry.add c_components (Array.length compiled.comp_mask);
    if Telemetry.enabled () then
      Telemetry.end_span sp
        ~attrs:
          [
            ("instrs", string_of_int num_instrs);
            ("edges", string_of_int b.n_edges);
          ]
    else Telemetry.end_span sp;
    { num_instrs; edges; first_in; floors = b.floors; compiled }
end

(* ---------- evaluation ---------- *)

(* Generic (boxed) evaluation, only used when an [override] needs to
   inspect full edge records. *)
let eval_generic ~(ideal : Category.Set.t) ~(override : edge -> int option)
    (t : t) : int array =
  let n = num_nodes t in
  let time = Array.make n 0 in
  let floor = Hashtbl.create 4 in
  List.iter
    (fun (node, base, components) ->
      let lat =
        List.fold_left
          (fun acc { cat; lat } ->
            if Category.Set.mem cat ideal then acc else acc + lat)
          base components
      in
      Hashtbl.replace floor node
        (max lat (Option.value ~default:0 (Hashtbl.find_opt floor node))))
    t.floors;
  for v = 0 to n - 1 do
    let lo = t.first_in.(v) and hi = t.first_in.(v + 1) in
    let best = ref 0 in
    for k = lo to hi - 1 do
      let e = t.edges.(k) in
      let lat =
        match override e with Some l -> Some l | None -> edge_latency ideal e
      in
      match lat with
      | None -> ()
      | Some lat ->
        let cand = time.(e.src) + lat in
        if cand > !best then best := cand
    done;
    (match Hashtbl.find_opt floor v with
     | Some f when f > !best -> best := f
     | _ -> ());
    time.(v) <- !best
  done;
  time

(** [eval_into ?ideal t time] fills [time] (length >= [num_nodes t]) with
    the arrival time of every node under the idealization, in one
    topological pass over the compiled arrays, allocating nothing.  The
    inner loop is the hot path of every graph-backed cost query: a subset
    sweep calls it once per category subset on one scratch buffer. *)
let c_evals = Telemetry.counter "graph.evals"

let eval_into ?(ideal = Category.Set.empty) (t : t) (time : int array) : unit =
  let n = num_nodes t in
  if Array.length time < n then invalid_arg "Graph.eval_into: buffer too short";
  (* one atomic add; keeps this path allocation-free *)
  Telemetry.incr c_evals;
  let s : int = ideal in
  let c = t.compiled in
  let nf = Array.length c.f_node in
  let fi = ref 0 in
  for v = 0 to n - 1 do
    let best = ref 0 in
    let hi = t.first_in.(v + 1) in
    for k = t.first_in.(v) to hi - 1 do
      if c.e_removed.(k) land s = 0 then begin
        let lat = ref c.e_base.(k) in
        for j = c.e_comp_off.(k) to c.e_comp_off.(k + 1) - 1 do
          if c.comp_mask.(j) land s = 0 then lat := !lat + c.comp_lat.(j)
        done;
        let cand = time.(c.e_src.(k)) + !lat in
        if cand > !best then best := cand
      end
    done;
    while !fi < nf && c.f_node.(!fi) = v do
      let lat = ref c.f_base.(!fi) in
      for j = c.f_off.(!fi) to c.f_off.(!fi + 1) - 1 do
        if c.f_comp_mask.(j) land s = 0 then lat := !lat + c.f_comp_lat.(j)
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
    cost).  Without an override the query runs on the compiled flat-array
    representation. *)
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
    sweeping the compiled graph with one scratch buffer per pool job (zero
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
   ALU ops.  [ktab] only needs rows for masks the compiler emits:
   singleton category masks ([compile] builds every component and
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
  let c = t.compiled in
  let nf = Array.length c.f_node in
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
  while !fi < nf && c.f_node.(!fi) < n_pinned do incr fi done;
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
      let rm = Array.unsafe_get c.e_removed k in
      let base = Array.unsafe_get c.e_base k in
      let o0 = Array.unsafe_get c.e_comp_off k in
      let o1 = Array.unsafe_get c.e_comp_off (k + 1) in
      let soff = Array.unsafe_get c.e_src k * nl in
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
        let crow = Array.unsafe_get ktab (Array.unsafe_get c.comp_mask o0) in
        let d0 = Array.unsafe_get c.comp_lat o0 in
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
          let crow = Array.unsafe_get ktab (Array.unsafe_get c.comp_mask j) in
          let d = Array.unsafe_get c.comp_lat j in
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
    while !fi < nf && c.f_node.(!fi) = v do
      let fb = c.f_base.(!fi) in
      let j0 = c.f_off.(!fi) and j1 = c.f_off.(!fi + 1) in
      Array.fill latbuf 0 nl fb;
      for j = j0 to j1 - 1 do
        let crow = Array.unsafe_get ktab (Array.unsafe_get c.f_comp_mask j) in
        let d = Array.unsafe_get c.f_comp_lat j in
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

(* When the compiled graph can prove every arrival time stays below 2^20
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
  let c = t.compiled in
  let nf = Array.length c.f_node in
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
        let rm = Array.unsafe_get c.e_removed k in
        let o0 = Array.unsafe_get c.e_comp_off k in
        let o1 = Array.unsafe_get c.e_comp_off (k + 1) in
        let soff = Array.unsafe_get c.e_src k * pw in
        let baserep = Array.unsafe_get c.e_base k * sw_rep in
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
          let crow = Array.unsafe_get ktab (Array.unsafe_get c.comp_mask o0) in
          let d0 = Array.unsafe_get c.comp_lat o0 * sw_rep in
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
              Array.unsafe_get ktab (Array.unsafe_get c.comp_mask j)
            in
            let d = Array.unsafe_get c.comp_lat j * sw_rep in
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
    while !fi < nf && c.f_node.(!fi) = v do
      let fb = c.f_base.(!fi) * sw_rep in
      let j0 = c.f_off.(!fi) and j1 = c.f_off.(!fi + 1) in
      for w = 0 to pw - 1 do
        Array.unsafe_set latbuf w fb
      done;
      for j = j0 to j1 - 1 do
        let crow = Array.unsafe_get ktab (Array.unsafe_get c.f_comp_mask j) in
        let d = Array.unsafe_get c.f_comp_lat j * sw_rep in
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
    1..{!max_lanes}, default {!max_lanes}) per pass over the compiled
    edge arrays.  Per lane the recurrence is identical to the scalar
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
      t.compiled.lat_bound >= 0 && t.compiled.lat_bound + 1 <= sw_vmax
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
             compiler never emits (only row 0 is ever dereferenced) *)
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
    let lo = t.first_in.(v) and hi = t.first_in.(v + 1) in
    for k = lo to hi - 1 do
      let e = t.edges.(k) in
      match edge_latency ideal e with
      | None -> ()
      | Some lat ->
        if latest.(v) <> max_int && latest.(v) - lat < latest.(e.src) then
          latest.(e.src) <- latest.(v) - lat
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
      let pred = ref None in
      let found = ref false in
      let k = ref t.first_in.(v) in
      (* stop at the first (earliest) incoming edge on the critical path *)
      while (not !found) && !k < hi do
        let e = t.edges.(!k) in
        (match edge_latency ideal e with
         | None -> ()
         | Some lat ->
           if time.(e.src) + lat = time.(v) then begin
             pred := Some e;
             found := true
           end);
        incr k
      done;
      match !pred with
      | Some e when time.(v) > 0 -> walk e.src ((v, Some e.kind) :: acc)
      | _ -> (v, None) :: acc
    in
    walk (node ~seq:(t.num_instrs - 1) ~kind:C) []
  end

(** Count of edges by kind (model statistics and tests). *)
let edge_histogram (t : t) =
  let tbl = Hashtbl.create 12 in
  Array.iter
    (fun e ->
      Hashtbl.replace tbl e.kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.kind)))
    t.edges;
  tbl

let num_edges t = Array.length t.edges

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
  Array.iter
    (fun e ->
      let lat = Option.value ~default:0 (edge_latency ideal e) in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%s:%d\"%s];\n" e.src e.dst
           (edge_kind_name e.kind) lat
           (if on_cp e.src e.dst then " penwidth=3" else "")))
    t.edges;
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
  Array.iter
    (fun e ->
      match edge_latency ideal e with
      | None -> ()
      | Some lat ->
        Format.fprintf ppf "%s -> %s  %s lat=%d@," (node_name e.src) (node_name e.dst)
          (edge_kind_name e.kind) lat)
    t.edges;
  Format.fprintf ppf "@]"
