(* icost.rpc.v1 encoder/decoder.  See protocol.mli and doc/protocol.md. *)

let version = "icost.rpc.v1"

let max_request_bytes = 65536
let max_batch_items = 256
let max_sweep_axes = 8

type target = {
  workload : string;
  variant : string;
  engine : string;
  warmup : int;
  measure : int;
  seed : int;
}

let default_target =
  {
    workload = "";
    variant = "base";
    engine = "graph";
    warmup = Icost_experiments.Runner.default_settings.warmup;
    measure = Icost_experiments.Runner.default_settings.measure;
    seed = Icost_profiler.Sampler.default_opts.seed;
  }

let prep_key tg = Printf.sprintf "%s|w%d|m%d" tg.workload tg.warmup tg.measure

type op =
  | Breakdown of { target : target; focus : string }
  | Icost of { target : target; sets : string list }
  | Graph_stats of { target : target }
  | Sweep of { target : target; params : string list }
  | Batch of { ops : op list }
  | Status
  | Health
  | Drain
  | Shutdown

let rec idempotent = function
  | Shutdown | Drain -> false
  | Batch { ops } -> List.for_all idempotent ops
  | _ -> true

type request = { req_id : int; deadline_ms : int option; op : op }

type breakdown_row = { row_label : string; row_percent : float; row_cycles : float }

type icost_row = {
  set_name : string;
  set_cost : float;
  set_icost : float;
  set_class : string;
}

type status_body = {
  uptime_s : float;
  requests_total : int;
  inflight : int;
  queue_depth : int;
  sessions : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  snapshot_hits : int;
  snapshot_misses : int;
  snapshot_rejects : int;
  sweep_points : int;
  sweep_cache_hits : int;
  segments : int;
  stream_peak_mb : float;
  pool_jobs : int;
  shards : int;
  respawns : int;
  failovers : int;
  health : string;
  draining : bool;
}

type health_body = {
  h_health : string;
  h_breakers_open : int;
  h_shed : int;
}

type error_code =
  | Bad_request
  | Overloaded
  | Unavailable
  | Deadline_exceeded
  | Shutting_down
  | Internal

(* One grid point of a sweep curve: cycles and the first difference
   d(cycles)/d(param) against the previous evaluated point in
   ascending-value order (0 for the lowest point), or a typed per-point
   error that — like a batch item's — does not poison its siblings. *)
type sweep_point = {
  sp_value : int;
  sp_outcome : (float * float, error_code * string) result;
}

type sweep_knee = { kn_value : int; kn_marginal : float; kn_saturated : bool }

type sweep_curve = {
  curve_param : string;
  curve_base : int;
  curve_knee : sweep_knee option;
  curve_points : sweep_point list;
}

type result_body =
  | R_breakdown of { baseline : float; rows : breakdown_row list }
  | R_icost of { baseline : float; rows : icost_row list }
  | R_graph_stats of { instrs : int; nodes : int; edges : int; critical_path : int }
  | R_sweep of { baseline : float; curves : sweep_curve list }
  | R_batch of { results : (result_body, error_code * string) result list }
  | R_status of status_body
  | R_health of health_body
  | R_drain of { restarted : int }
  | R_shutdown

let error_code_name = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Unavailable -> "unavailable"
  | Deadline_exceeded -> "deadline_exceeded"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let error_code_of_name = function
  | "bad_request" -> Some Bad_request
  | "overloaded" -> Some Overloaded
  | "unavailable" -> Some Unavailable
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

let retryable = function
  | Overloaded | Unavailable | Internal -> true
  | Bad_request | Deadline_exceeded | Shutting_down -> false

type reply = { rep_id : int; body : (result_body, error_code * string) result }

(* ---------- encoding ---------- *)

let target_fields (t : target) =
  [
    ("workload", Json.Str t.workload);
    ("variant", Json.Str t.variant);
    ("engine", Json.Str t.engine);
    ("warmup", Json.Int t.warmup);
    ("measure", Json.Int t.measure);
    ("seed", Json.Int t.seed);
  ]

(* Shared between top-level requests and batch items: a batch item is the
   same object shape as a request minus the envelope (v/id/deadline). *)
let rec op_fields (op : op) =
  match op with
  | Breakdown { target; focus } ->
    (("op", Json.Str "breakdown") :: target_fields target)
    @ [ ("focus", Json.Str focus) ]
  | Icost { target; sets } ->
    (("op", Json.Str "icost") :: target_fields target)
    @ [ ("sets", Json.Arr (List.map (fun s -> Json.Str s) sets)) ]
  | Graph_stats { target } ->
    ("op", Json.Str "graph-stats") :: target_fields target
  | Sweep { target; params } ->
    (("op", Json.Str "sweep") :: target_fields target)
    @ [ ("params", Json.Arr (List.map (fun s -> Json.Str s) params)) ]
  | Batch { ops } ->
    [
      ("op", Json.Str "batch");
      ("reqs", Json.Arr (List.map (fun o -> Json.Obj (op_fields o)) ops));
    ]
  | Status -> [ ("op", Json.Str "status") ]
  | Health -> [ ("op", Json.Str "health") ]
  | Drain -> [ ("op", Json.Str "drain") ]
  | Shutdown -> [ ("op", Json.Str "shutdown") ]

let encode_request (r : request) : string =
  let head = [ ("v", Json.Str version); ("id", Json.Int r.req_id) ] in
  let deadline =
    match r.deadline_ms with
    | None -> []
    | Some ms -> [ ("deadline_ms", Json.Int ms) ]
  in
  Json.encode (Json.Obj (head @ op_fields r.op @ deadline))

let error_json code msg =
  Json.Obj [ ("code", Json.Str (error_code_name code)); ("msg", Json.Str msg) ]

(* ---------- retry hints ----------

   A fail-fast error produced by supervision (a shard's restart-storm
   breaker) carries how long the condition is expected to last.  On the
   wire it is a structured ["retry_after_ms"] field next to code/msg;
   inside the OCaml types the error stays [(code, msg)], so the hint is
   also embedded in the message text as ["retry_after_ms=N"] where
   {!retry_after_of_msg} can recover it (the client's backoff uses it as
   a sleep floor). *)

let retry_after_clause ms = Printf.sprintf "retry_after_ms=%d" (max 0 ms)

let retry_after_of_msg msg =
  let tag = "retry_after_ms=" in
  let tl = String.length tag in
  let n = String.length msg in
  let rec find i =
    if i + tl > n then None
    else if String.sub msg i tl = tag then begin
      let e = ref (i + tl) in
      while !e < n && msg.[!e] >= '0' && msg.[!e] <= '9' do incr e done;
      if !e = i + tl then find (i + 1)
      else int_of_string_opt (String.sub msg (i + tl) (!e - (i + tl)))
    end
    else find (i + 1)
  in
  find 0

let error_json_retry code msg ~retry_after_ms =
  Json.Obj
    [
      ("code", Json.Str (error_code_name code));
      ("msg", Json.Str msg);
      ("retry_after_ms", Json.Int (max 0 retry_after_ms));
    ]

let encode_error_reply ~rep_id code msg ~retry_after_ms : string =
  Json.encode
    (Json.Obj
       [
         ("v", Json.Str version);
         ("id", Json.Int rep_id);
         ("ok", Json.Bool false);
         ("error", error_json_retry code msg ~retry_after_ms);
       ])

let rec result_json = function
  | R_breakdown { baseline; rows } ->
    Json.Obj
      [
        ("kind", Json.Str "breakdown");
        ("baseline", Json.Float baseline);
        ( "rows",
          Json.Arr
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("label", Json.Str r.row_label);
                     ("percent", Json.Float r.row_percent);
                     ("cycles", Json.Float r.row_cycles);
                   ])
               rows) );
      ]
  | R_icost { baseline; rows } ->
    Json.Obj
      [
        ("kind", Json.Str "icost");
        ("baseline", Json.Float baseline);
        ( "rows",
          Json.Arr
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("set", Json.Str r.set_name);
                     ("cost", Json.Float r.set_cost);
                     ("icost", Json.Float r.set_icost);
                     ("class", Json.Str r.set_class);
                   ])
               rows) );
      ]
  | R_graph_stats { instrs; nodes; edges; critical_path } ->
    Json.Obj
      [
        ("kind", Json.Str "graph-stats");
        ("instrs", Json.Int instrs);
        ("nodes", Json.Int nodes);
        ("edges", Json.Int edges);
        ("critical_path", Json.Int critical_path);
      ]
  | R_sweep { baseline; curves } ->
    Json.Obj
      [
        ("kind", Json.Str "sweep");
        ("baseline", Json.Float baseline);
        ( "curves",
          Json.Arr
            (List.map
               (fun c ->
                 Json.Obj
                   (("param", Json.Str c.curve_param)
                    :: ("base_value", Json.Int c.curve_base)
                    :: (match c.curve_knee with
                       | None -> []
                       | Some k ->
                         [
                           ( "knee",
                             Json.Obj
                               [
                                 ("value", Json.Int k.kn_value);
                                 ("marginal", Json.Float k.kn_marginal);
                                 ("saturated", Json.Bool k.kn_saturated);
                               ] );
                         ])
                   @ [
                       ( "points",
                         Json.Arr
                           (List.map
                              (fun p ->
                                match p.sp_outcome with
                                | Ok (cycles, delta) ->
                                  Json.Obj
                                    [
                                      ("ok", Json.Bool true);
                                      ("value", Json.Int p.sp_value);
                                      ("cycles", Json.Float cycles);
                                      ("delta", Json.Float delta);
                                    ]
                                | Error (code, msg) ->
                                  Json.Obj
                                    [
                                      ("ok", Json.Bool false);
                                      ("value", Json.Int p.sp_value);
                                      ("error", error_json code msg);
                                    ])
                              c.curve_points) );
                     ]))
               curves) );
      ]
  | R_batch { results } ->
    Json.Obj
      [
        ("kind", Json.Str "batch");
        ( "results",
          Json.Arr
            (List.map
               (function
                 | Ok body ->
                   Json.Obj
                     [ ("ok", Json.Bool true); ("result", result_json body) ]
                 | Error (code, msg) ->
                   Json.Obj
                     [ ("ok", Json.Bool false); ("error", error_json code msg) ])
               results) );
      ]
  | R_status s ->
    Json.Obj
      [
        ("kind", Json.Str "status");
        ("uptime_s", Json.Float s.uptime_s);
        ("requests_total", Json.Int s.requests_total);
        ("inflight", Json.Int s.inflight);
        ("queue_depth", Json.Int s.queue_depth);
        ("sessions", Json.Int s.sessions);
        ("cache_hits", Json.Int s.cache_hits);
        ("cache_misses", Json.Int s.cache_misses);
        ("cache_evictions", Json.Int s.cache_evictions);
        ("snapshot_hits", Json.Int s.snapshot_hits);
        ("snapshot_misses", Json.Int s.snapshot_misses);
        ("snapshot_rejects", Json.Int s.snapshot_rejects);
        ("sweep_points", Json.Int s.sweep_points);
        ("sweep_cache_hits", Json.Int s.sweep_cache_hits);
        ("segments", Json.Int s.segments);
        ("stream_peak_mb", Json.Float s.stream_peak_mb);
        ("pool_jobs", Json.Int s.pool_jobs);
        ("shards", Json.Int s.shards);
        ("respawns", Json.Int s.respawns);
        ("failovers", Json.Int s.failovers);
        ("health", Json.Str s.health);
        ("draining", Json.Bool s.draining);
      ]
  | R_health h ->
    Json.Obj
      [
        ("kind", Json.Str "health");
        ("health", Json.Str h.h_health);
        ("breakers_open", Json.Int h.h_breakers_open);
        ("shed", Json.Int h.h_shed);
      ]
  | R_drain { restarted } ->
    Json.Obj [ ("kind", Json.Str "drain"); ("restarted", Json.Int restarted) ]
  | R_shutdown -> Json.Obj [ ("kind", Json.Str "shutdown") ]

let encode_reply (r : reply) : string =
  let head = [ ("v", Json.Str version); ("id", Json.Int r.rep_id) ] in
  let rest =
    match r.body with
    | Ok result -> [ ("ok", Json.Bool true); ("result", result_json result) ]
    | Error (code, msg) ->
      [ ("ok", Json.Bool false); ("error", error_json code msg) ]
  in
  Json.encode (Json.Obj (head @ rest))

(* ---------- pre-encoded reply assembly ----------

   The server's frame memo stores result objects as already-encoded
   JSON; these helpers splice such fragments into reply envelopes.  The
   splices must stay byte-identical to [encode_reply] on the equivalent
   tree — clients and tests compare replies as raw strings. *)

let encode_result (body : result_body) : string = Json.encode (result_json body)

let add_envelope buf rep_id =
  Buffer.add_string buf "{\"v\":\"";
  Buffer.add_string buf version;
  Buffer.add_string buf "\",\"id\":";
  Buffer.add_string buf (string_of_int rep_id);
  Buffer.add_string buf ",\"ok\":true,\"result\":"

let encode_ok_reply ~rep_id ~(result : string) : string =
  let buf = Buffer.create (String.length result + 64) in
  add_envelope buf rep_id;
  Buffer.add_string buf result;
  Buffer.add_char buf '}';
  Buffer.contents buf

let encode_batch_result ~(results : (string, error_code * string) result list)
    : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"kind\":\"batch\",\"results\":[";
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char buf ',';
      match item with
      | Ok result ->
        Buffer.add_string buf "{\"ok\":true,\"result\":";
        Buffer.add_string buf result;
        Buffer.add_char buf '}'
      | Error (code, msg) ->
        Buffer.add_string buf
          (Json.encode
             (Json.Obj
                [ ("ok", Json.Bool false); ("error", error_json code msg) ])))
    results;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let encode_batch_reply ~rep_id
    ~(results : (string, error_code * string) result list) : string =
  encode_ok_reply ~rep_id ~result:(encode_batch_result ~results)

(* ---------- raw frames ----------

   Control ops and error codes are recognized in the frame text, without
   a decode. *)

let has_substring line needle =
  let n = String.length line and m = String.length needle in
  let rec matches i j = j = m || (line.[i + j] = needle.[j] && matches i (j + 1)) in
  let rec from i = i + m <= n && (matches i 0 || from (i + 1)) in
  from 0

(* ---------- frame identity ----------

   Both relay layers memoize on the raw frame text: the router caches a
   frame's destination shard, the server caches a frame's encoded result.
   The request [id] is the one part of an otherwise repeated frame that
   varies, and our own encoder emits it in a fixed position right after
   the version field, so the memo key is the frame with the id digits
   sliced out.  Frames in any other field order (hand-written clients)
   simply return [None] and take the decode path — the memos are an
   optimisation, never a requirement. *)

let canonical_prefix = "{\"v\":\"icost.rpc.v1\",\"id\":"

let split_frame_id line =
  let pl = String.length canonical_prefix in
  let n = String.length line in
  let rec same i = i = pl || (line.[i] = canonical_prefix.[i] && same (i + 1)) in
  if n <= pl || not (same 0) then None
  else begin
    let e = ref pl in
    while !e < n && line.[!e] >= '0' && line.[!e] <= '9' do incr e done;
    if !e = pl || !e = n then None
    else
      match int_of_string_opt (String.sub line pl (!e - pl)) with
      | Some id -> Some (id, !e)
      | None -> None
  end

(* ---------- decoding ---------- *)

let ( let* ) = Result.bind

let field_or name default extract j =
  match Json.member name j with
  | None -> Ok default
  | Some v ->
    (match extract v with
     | Some x -> Ok x
     | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let required name extract j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v ->
    (match extract v with
     | Some x -> Ok x
     | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let check_version j =
  let* v = required "v" Json.get_str j in
  if v = version then Ok ()
  else Error (Printf.sprintf "unsupported protocol version %S" v)

let decode_target j =
  let* workload = required "workload" Json.get_str j in
  let* variant = field_or "variant" default_target.variant Json.get_str j in
  let* engine = field_or "engine" default_target.engine Json.get_str j in
  let* warmup = field_or "warmup" default_target.warmup Json.get_int j in
  let* measure = field_or "measure" default_target.measure Json.get_int j in
  let* seed = field_or "seed" default_target.seed Json.get_int j in
  if warmup < 0 || measure <= 0 then Error "warmup must be >= 0, measure > 0"
  else Ok { workload; variant; engine; warmup; measure; seed }

(* An op is decoded from the fields of its carrier object: the top-level
   request for single ops, or one element of "reqs" for batch items (same
   shape minus the v/id/deadline envelope).  A structurally malformed item
   fails the whole frame — per-item errors are reserved for semantic
   failures (unknown workload, nested batch, ...) discovered at execution. *)
let rec decode_op j =
  let* opname = required "op" Json.get_str j in
  match opname with
  | "breakdown" ->
    let* target = decode_target j in
    let* focus = field_or "focus" "dl1" Json.get_str j in
    Ok (Breakdown { target; focus })
  | "icost" ->
    let* target = decode_target j in
    let* sets =
      field_or "sets" [ "dl1,win" ]
        (fun v ->
          match Json.get_arr v with
          | None -> None
          | Some items ->
            let strs = List.filter_map Json.get_str items in
            if List.length strs = List.length items then Some strs else None)
        j
    in
    if sets = [] then Error "sets must be non-empty"
    else Ok (Icost { target; sets })
  | "graph-stats" ->
    let* target = decode_target j in
    Ok (Graph_stats { target })
  | "sweep" ->
    let* target = decode_target j in
    let* params =
      required "params"
        (fun v ->
          match Json.get_arr v with
          | None -> None
          | Some items ->
            let strs = List.filter_map Json.get_str items in
            if List.length strs = List.length items then Some strs else None)
        j
    in
    if params = [] then Error "params must be non-empty"
    else if List.length params > max_sweep_axes then
      Error
        (Printf.sprintf "sweep exceeds %d axes (%d)" max_sweep_axes
           (List.length params))
    else Ok (Sweep { target; params })
  | "batch" ->
    (match Json.member "reqs" j with
     | None -> Error "missing field \"reqs\""
     | Some v ->
       (match Json.get_arr v with
        | None -> Error "field \"reqs\" has the wrong type"
        | Some [] -> Error "reqs must be non-empty"
        | Some items when List.length items > max_batch_items ->
          Error
            (Printf.sprintf "batch exceeds %d items (%d)" max_batch_items
               (List.length items))
        | Some items ->
          let rec go acc = function
            | [] -> Ok (Batch { ops = List.rev acc })
            | item :: rest ->
              let* op = decode_op item in
              go (op :: acc) rest
          in
          go [] items))
  | "status" -> Ok Status
  | "health" -> Ok Health
  | "drain" -> Ok Drain
  | "shutdown" -> Ok Shutdown
  | other -> Error (Printf.sprintf "unknown op %S" other)

let decode_request (line : string) : (request, string) result =
  if String.length line > max_request_bytes then
    Error
      (Printf.sprintf "request exceeds %d bytes (%d)" max_request_bytes
         (String.length line))
  else
    let* j =
      match Json.parse line with
      | j -> Ok j
      | exception Json.Parse_error m -> Error ("malformed JSON: " ^ m)
    in
    let* () = check_version j in
    let* req_id = required "id" Json.get_int j in
    let* deadline_ms =
      field_or "deadline_ms" None (fun v -> Option.map Option.some (Json.get_int v)) j
    in
    let* () =
      match deadline_ms with
      | Some ms when ms < 0 -> Error "deadline_ms must be >= 0"
      | _ -> Ok ()
    in
    let* op = decode_op j in
    Ok { req_id; deadline_ms; op }

let decode_rows j ~of_obj =
  match Json.get_arr j with
  | None -> Error "rows is not an array"
  | Some items ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest ->
        let* r = of_obj item in
        go (r :: acc) rest
    in
    go [] items

let decode_error e =
  let* code_name = required "code" Json.get_str e in
  let* msg = required "msg" Json.get_str e in
  match error_code_of_name code_name with
  | Some code -> Ok (code, msg)
  | None -> Error (Printf.sprintf "unknown error code %S" code_name)

let rec decode_result j =
  let* kind = required "kind" Json.get_str j in
  match kind with
  | "breakdown" ->
    let* baseline = required "baseline" Json.get_float j in
    let* rows =
      match Json.member "rows" j with
      | None -> Error "missing rows"
      | Some rows ->
        decode_rows rows ~of_obj:(fun item ->
            let* row_label = required "label" Json.get_str item in
            let* row_percent = required "percent" Json.get_float item in
            let* row_cycles = required "cycles" Json.get_float item in
            Ok { row_label; row_percent; row_cycles })
    in
    Ok (R_breakdown { baseline; rows })
  | "icost" ->
    let* baseline = required "baseline" Json.get_float j in
    let* rows =
      match Json.member "rows" j with
      | None -> Error "missing rows"
      | Some rows ->
        decode_rows rows ~of_obj:(fun item ->
            let* set_name = required "set" Json.get_str item in
            let* set_cost = required "cost" Json.get_float item in
            let* set_icost = required "icost" Json.get_float item in
            let* set_class = required "class" Json.get_str item in
            Ok { set_name; set_cost; set_icost; set_class })
    in
    Ok (R_icost { baseline; rows })
  | "graph-stats" ->
    let* instrs = required "instrs" Json.get_int j in
    let* nodes = required "nodes" Json.get_int j in
    let* edges = required "edges" Json.get_int j in
    let* critical_path = required "critical_path" Json.get_int j in
    Ok (R_graph_stats { instrs; nodes; edges; critical_path })
  | "sweep" ->
    let* baseline = required "baseline" Json.get_float j in
    let* curves =
      match Json.member "curves" j with
      | None -> Error "missing curves"
      | Some curves ->
        decode_rows curves ~of_obj:(fun c ->
            let* curve_param = required "param" Json.get_str c in
            let* curve_base = required "base_value" Json.get_int c in
            let* curve_knee =
              match Json.member "knee" c with
              | None -> Ok None
              | Some k ->
                let* kn_value = required "value" Json.get_int k in
                let* kn_marginal = required "marginal" Json.get_float k in
                let* kn_saturated = required "saturated" Json.get_bool k in
                Ok (Some { kn_value; kn_marginal; kn_saturated })
            in
            let* curve_points =
              match Json.member "points" c with
              | None -> Error "missing points"
              | Some points ->
                decode_rows points ~of_obj:(fun p ->
                    let* ok = required "ok" Json.get_bool p in
                    let* sp_value = required "value" Json.get_int p in
                    if ok then
                      let* cycles = required "cycles" Json.get_float p in
                      let* delta = required "delta" Json.get_float p in
                      Ok { sp_value; sp_outcome = Ok (cycles, delta) }
                    else
                      match Json.member "error" p with
                      | None -> Error "missing error"
                      | Some e ->
                        let* code, msg = decode_error e in
                        Ok { sp_value; sp_outcome = Error (code, msg) })
            in
            Ok { curve_param; curve_base; curve_knee; curve_points })
    in
    Ok (R_sweep { baseline; curves })
  | "batch" ->
    (match Json.member "results" j with
     | None -> Error "missing results"
     | Some v ->
       (match Json.get_arr v with
        | None -> Error "results is not an array"
        | Some items ->
          let rec go acc = function
            | [] -> Ok (R_batch { results = List.rev acc })
            | item :: rest ->
              let* r = decode_result_item item in
              go (r :: acc) rest
          in
          go [] items))
  | "status" ->
    let* uptime_s = required "uptime_s" Json.get_float j in
    let* requests_total = required "requests_total" Json.get_int j in
    let* inflight = required "inflight" Json.get_int j in
    let* queue_depth = required "queue_depth" Json.get_int j in
    let* sessions = required "sessions" Json.get_int j in
    let* cache_hits = required "cache_hits" Json.get_int j in
    let* cache_misses = required "cache_misses" Json.get_int j in
    let* cache_evictions = required "cache_evictions" Json.get_int j in
    let* snapshot_hits = required "snapshot_hits" Json.get_int j in
    let* snapshot_misses = required "snapshot_misses" Json.get_int j in
    let* snapshot_rejects = required "snapshot_rejects" Json.get_int j in
    (* absent in pre-sweep frames: default 0 keeps old captures decodable *)
    let* sweep_points = field_or "sweep_points" 0 Json.get_int j in
    let* sweep_cache_hits = field_or "sweep_cache_hits" 0 Json.get_int j in
    (* absent in pre-stream frames: default 0 keeps old captures decodable *)
    let* segments = field_or "segments" 0 Json.get_int j in
    let* stream_peak_mb = field_or "stream_peak_mb" 0. Json.get_float j in
    let* pool_jobs = required "pool_jobs" Json.get_int j in
    (* absent in pre-batch frames: default 0 keeps old captures decodable *)
    let* shards = field_or "shards" 0 Json.get_int j in
    (* absent in pre-supervision frames, same rationale *)
    let* respawns = field_or "respawns" 0 Json.get_int j in
    let* failovers = field_or "failovers" 0 Json.get_int j in
    let* health = required "health" Json.get_str j in
    let* draining = required "draining" Json.get_bool j in
    Ok
      (R_status
         {
           uptime_s;
           requests_total;
           inflight;
           queue_depth;
           sessions;
           cache_hits;
           cache_misses;
           cache_evictions;
           snapshot_hits;
           snapshot_misses;
           snapshot_rejects;
           sweep_points;
           sweep_cache_hits;
           segments;
           stream_peak_mb;
           pool_jobs;
           shards;
           respawns;
           failovers;
           health;
           draining;
         })
  | "health" ->
    let* h_health = required "health" Json.get_str j in
    let* h_breakers_open = required "breakers_open" Json.get_int j in
    let* h_shed = required "shed" Json.get_int j in
    Ok (R_health { h_health; h_breakers_open; h_shed })
  | "drain" ->
    let* restarted = field_or "restarted" 0 Json.get_int j in
    Ok (R_drain { restarted })
  | "shutdown" -> Ok R_shutdown
  | other -> Error (Printf.sprintf "unknown result kind %S" other)

and decode_result_item j =
  let* ok = required "ok" Json.get_bool j in
  if ok then begin
    match Json.member "result" j with
    | None -> Error "missing result"
    | Some r ->
      let* body = decode_result r in
      Ok (Ok body)
  end
  else begin
    match Json.member "error" j with
    | None -> Error "missing error"
    | Some e ->
      let* code, msg = decode_error e in
      Ok (Error (code, msg))
  end

let decode_reply (line : string) : (reply, string) result =
  let* j =
    match Json.parse line with
    | j -> Ok j
    | exception Json.Parse_error m -> Error ("malformed JSON: " ^ m)
  in
  let* () = check_version j in
  let* rep_id = required "id" Json.get_int j in
  let* ok = required "ok" Json.get_bool j in
  if ok then begin
    match Json.member "result" j with
    | None -> Error "missing result"
    | Some result ->
      let* body = decode_result result in
      Ok { rep_id; body = Ok body }
  end
  else begin
    match Json.member "error" j with
    | None -> Error "missing error"
    | Some e ->
      let* code, msg = decode_error e in
      Ok { rep_id; body = Error (code, msg) }
  end
