(* One run's outcome, how it is printed, and how a printed run is read
   back (by [compare] and the smoke test). *)

module Json = Icost_service.Json

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;  (** layers this workload reaches *)
}

type header = { workload : string; seed : int; trace : bool }

let header_prefix = "# icost_bench "

let print_header h ~seconds ~quick =
  Printf.printf "%sworkload=%s seed=%d seconds=%g trace=%d quick=%b\n%!"
    header_prefix h.workload h.seed seconds
    (if h.trace then 1 else 0)
    quick

(* The metrics a run reports: the end-to-end set untraced, every
   per-layer metric traced (0 for a layer the workload never reaches). *)
let metrics ~trace (o : outcome) =
  let pick names have =
    List.map
      (fun (name, _) ->
        let v = Option.value ~default:0. (List.assoc_opt name have) in
        (name, if Float.is_finite v then v else 0.))
      names
  in
  if trace then pick Catalog.per_layer o.layers else pick Catalog.end_to_end o.e2e

let print ~trace (o : outcome) =
  let shown = metrics ~trace o in
  let table label rows =
    Printf.printf "%s:\n" label;
    List.iter
      (fun (name, v) ->
        Printf.printf "  %-36s %16.10g %s\n" name v (Catalog.unit_of name))
      rows
  in
  table "end-to-end" (metrics ~trace:false o);
  if trace then table "per-layer" shown;
  Printf.printf "correct=%b attempted=%d failed=%d\n" o.correct o.attempted o.failed;
  let metric (name, v) =
    (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (Catalog.unit_of name)) ])
  in
  print_endline
    (Json.encode
       (Json.Obj
          [
            ("correct", Json.Bool o.correct);
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", Json.Obj (List.map metric shown));
          ]))

(* ---- reading printed runs back ---- *)

type run = {
  header : header;
  r_correct : bool;
  r_attempted : int;
  r_failed : int;
  values : (string * (float * string)) list;
}

let parse_header line =
  let fields =
    String.split_on_char ' '
      (String.sub line (String.length header_prefix)
         (String.length line - String.length header_prefix))
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | Some i -> Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
           | None -> None)
  in
  let get k = List.assoc k fields in
  { workload = get "workload"; seed = int_of_string (get "seed"); trace = get "trace" = "1" }

let parse_result line =
  let j = Json.parse line in
  let field k get =
    match Option.bind (Json.member k j) get with
    | Some v -> v
    | None -> failwith (Printf.sprintf "result line: missing or malformed %S" k)
  in
  let metric (name, m) =
    match
      ( Option.bind (Json.member "value" m) Json.get_float,
        Option.bind (Json.member "unit" m) Json.get_str )
    with
    | Some v, Some u -> (name, (v, u))
    | _ -> failwith (Printf.sprintf "result line: malformed metric %S" name)
  in
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) -> List.map metric kvs
    | _ -> failwith "result line: missing \"metrics\""
  in
  (field "correct" Json.get_bool, field "attempted" Json.get_int,
   field "failed" Json.get_int, metrics)

(* A run's standard output: its header line and, last, its result. *)
let parse_output text =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  let header =
    match List.find_opt (String.starts_with ~prefix:header_prefix) lines with
    | Some l -> parse_header l
    | None -> failwith "no icost_bench header line"
  in
  match List.rev lines with
  | last :: _ ->
    let r_correct, r_attempted, r_failed, values = parse_result last in
    { header; r_correct; r_attempted; r_failed; values }
  | [] -> failwith "empty output"
