(* icost_bench: the seeded end-to-end benchmark of icost.

   Usage:
     icost_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--trace-out FILE] [--quick] [--icost PATH]
       Run one workload (all four without --workload).  Prints every
       end-to-end metric by name with its unit and, with --trace 1, every
       per-layer metric; the last line is the result as one JSON object.
       Exits 1 when a correctness check fails.
     icost_bench compare [--benchmark FILE] PARENT_OUT... --change CHANGE_OUT...
       Judge a change from the saved outputs of alternating runs.
     icost_bench smoke [--benchmark FILE] [--icost PATH]
       Run every workload briefly (--quick), traced and not, and check the
       printed metrics against BENCHMARK.json.

   README.md in this directory describes the workloads and metrics. *)

open Icost_bench_lib
module Json = Icost_service.Json

let usage () =
  prerr_endline
    "usage: icost_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-out FILE] [--quick] [--icost PATH]\n\
    \       icost_bench compare [--benchmark FILE] PARENT_OUT... --change CHANGE_OUT...\n\
    \       icost_bench smoke [--benchmark FILE] [--icost PATH]";
  exit 2

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("icost_bench: " ^ m); exit 2) fmt

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
  quick : bool;
  icost : string;
}

let parse_opts args =
  let num f what v = match f v with Some x -> x | None -> fail "bad %s %S" what v in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
      if not (List.mem w Catalog.workloads) then
        fail "unknown workload %S (one of: %s)" w (String.concat ", " Catalog.workloads);
      go { o with workload = Some w } rest
    | "--seed" :: v :: rest -> go { o with seed = num int_of_string_opt "seed" v } rest
    | "--seconds" :: v :: rest ->
      let s = num float_of_string_opt "seconds" v in
      if not (s > 0.) then fail "--seconds must be positive";
      go { o with seconds = s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace-out" :: f :: rest -> go { o with trace_out = Some f } rest
    | "--quick" :: rest -> go { o with quick = true } rest
    | "--icost" :: p :: rest -> go { o with icost = p } rest
    | _ -> usage ()
  in
  go
    {
      workload = None;
      seed = Catalog.default_seed;
      seconds = Catalog.default_seconds;
      trace = false;
      trace_out = None;
      quick = false;
      icost = "_build/default/bin/main.exe";
    }
    args

let run_workload o name =
  let spans = Spans.create (1 lsl 17) in
  Report.print_header { Report.workload = name; seed = o.seed; trace = o.trace }
    ~seconds:o.seconds ~quick:o.quick;
  let seed = o.seed and seconds = o.seconds and quick = o.quick and traced = o.trace in
  let outcome =
    match name with
    | "stream-gcc" -> Stream_wl.run Stream_wl.gcc ~seed ~seconds ~quick ~traced ~spans
    | "stream-mcf-seg256" -> Stream_wl.run Stream_wl.mcf_seg256 ~seed ~seconds ~quick ~traced ~spans
    | "breakdown-cold" -> Breakdown_wl.run ~seed ~seconds ~quick ~traced ~spans
    | _ -> Serve_wl.run ~icost:o.icost ~seed ~seconds ~quick ~traced ~spans
  in
  if traced then begin
    if spans.Spans.dropped > 0 then
      Printf.printf "  (%d spans dropped: the trace buffer was full)\n" spans.Spans.dropped;
    Option.iter (Spans.write_chrome spans) o.trace_out
  end;
  Report.print ~trace:o.trace outcome;
  outcome.Report.correct

let bench args =
  let o = parse_opts args in
  if o.workload = Some "serve-mix" || o.workload = None then
    if not (Sys.file_exists o.icost) then
      fail "no icost binary at %s (build it, or pass --icost PATH)" o.icost;
  let names = match o.workload with Some w -> [ w ] | None -> Catalog.workloads in
  let ok = List.fold_left (fun ok w -> run_workload o w && ok) true names in
  exit (if ok then 0 else 1)

(* ---- compare ---- *)

let compare_cmd args =
  let rec go bench parent change side = function
    | [] -> (bench, List.rev parent, List.rev change)
    | "--benchmark" :: f :: rest -> go f parent change side rest
    | "--change" :: rest -> go bench parent change `Change rest
    | f :: rest -> (
        match side with
        | `Parent -> go bench (f :: parent) change side rest
        | `Change -> go bench parent (f :: change) side rest)
  in
  let benchmark, parent_files, change_files = go "BENCHMARK.json" [] [] `Parent args in
  if parent_files = [] || change_files = [] then usage ();
  exit (Compare.run ~benchmark ~parent_files ~change_files)

(* ---- smoke ---- *)

(* BENCHMARK.json must describe exactly the workloads and metrics this
   program prints. *)
let check_benchmark_json file =
  let j = Json.parse (In_channel.with_open_text file In_channel.input_all) in
  let list k = Option.value ~default:[] (Option.bind (Json.member k j) Json.get_arr) in
  let str k m = Option.value ~default:"" (Option.bind (Json.member k m) Json.get_str) in
  let pairs k = List.map (fun m -> (str "name" m, str "unit" m)) (list k) in
  let problems =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        (List.map (str "name") (list "workloads") = Catalog.workloads, "workloads");
        (pairs "end_to_end" = Catalog.end_to_end, "end_to_end names or units");
        (pairs "per_layer" = Catalog.per_layer, "per_layer names or units");
        ( Option.bind (Json.member "run_seconds" j) Json.get_float
          = Some Catalog.default_seconds,
          "run_seconds" );
      ]
  in
  List.iter (fun p -> Printf.printf "BENCHMARK.json disagrees with icost_bench: %s\n" p) problems;
  problems = []

let run_captured prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  (out, Unix.close_process_in ic)

let smoke args =
  let rec go bench icost = function
    | [] -> (bench, icost)
    | "--benchmark" :: f :: rest -> go f icost rest
    | "--icost" :: p :: rest -> go bench p rest
    | _ -> usage ()
  in
  let benchmark, icost = go "BENCHMARK.json" "_build/default/bin/main.exe" args in
  let ok = ref (check_benchmark_json benchmark) in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let out, status =
            run_captured Sys.executable_name
              [ "--workload"; w; "--seconds"; "0.3"; "--trace"; trace; "--quick"; "--icost"; icost ]
          in
          let expected = if trace = "1" then Catalog.per_layer else Catalog.end_to_end in
          let verdict =
            match (status, Report.parse_output out) with
            | Unix.WEXITED 0, r ->
              let printed = List.map (fun (n, (_, u)) -> (n, u)) r.Report.values in
              if not r.Report.r_correct then Error "a correctness check failed"
              else if r.Report.r_failed <> 0 then Error "failed operations"
              else if r.Report.r_attempted < 1 then Error "nothing attempted"
              else if printed <> expected then Error "metric names or units differ"
              else Ok ()
            | _, _ -> Error "non-zero exit"
            | exception e -> Error (Printexc.to_string e)
          in
          match verdict with
          | Ok () -> Printf.printf "smoke %-18s trace=%s ok\n%!" w trace
          | Error why ->
            ok := false;
            Printf.printf "smoke %-18s trace=%s FAILED: %s\n%s\n%!" w trace why out)
        [ "0"; "1" ])
    Catalog.workloads;
  exit (if !ok then 0 else 1)

let () =
  (* a daemon that dies mid-write must surface as an error, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Icost_util.Pool.set_jobs 1;
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> compare_cmd rest
  | "smoke" :: rest -> smoke rest
  | ("-h" | "--help") :: _ -> usage ()
  | args -> bench args
