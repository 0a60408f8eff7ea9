(* [icost_bench compare]: judge a change against its parent from the
   printed outputs of alternating runs of both.

   For every (end-to-end metric, workload) pair:
   - improved: at least 10 pairs, the change wins at least 9 in 10 of them
     (ties count for neither side), and the medians differ by more than
     the parent's interquartile range, in the change's favour;
   - unresolved: the parent's own spread is wider than the metric's bound
     and not every change run beats every parent run;
   - regressed: the change's median is worse than the parent's by more
     than the bound fixed in BENCHMARK.json;
   - no worse: otherwise.
   Traced runs add the exact counts, which must not drift between the two
   sides on the same seed. *)

module Json = Icost_service.Json

type bound = { better_lower : bool; bound : float }

let load_bounds file =
  let j = Json.parse (In_channel.with_open_text file In_channel.input_all) in
  match Option.bind (Json.member "end_to_end" j) Json.get_arr with
  | None -> failwith (file ^ ": no end_to_end list")
  | Some ms ->
    List.map
      (fun m ->
        let get k f =
          match Option.bind (Json.member k m) f with
          | Some v -> v
          | None -> failwith (Printf.sprintf "%s: end_to_end entry without %S" file k)
        in
        ( get "name" Json.get_str,
          { better_lower = get "better" Json.get_str = "lower"; bound = get "bound" Json.get_float } ))
      ms

let load_run file = Report.parse_output (In_channel.with_open_text file In_channel.input_all)

type verdict = Improved | No_worse | Unresolved | Regressed

let verdict_name = function
  | Improved -> "improved"
  | No_worse -> "no worse"
  | Unresolved -> "unresolved"
  | Regressed -> "regressed"

(* [parent] and [change] in run order: the i-th of each form a pair. *)
let judge { better_lower; bound } ~parent ~change =
  let better a b = if better_lower then a < b else a > b in
  let pairs = min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better change.(i) parent.(i) then incr wins
  done;
  let mp = Pct.median parent and mc = Pct.median change in
  let spread = if Array.length parent >= 2 then Pct.iqr parent else infinity in
  let worse = (if better_lower then mc -. mp else mp -. mc) /. Float.abs mp in
  let all_better =
    Array.for_all (fun c -> Array.for_all (fun p -> better c p) parent) change
  in
  if pairs >= 10 && 10 * !wins >= 9 * pairs && better mc mp && Float.abs (mc -. mp) > spread
  then Improved
  else if spread /. Float.abs mp > bound && not all_better then Unresolved
  else if worse > bound then Regressed
  else No_worse

let run ~benchmark ~parent_files ~change_files =
  let bounds = load_bounds benchmark in
  let parent = List.map load_run parent_files and change = List.map load_run change_files in
  let workloads =
    List.sort_uniq compare
      (List.map (fun (r : Report.run) -> r.Report.header.Report.workload) (parent @ change))
  in
  let values runs w ~trace name =
    Array.of_list
      (List.filter_map
         (fun (r : Report.run) ->
           if r.Report.header.Report.workload = w && r.Report.header.Report.trace = trace
           then Option.map fst (List.assoc_opt name r.Report.values)
           else None)
         runs)
  in
  let bad = ref false in
  Printf.printf "%-18s %-20s %12s %12s %8s  %s\n" "workload" "metric" "parent" "change"
    "delta" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (name, b) ->
          let p = values parent w ~trace:false name and c = values change w ~trace:false name in
          if Array.length p > 0 && Array.length c > 0 then begin
            let v = judge b ~parent:p ~change:c in
            if v = Regressed then bad := true;
            let mp = Pct.median p and mc = Pct.median c in
            Printf.printf "%-18s %-20s %12.5g %12.5g %+7.1f%%  %s (%d vs %d runs)\n" w name mp mc
              ((mc -. mp) /. Float.abs mp *. 100.)
              (verdict_name v) (Array.length p) (Array.length c)
          end)
        bounds;
      let failed runs =
        List.fold_left
          (fun a (r : Report.run) ->
            if r.Report.header.Report.workload = w then a + r.Report.r_failed else a)
          0 runs
      in
      if failed change > failed parent then begin
        bad := true;
        Printf.printf "%-18s more failed operations: %d vs %d\n" w (failed change) (failed parent)
      end;
      (* exact counts: same workload, same seed, traced on both sides *)
      List.iter
        (fun (pr : Report.run) ->
          List.iter
            (fun (cr : Report.run) ->
              let ph = pr.Report.header and ch = cr.Report.header in
              if ph.Report.workload = w && ch.Report.workload = w && ph.Report.trace
                 && ch.Report.trace && ph.Report.seed = ch.Report.seed
              then
                List.iter
                  (fun name ->
                    match
                      (List.assoc_opt name pr.Report.values, List.assoc_opt name cr.Report.values)
                    with
                    | Some (a, _), Some (b, _) when a <> b ->
                      bad := true;
                      Printf.printf "%-18s %-20s drift on seed %d: %.17g -> %.17g\n" w name
                        ph.Report.seed a b
                    | _ -> ())
                  Catalog.exact)
            change)
        parent)
    workloads;
  if !bad then 1 else 0
