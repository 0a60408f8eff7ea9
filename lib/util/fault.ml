(* Deterministic fault injection.  See fault.mli for the contract.

   Concurrency design mirrors Telemetry: one atomic enabled flag guards
   the fast path; points are interned in a mutex-guarded registry; each
   point's hit counter and PRNG advance under the point's own mutex, so
   a point's schedule depends only on its own hit order. *)

type mode =
  | Off
  | Prob of float  (* fire each hit with probability p *)
  | At of int  (* fire on the k-th hit only (1-based) *)
  | From of int  (* fire on every hit from the k-th onward *)

type point = {
  pname : string;
  lock : Mutex.t;
  mutable mode : mode;
  mutable prng : Prng.t;
  mutable hits : int;
  mutable fired : int;
}

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected p -> Some (Printf.sprintf "injected fault at point %S" p)
    | _ -> None)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let c_injected = Telemetry.counter "fault.injected"

type config = { spec : string; seed : int; modes : (string * mode) list }

let registry_mutex = Mutex.create ()

let registry : (string, point) Hashtbl.t = Hashtbl.create 16

(* guarded by registry_mutex *)
let active : config option ref = ref None

(* Hashtbl.hash on strings is deterministic across runs, which makes the
   per-point seed derivation stable for a given (global seed, name). *)
let arm cfg p =
  p.mode <-
    (match List.assoc_opt p.pname cfg.modes with Some m -> m | None -> Off);
  p.prng <- Prng.create (cfg.seed lxor Hashtbl.hash p.pname);
  p.hits <- 0;
  p.fired <- 0

let point name =
  Mutex.lock registry_mutex;
  let p =
    match Hashtbl.find_opt registry name with
    | Some p -> p
    | None ->
      let p =
        { pname = name; lock = Mutex.create (); mode = Off;
          prng = Prng.create (Hashtbl.hash name); hits = 0; fired = 0 }
      in
      (match !active with Some cfg -> arm cfg p | None -> ());
      Hashtbl.add registry name p;
      p
  in
  Mutex.unlock registry_mutex;
  p

let name p = p.pname

let hits p =
  Mutex.lock p.lock;
  let n = p.hits in
  Mutex.unlock p.lock;
  n

let fired p =
  Mutex.lock p.lock;
  let n = p.fired in
  Mutex.unlock p.lock;
  n

(* ---------- spec parsing ---------- *)

let parse_mode ~point_name s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if s = "" then err "point %S: empty trigger" point_name
  else if s.[0] = '@' then begin
    let body = String.sub s 1 (String.length s - 1) in
    let every, body =
      if body <> "" && body.[String.length body - 1] = '+' then
        (true, String.sub body 0 (String.length body - 1))
      else (false, body)
    in
    match int_of_string_opt body with
    | Some k when k >= 1 -> Ok (if every then From k else At k)
    | _ -> err "point %S: bad schedule %S (want @K or @K+, K >= 1)" point_name s
  end
  else
    match float_of_string_opt s with
    | Some p when p >= 0. && p <= 1. -> Ok (Prob p)
    | _ -> err "point %S: bad probability %S (want a float in [0,1])" point_name s

let parse_point part =
  match String.index_opt part ':' with
  | None ->
    if part = "" then Error "empty point name"
    else Ok (part, From 1) (* bare name: fire on every hit *)
  | Some i ->
    let name = String.sub part 0 i in
    let trig = String.sub part (i + 1) (String.length part - i - 1) in
    if name = "" then Error (Printf.sprintf "missing point name in %S" part)
    else Result.map (fun m -> (name, m)) (parse_mode ~point_name:name trig)

let mode_to_string = function
  | Off -> "off"
  | Prob p -> Printf.sprintf "%g" p
  | At k -> Printf.sprintf "@%d" k
  | From k -> Printf.sprintf "@%d+" k

let normalize modes seed =
  String.concat ","
    (List.map (fun (n, m) -> Printf.sprintf "%s:%s" n (mode_to_string m)) modes)
  ^ Printf.sprintf ";seed=%d" seed

let parse spec =
  let ( let* ) = Result.bind in
  let segments =
    String.split_on_char ';' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go seed modes = function
    | [] -> Ok (seed, List.rev modes)
    | seg :: rest ->
      if String.length seg >= 5 && String.sub seg 0 5 = "seed=" then begin
        match int_of_string_opt (String.sub seg 5 (String.length seg - 5)) with
        | Some s -> go s modes rest
        | None -> Error (Printf.sprintf "bad seed in %S" seg)
      end
      else begin
        let parts =
          String.split_on_char ',' seg |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        if parts = [] then Error (Printf.sprintf "empty point list in %S" seg)
        else
          let* pts =
            List.fold_left
              (fun acc part ->
                let* acc = acc in
                let* p = parse_point part in
                Ok (p :: acc))
              (Ok []) parts
          in
          go seed (pts @ modes) rest
      end
  in
  let* seed, modes = go 0 [] segments in
  if modes = [] then Error "no injection points in spec"
  else Ok { spec = normalize modes seed; seed; modes }

(* ---------- configuration ---------- *)

let configure spec =
  match parse spec with
  | Error _ as e -> e
  | Ok cfg ->
    Mutex.lock registry_mutex;
    active := Some cfg;
    Hashtbl.iter (fun _ p -> arm cfg p) registry;
    Mutex.unlock registry_mutex;
    Atomic.set enabled_flag true;
    Ok ()

let configure_exn spec =
  match configure spec with
  | Ok () -> ()
  | Error m -> invalid_arg ("Fault.configure: " ^ m)

let from_env () =
  match Sys.getenv_opt "ICOST_FAULTS" with
  | None | Some "" -> Ok ()
  | Some spec -> configure spec

let disable () =
  Atomic.set enabled_flag false;
  Mutex.lock registry_mutex;
  active := None;
  Hashtbl.iter (fun _ p -> p.mode <- Off) registry;
  Mutex.unlock registry_mutex

let active_spec () =
  Mutex.lock registry_mutex;
  let s = match !active with Some c -> Some c.spec | None -> None in
  Mutex.unlock registry_mutex;
  s

(* ---------- the hot path ---------- *)

let fire p =
  Atomic.get enabled_flag
  && begin
       Mutex.lock p.lock;
       p.hits <- p.hits + 1;
       let f =
         match p.mode with
         | Off -> false
         | Prob pr -> Prng.float p.prng < pr
         | At k -> p.hits = k
         | From k -> p.hits >= k
       in
       if f then p.fired <- p.fired + 1;
       Mutex.unlock p.lock;
       if f then Telemetry.incr c_injected;
       f
     end

let trip p = if fire p then raise (Injected p.pname)
