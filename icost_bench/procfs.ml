(* Process statistics read from Linux /proc, for the process doing the
   analysis: the benchmark itself, or the daemon it serves against. *)

let read path = In_channel.with_open_text path In_channel.input_all

(* Peak resident set (VmHWM) in MB; [pid] is a pid or "self". *)
let peak_rss_mb pid =
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read (Printf.sprintf "/proc/%s/status" pid)))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* User + system CPU time in ms.  /proc counts it in USER_HZ ticks,
   which Linux fixes at 100 per second. *)
let cpu_ms pid =
  let s = read (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name, which may hold spaces:
     state is the first, utime the 12th and stime the 13th *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) *. 10.
