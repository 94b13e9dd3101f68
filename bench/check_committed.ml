(** Checks a result file written by [main.exe]: its header names the
    scale and the host, every row passed its check, and every family of
    {!Families.all} has a row. The writer puts one row on each line, so a
    line scan suffices. Exits 1 naming each problem.

    Usage: [check_committed.exe BENCH_refresh.json] *)

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec from i = i + m <= n && (String.sub line i m = sub || from (i + 1)) in
  from 0

let () =
  let path = Sys.argv.(1) in
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
  in
  let rows = List.filter (fun l -> contains l "\"shape\": ") lines in
  let problems =
    List.filter_map
      (fun key ->
         if List.exists (fun l -> contains l (Printf.sprintf "%S: " key)) lines
         then None
         else Some ("the header names no " ^ key))
      [ "scale"; "host" ]
    @ List.filter_map
        (fun l ->
           if contains l "\"converged\": true" then None
           else Some ("a row failed its check: " ^ String.trim l))
        rows
    @ List.filter_map
        (fun family ->
           if List.exists (fun l -> contains l (Printf.sprintf "\"shape\": %S," family)) rows
           then None
           else Some ("no row of family " ^ family))
        Families.all
  in
  List.iter (fun p -> Printf.eprintf "%s: %s\n" path p) problems;
  if problems <> [] then exit 1
