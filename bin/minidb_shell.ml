(** Interactive shell — the demonstration's "DuckDB shell" stand-in: a
    read-eval-print loop over the Minidb engine with the OpenIVM extension
    loaded, so CREATE MATERIALIZED VIEW works natively and base-table DML
    feeds the installed views.

    Dot commands: .tables, .views, .plan <sql>, .scripts <view>,
    .refresh <view>, .help, .quit.

    With [--connect HOST:PORT] (or [--connect /path/to.sock]) the shell
    runs as a line-protocol client of [openivm serve] instead: the same
    read-eval-print loop, but statements travel over the wire and views
    are maintained by the server's tick scheduler. *)

open Openivm_engine

let print_help () =
  print_string
    "Statements end with ';'. CREATE MATERIALIZED VIEW is compiled by \
     OpenIVM.\n\
     .tables             list tables\n\
     .views              list installed materialized views\n\
     .plan SELECT ...;   show the optimized logical plan\n\
     .scripts NAME       show the stored propagation script for a view\n\
     .refresh NAME       force-refresh a materialized view\n\
     .help               this message\n\
     .quit               exit\n"

let handle_dot (ext : Openivm.Runner.extension) line =
  let db = ext.Openivm.Runner.ext_db in
  let parts =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  match parts with
  | [ ".quit" ] | [ ".exit" ] -> exit 0
  | [ ".help" ] -> print_help ()
  | [ ".tables" ] ->
    List.iter print_endline (Catalog.table_names (Database.catalog db))
  | [ ".views" ] ->
    List.iter
      (fun v ->
         Printf.printf "%s  (pending deltas: %d, refreshes: %d)\n"
           (Openivm.Runner.view_name v)
           (Openivm.Runner.pending_deltas v) v.Openivm.Runner.refresh_count)
      ext.Openivm.Runner.ext_views
  | ".plan" :: rest ->
    let sql = String.concat " " rest in
    let sql =
      if String.length sql > 0 && sql.[String.length sql - 1] = ';' then
        String.sub sql 0 (String.length sql - 1)
      else sql
    in
    (match Database.exec db ("EXPLAIN " ^ sql) with
     | Database.Ok_msg plan -> print_endline plan
     | _ -> print_endline "(no plan)")
  | [ ".scripts"; name ] ->
    (match Database.exec db
             (Printf.sprintf
                "SELECT step, purpose, sql FROM _openivm_scripts WHERE \
                 view_name = '%s' ORDER BY step"
                name)
     with
     | Database.Rows r ->
       List.iter
         (fun (row : Row.t) ->
            Printf.printf "-- step %s (%s)\n%s;\n"
              (Value.to_string row.(0)) (Value.to_string row.(1))
              (Value.to_string row.(2)))
         r.Database.rows
     | _ -> print_endline "(no scripts)")
  | [ ".refresh"; name ] ->
    (match Openivm.Runner.find_view ext name with
     | Some v ->
       Openivm.Runner.force_refresh v;
       print_endline "refreshed"
     | None -> Printf.printf "no installed view %S\n" name)
  | _ -> print_endline "unknown command; try .help"

let execute ext sql =
  let stmt = Openivm_sql.Parser.parse_statement sql in
  match Openivm.Runner.exec_ext ext stmt with
  | `Installed v ->
    Printf.printf "installed materialized view %s\n"
      (Openivm.Runner.view_name v)
  | `Result (Database.Rows r) -> print_endline (Database.render_result r)
  | `Result (Database.Affected n) -> Printf.printf "%d row(s) affected\n" n
  | `Result (Database.Ok_msg msg) -> print_endline msg

(** Shared REPL skeleton: prompt, buffer statements up to ';', hand dot
    commands and complete statements to the callbacks. *)
let repl ~on_dot ~on_sql =
  let buf = Buffer.create 256 in
  let interactive = Unix.isatty Unix.stdin in
  try
    while true do
      if interactive then begin
        if Buffer.length buf = 0 then print_string "minidb> "
        else print_string "   ...> ";
        flush stdout
      end;
      let line = input_line stdin in
      let trimmed = String.trim line in
      if Buffer.length buf = 0 && String.length trimmed > 0 && trimmed.[0] = '.'
      then on_dot line
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        if String.length trimmed > 0
           && trimmed.[String.length trimmed - 1] = ';'
        then begin
          let sql = Buffer.contents buf in
          Buffer.clear buf;
          on_sql sql
        end
      end
    done
  with End_of_file -> ()

let run_local () =
  let db = Database.create () in
  let ext = Openivm.Runner.load db in
  print_endline "Minidb shell with the OpenIVM extension. Type .help for help.";
  repl
    ~on_dot:(fun line -> handle_dot ext line)
    ~on_sql:(fun sql ->
      match Error.protect (fun () -> execute ext sql) with
      | Ok () -> ()
      | Error msg -> Printf.printf "error: %s\n" msg
      | exception Openivm.Compiler.Unsupported_view reason ->
        Printf.printf "unsupported view: %s\n" reason)

(* --- client mode: speak the line protocol to `openivm serve` --- *)

module Wire = Openivm_server.Wire

let resolve_target target =
  if String.contains target '/' then Unix.ADDR_UNIX target
  else
    match String.rindex_opt target ':' with
    | None ->
      Printf.eprintf
        "minidb_shell: --connect wants HOST:PORT or a socket path, got %S\n"
        target;
      exit 2
    | Some i ->
      let host = String.sub target 0 i in
      let port =
        match
          int_of_string_opt (String.sub target (i + 1) (String.length target - i - 1))
        with
        | Some p -> p
        | None ->
          Printf.eprintf "minidb_shell: bad port in %S\n" target;
          exit 2
      in
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found ->
            Printf.eprintf "minidb_shell: cannot resolve %S\n" host;
            exit 2)
      in
      Unix.ADDR_INET (ip, port)

(** One statement per SQL frame: the trailing ';' stays local. *)
let strip_semicolon sql =
  let t = String.trim sql in
  if String.length t > 0 && t.[String.length t - 1] = ';' then
    String.sub t 0 (String.length t - 1)
  else t

let run_client target tenant =
  let addr = resolve_target target in
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with Unix.Unix_error (e, _, _) ->
     Printf.eprintf "minidb_shell: cannot connect to %s: %s\n" target
       (Unix.error_message e);
     exit 1);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send req =
    output_string oc (Wire.render_request req);
    output_char oc '\n';
    flush oc
  in
  let next_line () = try Some (input_line ic) with End_of_file -> None in
  let print_response = function
    | Ok (Wire.Session id) -> Printf.printf "connected: session %d\n" id
    | Ok (Wire.Ok_affected n) -> Printf.printf "%d row(s) affected\n" n
    | Ok (Wire.Queued n) -> Printf.printf "queued in transaction (%d buffered)\n" n
    | Ok (Wire.Msg m) -> print_endline m
    | Ok (Wire.Rows { cols; rows }) ->
      if cols <> [] then print_endline (String.concat " | " cols);
      List.iter print_endline rows;
      Printf.printf "(%d row(s))\n" (List.length rows)
    | Ok (Wire.Err { code; message }) ->
      Printf.printf "error [%s]: %s\n" code message
    | Ok (Wire.Overloaded reason) -> Printf.printf "overloaded: %s\n" reason
    | Ok Wire.Pong -> print_endline "pong"
    | Ok Wire.Bye ->
      print_endline "bye";
      exit 0
    | Error msg ->
      Printf.printf "protocol error: %s\n" msg;
      exit 1
  in
  let roundtrip req =
    send req;
    print_response (Wire.parse_response ~next_line)
  in
  Printf.printf "Minidb shell connected to %s (tenant %s).\n" target tenant;
  roundtrip (Wire.Hello tenant);
  repl
    ~on_dot:(fun line ->
      match String.trim line with
      | ".quit" | ".exit" -> roundtrip Wire.Quit
      | ".ping" -> roundtrip Wire.Ping
      | ".help" ->
        print_string
          "Statements end with ';' and run on the server (BEGIN; / COMMIT; \
           / ROLLBACK; for transactions).\n\
           .ping               check the connection\n\
           .quit               close the session and exit\n"
      | _ -> print_endline "unknown command in client mode; try .help")
    ~on_sql:(fun sql -> roundtrip (Wire.Sql (strip_semicolon sql)))

let () =
  match Array.to_list Sys.argv with
  | _ :: "--connect" :: target :: rest ->
    let tenant = match rest with "--tenant" :: t :: _ -> t | _ -> "shell" in
    run_client target tenant
  | _ :: arg :: _ when arg = "--help" || arg = "-h" ->
    print_string
      "usage: minidb_shell [--connect HOST:PORT|SOCKET_PATH [--tenant NAME]]\n\
       Without --connect: a local Minidb REPL with the OpenIVM extension.\n\
       With --connect: a line-protocol client of `openivm serve`.\n"
  | _ -> run_local ()
