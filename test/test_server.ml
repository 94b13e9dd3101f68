(** The serving layer: scheduler ticks, session isolation, quota
    admission, the wire codec and the socket front-end. *)

open Openivm_engine
module Srv = Openivm_server
module Scheduler = Srv.Scheduler
module Session = Srv.Session
module Quota = Srv.Quota
module Wire = Srv.Wire

let mk_ext ?(strategy = Openivm.Flags.Upsert_linear) ?(refresh = Openivm.Flags.Lazy)
    stmts =
  let db = Database.create () in
  List.iter (fun s -> ignore (Database.exec db s)) stmts;
  let flags = { Openivm.Flags.default with strategy; refresh } in
  Openivm.Runner.load ~flags db

let groups_ddl = "CREATE TABLE g(k VARCHAR, v INTEGER)"
let totals_ddl =
  "CREATE MATERIALIZED VIEW totals AS SELECT k, SUM(v) AS total, COUNT(*) AS \
   n FROM g GROUP BY k"

let expect_msg = function
  | Session.Msg m -> m
  | Session.Failed { code; message } ->
    Alcotest.failf "expected Msg, got Failed [%s] %s" code message
  | _ -> Alcotest.fail "expected Msg reply"

let expect_affected = function
  | Session.Affected n -> n
  | Session.Failed { code; message } ->
    Alcotest.failf "expected Affected, got Failed [%s] %s" code message
  | _ -> Alcotest.fail "expected Affected reply"

let expect_rows = function
  | Session.Rows { rows; _ } -> List.sort String.compare rows
  | Session.Failed { code; message } ->
    Alcotest.failf "expected Rows, got Failed [%s] %s" code message
  | _ -> Alcotest.fail "expected Rows reply"

(* The message of a [Failed] reply with [code]. *)
let expect_failed code = function
  | Session.Failed { code = c; message } when c = code -> message
  | Session.Failed { code = c; message } ->
    Alcotest.failf "expected Failed [%s], got Failed [%s] %s" code c message
  | _ -> Alcotest.failf "expected a Failed [%s] reply" code

let find_view ext name =
  match Openivm.Runner.find_view ext name with
  | Some v -> v
  | None -> Alcotest.failf "view %s not installed" name

(* --- scheduler ----------------------------------------------------- *)

let test_single_session_roundtrip () =
  let ext = mk_ext [ groups_ddl ] in
  let sched = Scheduler.create ext in
  let s = Session.create sched ~tenant:"acme" in
  ignore (expect_msg (Session.exec s totals_ddl));
  Alcotest.(check int) "insert" 1
    (expect_affected (Session.exec s "INSERT INTO g VALUES ('a', 5)"));
  Alcotest.(check (list string)) "view rows" [ "(a, 5, 1)" ]
    (expect_rows (Session.exec s "SELECT k, total, n FROM totals"));
  let st = Scheduler.stats sched in
  Alcotest.(check bool) "ticks ran" true (st.Scheduler.ticks >= 2);
  Alcotest.(check int) "units applied" 2 st.Scheduler.units_applied;
  (* every dispatch arm a statement can reach through a session *)
  let answers what code ~suffix reply =
    let msg = expect_failed code reply in
    Alcotest.(check bool) (what ^ ": " ^ msg) true
      (String.ends_with ~suffix msg)
  in
  let refused what diag reply =
    let msg = expect_failed "SQL" reply in
    Alcotest.(check bool) (what ^ ": " ^ msg) true
      (String.starts_with ~prefix:diag msg)
  in
  answers "bad keyword" "PARSE" ~suffix:"(at 0)" (Session.exec s "SELEC 1");
  answers "unterminated string" "LEX" ~suffix:"(at 7)"
    (Session.exec s "SELECT 'abc FROM t");
  refused "DML on a view's backing table" "IVM203"
    (Session.exec s "INSERT INTO totals VALUES ('z', 1, 1)");
  ignore (expect_msg (Session.exec s "BEGIN"));
  ignore (Session.exec s "INSERT INTO g VALUES ('b', 1)");
  ignore (Session.exec s "INSERT INTO totals VALUES ('z', 1, 1)");
  refused "the same as a transaction's second statement" "IVM203"
    (Session.exec s "COMMIT");
  Alcotest.(check (list string)) "which rolled back the first" [ "(a, 5)" ]
    (expect_rows (Session.exec s "SELECT k, v FROM g"));
  refused "dropping a table a view reads" "IVM202"
    (Session.exec s "DROP TABLE g");
  ignore (expect_affected (Session.exec s "DROP TABLE totals"));
  Alcotest.(check string) "re-created under the same name" "installed totals"
    (expect_msg (Session.exec s totals_ddl));
  ignore (expect_affected (Session.exec s "INSERT INTO g VALUES ('a', 2)"));
  Alcotest.(check (list string)) "and it refreshes" [ "(a, 7, 2)" ]
    (expect_rows (Session.exec s "SELECT k, total, n FROM totals"));
  Session.close s

(* A caller holding parsed statements (an init script parsed whole) runs
   them through [Session.exec_stmt]: the view is compiled from the
   parsed query, and nothing is printed back to text. *)
let test_exec_stmt_parsed_script () =
  let ext = mk_ext [] in
  let sched = Scheduler.create ext in
  let s = Session.create sched ~tenant:"init" in
  let script =
    groups_ddl ^ ";\n" ^ totals_ddl
    ^ ";\nINSERT INTO g VALUES ('a', 5), ('b', 1);\nBEGIN;\n\
       INSERT INTO g VALUES ('a', 2);\nCOMMIT"
  in
  let replies =
    List.map (Session.exec_stmt s) (Openivm_sql.Parser.parse_script script)
  in
  Alcotest.(check string) "installed through exec_stmt" "installed totals"
    (expect_msg (List.nth replies 1));
  Alcotest.(check int) "the committed transaction" 1
    (expect_affected (List.nth replies 5));
  Alcotest.(check (list string)) "read through exec_stmt"
    [ "(a, 7, 2)"; "(b, 1, 1)" ]
    (expect_rows
       (Session.exec_stmt s
          (Openivm_sql.Parser.parse_statement "SELECT k, total, n FROM totals")));
  let v = find_view ext "totals" in
  Alcotest.(check (list string)) "view = recompute"
    (Openivm.Runner.recompute_rows v)
    (Openivm.Runner.visible_rows v);
  Session.close s

let test_consolidated_tick () =
  let ext = mk_ext [ groups_ddl ] in
  let sched = Scheduler.create ext in
  let s1 = Session.create sched ~tenant:"acme" in
  let s2 = Session.create sched ~tenant:"globex" in
  ignore (expect_msg (Session.exec s1 totals_ddl));
  let v = find_view ext "totals" in
  let refreshes_before = v.Openivm.Runner.refresh_count in
  (* queue both sessions' DML without awaiting, then tick once: both
     units must land in the same tick *)
  let t1 =
    Scheduler.submit sched ~session_id:(Session.id s1) ~tenant:"acme"
      [ Util.unit_stmt "INSERT INTO g VALUES ('x', 1)" ]
  in
  let t2 =
    Scheduler.submit sched ~session_id:(Session.id s2) ~tenant:"globex"
      [ Util.unit_stmt "INSERT INTO g VALUES ('x', 2)" ]
  in
  let ticket = function
    | Scheduler.Queued u -> u
    | Scheduler.Rejected r -> Alcotest.failf "rejected: %s" r
  in
  Alcotest.(check int) "one tick applied both units" 2 (Scheduler.tick sched);
  (match (Scheduler.await sched (ticket t1), Scheduler.await sched (ticket t2))
   with
   | Scheduler.Applied _, Scheduler.Applied _ -> ()
   | _ -> Alcotest.fail "both units should apply");
  let st = Scheduler.stats sched in
  Alcotest.(check int) "tick consolidated two sessions" 1
    st.Scheduler.multi_session_ticks;
  (* lazy view: nothing propagated yet; the first read folds both
     sessions' deltas in ONE propagation *)
  Alcotest.(check int) "no propagation before read" refreshes_before
    v.Openivm.Runner.refresh_count;
  Alcotest.(check (list string)) "consolidated result" [ "(x, 3, 2)" ]
    (expect_rows (Session.exec s1 "SELECT k, total, n FROM totals"));
  Alcotest.(check int) "exactly one propagation" (refreshes_before + 1)
    v.Openivm.Runner.refresh_count;
  Session.close s1;
  Session.close s2

let test_rollback_preserves_other_sessions_deltas () =
  let ext = mk_ext [ groups_ddl ] in
  let sched = Scheduler.create ext in
  let writer = Session.create sched ~tenant:"w" in
  let reader = Session.create sched ~tenant:"r" in
  ignore (expect_msg (Session.exec writer totals_ddl));
  ignore (expect_affected (Session.exec writer "INSERT INTO g VALUES ('a', 5)"));
  (* reader's delta sits queued (not yet ticked) ... *)
  let rt =
    match
      Scheduler.submit sched ~session_id:(Session.id reader) ~tenant:"r"
        [ Util.unit_stmt "INSERT INTO g VALUES ('b', 7)" ]
    with
    | Scheduler.Queued u -> u
    | Scheduler.Rejected r -> Alcotest.failf "rejected: %s" r
  in
  (* ... while the writer's transaction fails mid-unit and rolls back
     in the same tick, AFTER the reader's unit applied *)
  ignore (expect_msg (Session.exec writer "BEGIN"));
  (match Session.exec writer "INSERT INTO g VALUES ('a', 100)" with
   | Session.Queued 1 -> ()
   | _ -> Alcotest.fail "expected buffered statement");
  (match Session.exec writer "INSERT INTO g VALUES ('boom')" with
   | Session.Queued 2 -> ()
   | _ -> Alcotest.fail "expected buffered statement");
  (match Session.exec writer "COMMIT" with
   | Session.Failed _ -> ()
   | _ -> Alcotest.fail "COMMIT of a bad transaction must fail");
  (* the failed unit must not have eaten the reader's queued delta *)
  (match Scheduler.await sched rt with
   | Scheduler.Applied _ -> ()
   | Scheduler.Failed { message; _ } ->
     Alcotest.failf "reader's unit failed: %s" message);
  Alcotest.(check (list string)) "rollback exact, reader delta intact"
    [ "(a, 5, 1)"; "(b, 7, 1)" ]
    (expect_rows (Session.exec reader "SELECT k, total, n FROM totals"));
  let v = find_view ext "totals" in
  Alcotest.(check (list string)) "view = recompute"
    (Openivm.Runner.recompute_rows v)
    (Openivm.Runner.visible_rows v);
  let st = Scheduler.stats sched in
  Alcotest.(check int) "one rollback counted" 1 st.Scheduler.units_failed;
  Session.close writer;
  Session.close reader

let test_quota_overloaded () =
  let ext = mk_ext [ groups_ddl ] in
  let quota =
    { Quota.default_config with
      Quota.max_queue_depth = 2; max_inflight_per_tenant = 1 }
  in
  let sched = Scheduler.create ~quota ext in
  let submit tenant =
    Scheduler.submit sched ~session_id:1 ~tenant
      [ Util.unit_stmt "INSERT INTO g VALUES ('q', 1)" ]
  in
  (match submit "acme" with
   | Scheduler.Queued _ -> ()
   | Scheduler.Rejected r -> Alcotest.failf "first submit rejected: %s" r);
  (* per-tenant cap: acme already has one in flight *)
  (match submit "acme" with
   | Scheduler.Rejected _ -> ()
   | Scheduler.Queued _ -> Alcotest.fail "tenant cap should reject");
  (match submit "globex" with
   | Scheduler.Queued _ -> ()
   | Scheduler.Rejected r -> Alcotest.failf "other tenant rejected: %s" r);
  (* global queue depth cap: 2 pending *)
  (match submit "initech" with
   | Scheduler.Rejected _ -> ()
   | Scheduler.Queued _ -> Alcotest.fail "queue cap should reject");
  let st = Scheduler.stats sched in
  Alcotest.(check int) "overloads counted" 2 st.Scheduler.overloaded;
  (* the session API surfaces it as a typed reply *)
  let s = Session.create sched ~tenant:"acme" in
  (match Session.exec s "INSERT INTO g VALUES ('q', 2)" with
   | Session.Overloaded _ -> ()
   | _ -> Alcotest.fail "expected Overloaded reply");
  (* after a tick drains the queue, admission recovers *)
  ignore (Scheduler.tick sched);
  (match Session.exec s "INSERT INTO g VALUES ('q', 3)" with
   | Session.Affected 1 -> ()
   | _ -> Alcotest.fail "admission should recover after the tick");
  Session.close s

let test_lazy_refresh_once_per_tick_concurrent_readers () =
  (* full_recompute is the strategy where a read-triggered refresh is
     maximally expensive: an ungated implementation recomputes on every
     read. The tick gate must bound it to once per tick. *)
  let ext = mk_ext ~strategy:Openivm.Flags.Full_recompute [ groups_ddl ] in
  let sched = Scheduler.create ext in
  let s = Session.create sched ~tenant:"acme" in
  ignore (expect_msg (Session.exec s totals_ddl));
  let v = find_view ext "totals" in
  let read_round () =
    let threads =
      List.init 8 (fun _ ->
          Thread.create
            (fun () ->
              ignore
                (Scheduler.read sched
                   (match
                      Openivm_sql.Parser.parse_statement
                        "SELECT k, total FROM totals"
                    with
                   | Openivm_sql.Ast.Select_stmt q -> q
                   | _ -> assert false)))
            ())
    in
    List.iter Thread.join threads
  in
  ignore (expect_affected (Session.exec s "INSERT INTO g VALUES ('a', 1)"));
  let before = v.Openivm.Runner.refresh_count in
  read_round ();
  Alcotest.(check int) "8 concurrent readers, one refresh" (before + 1)
    v.Openivm.Runner.refresh_count;
  (* next tick re-arms the gate: exactly one more refresh *)
  ignore (expect_affected (Session.exec s "INSERT INTO g VALUES ('a', 2)"));
  read_round ();
  Alcotest.(check int) "next tick, one more refresh" (before + 2)
    v.Openivm.Runner.refresh_count;
  Alcotest.(check (list string)) "contents correct" [ "(a, 3, 2)" ]
    (expect_rows (Session.exec s "SELECT k, total, n FROM totals"));
  Session.close s

let test_eager_views_refresh_at_tick_end () =
  let ext = mk_ext ~refresh:Openivm.Flags.Eager [ groups_ddl ] in
  let sched = Scheduler.create ext in
  let s = Session.create sched ~tenant:"acme" in
  ignore (expect_msg (Session.exec s totals_ddl));
  let v = find_view ext "totals" in
  let before = v.Openivm.Runner.refresh_count in
  ignore (expect_affected (Session.exec s "INSERT INTO g VALUES ('e', 9)"));
  (* requested-eager: the tick itself propagated, no read needed *)
  Alcotest.(check int) "tick refreshed the eager view" (before + 1)
    v.Openivm.Runner.refresh_count;
  Alcotest.(check int) "no pending deltas left" 0
    (Openivm.Runner.pending_deltas v);
  Session.close s

let test_ddl_refused_in_txn () =
  let ext = mk_ext [ groups_ddl ] in
  let sched = Scheduler.create ext in
  let s = Session.create sched ~tenant:"acme" in
  ignore (expect_msg (Session.exec s "BEGIN"));
  (match Session.exec s "CREATE TABLE t2(a INTEGER)" with
   | Session.Failed { code = "TXN"; _ } -> ()
   | _ -> Alcotest.fail "DDL inside a transaction must be refused");
  ignore (expect_msg (Session.exec s "ROLLBACK"));
  Session.close s

(* --- wire codec ---------------------------------------------------- *)

let test_wire_roundtrip () =
  let reqs =
    [ Wire.Hello "acme"; Wire.Sql "SELECT 1;\nSELECT 2"; Wire.Begin;
      Wire.Commit; Wire.Rollback; Wire.Ping; Wire.Quit;
      (* blanks at either end are payload, not framing *)
      Wire.Hello "acme "; Wire.Hello " acme"; Wire.Sql " SELECT 1 ";
      (* a payload carriage return is escaped, so it survives the
         CRLF allowance *)
      Wire.Sql "SELECT 1\r" ]
  in
  List.iter
    (fun req ->
      match Wire.parse_request (Wire.render_request req) with
      | Ok got ->
        Alcotest.(check bool) "request roundtrip" true (got = req)
      | Error msg -> Alcotest.failf "parse_request failed: %s" msg)
    reqs;
  (match Wire.parse_request "PING\r" with
   | Ok Wire.Ping -> ()
   | _ -> Alcotest.fail "a CRLF-terminated PING must parse");
  let resps =
    [ Wire.Session 7; Wire.Ok_affected 3; Wire.Queued 2; Wire.Msg "COMMIT";
      Wire.Rows { cols = [ "k"; "total" ]; rows = [ "(a, 5)"; "(b,\n7)" ] };
      Wire.Rows { cols = []; rows = [] };
      Wire.Rows { cols = [ "x,y"; "b" ]; rows = [ "(1, 2)" ] };
      Wire.Rows { cols = [ "b " ]; rows = [ "(1)" ] };
      Wire.Rows { cols = [ "" ]; rows = [ "(1)" ] };
      Wire.Msg "done ";
      Wire.Err { code = "SQL"; message = "boom\nwith newline" };
      Wire.Err { code = "SQL"; message = "bad " };
      Wire.Overloaded "queue full"; Wire.Pong; Wire.Bye ]
  in
  List.iter
    (fun resp ->
      let lines = ref (Wire.render_response resp) in
      let next_line () =
        match !lines with
        | [] -> None
        | l :: rest ->
          lines := rest;
          Some l
      in
      match Wire.parse_response ~next_line with
      | Ok got -> Alcotest.(check bool) "response roundtrip" true (got = resp)
      | Error msg -> Alcotest.failf "parse_response failed: %s" msg)
    resps

let test_wire_errors () =
  (match Wire.parse_request "FROBNICATE 1" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown verb must not parse");
  (match Wire.parse_request "HELLO" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "HELLO without tenant must not parse");
  let truncated = ref [ "ROWS 2 k"; "ROW (a, 1)" ] in
  let next_line () =
    match !truncated with
    | [] -> None
    | l :: rest ->
      truncated := rest;
      Some l
  in
  match Wire.parse_response ~next_line with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated ROWS frame must not parse"

(* --- the socket front-end ------------------------------------------ *)

let with_server ?quota f =
  let ext = mk_ext [ groups_ddl ] in
  let srv = Srv.Server.start ?quota ~listen:(`Tcp ("127.0.0.1", 0)) ext in
  Fun.protect ~finally:(fun () -> Srv.Server.stop srv) (fun () -> f srv)

let connect srv =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Srv.Server.port srv));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let recv ic =
  let next_line () = try Some (input_line ic) with End_of_file -> None in
  match Wire.parse_response ~next_line with
  | Ok r -> r
  | Error msg -> Alcotest.failf "bad response: %s" msg

let test_server_tcp_session () =
  with_server (fun srv ->
      let fd, ic, oc = connect srv in
      send_line oc "HELLO acme";
      (match recv ic with
       | Wire.Session _ -> ()
       | _ -> Alcotest.fail "expected SESSION");
      send_line oc ("SQL " ^ Wire.escape totals_ddl);
      (match recv ic with
       | Wire.Msg _ -> ()
       | _ -> Alcotest.fail "expected MSG for install");
      send_line oc "SQL INSERT INTO g VALUES ('a', 5)";
      (match recv ic with
       | Wire.Ok_affected 1 -> ()
       | _ -> Alcotest.fail "expected OK 1");
      send_line oc "SQL SELECT k, total FROM totals";
      (match recv ic with
       | Wire.Rows { rows = [ "(a, 5)" ]; _ } -> ()
       | _ -> Alcotest.fail "expected the view row");
      send_line oc "PING";
      (match recv ic with
       | Wire.Pong -> ()
       | _ -> Alcotest.fail "expected PONG");
      send_line oc "QUIT";
      (match recv ic with
       | Wire.Bye -> ()
       | _ -> Alcotest.fail "expected BYE");
      (try Unix.close fd with Unix.Unix_error _ -> ()))

let http_get srv path =
  let fd, ic, oc = connect srv in
  send_line oc (Printf.sprintf "GET %s HTTP/1.1\r" path);
  send_line oc "Host: localhost\r";
  send_line oc "\r";
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_string buf (input_line ic);
       Buffer.add_char buf '\n'
     done
   with End_of_file -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Buffer.contents buf

let test_metrics_endpoint () =
  with_server (fun srv ->
      let fd, ic, oc = connect srv in
      send_line oc "HELLO acme";
      (match recv ic with Wire.Session _ -> () | _ -> Alcotest.fail "session");
      send_line oc "SQL INSERT INTO g VALUES ('m', 1)";
      (match recv ic with Wire.Ok_affected 1 -> () | _ -> Alcotest.fail "ok");
      let body = http_get srv "/metrics" in
      Alcotest.(check bool) "HTTP 200" true
        (String.length body > 0
         && String.sub body 0 15 = "HTTP/1.1 200 OK");
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "prometheus content type" true
        (contains Openivm_obs.Report.prometheus_content_type body);
      Alcotest.(check bool) "tick counter exposed" true
        (contains "openivm_server_ticks_total" body);
      Alcotest.(check bool) "sessions gauge exposed" true
        (contains "openivm_server_sessions_active" body);
      let missing = http_get srv "/nope" in
      Alcotest.(check bool) "404 for other paths" true
        (contains "404" missing);
      send_line oc "QUIT";
      (match recv ic with Wire.Bye -> () | _ -> Alcotest.fail "bye");
      (try Unix.close fd with Unix.Unix_error _ -> ()))

let test_server_background_ticker () =
  let quota = { Quota.default_config with Quota.tick_interval = 0.01 } in
  with_server ~quota (fun srv ->
      let fd, ic, oc = connect srv in
      send_line oc "HELLO acme";
      (match recv ic with Wire.Session _ -> () | _ -> Alcotest.fail "session");
      send_line oc "SQL INSERT INTO g VALUES ('t', 1)";
      (match recv ic with
       | Wire.Ok_affected 1 -> ()
       | _ -> Alcotest.fail "ticker should apply the queued unit");
      send_line oc "QUIT";
      (match recv ic with Wire.Bye -> () | _ -> Alcotest.fail "bye");
      (try Unix.close fd with Unix.Unix_error _ -> ()))

let suite =
  [ Util.tc "single session roundtrip" test_single_session_roundtrip;
    Util.tc "parsed script: install and read through exec_stmt"
      test_exec_stmt_parsed_script;
    Util.tc "two sessions consolidate into one tick" test_consolidated_tick;
    Util.tc "rollback preserves other sessions' deltas"
      test_rollback_preserves_other_sessions_deltas;
    Util.tc "quota surfaces Overloaded and recovers" test_quota_overloaded;
    Util.tc "lazy refresh once per tick under concurrent readers"
      test_lazy_refresh_once_per_tick_concurrent_readers;
    Util.tc "eager views refresh at tick end" test_eager_views_refresh_at_tick_end;
    Util.tc "DDL refused inside a transaction" test_ddl_refused_in_txn;
    Util.tc "wire codec roundtrip" test_wire_roundtrip;
    Util.tc "wire codec rejects malformed frames" test_wire_errors;
    Util.tc "tcp session end to end" test_server_tcp_session;
    Util.tc "/metrics serves prometheus exposition" test_metrics_endpoint;
    Util.tc "background ticker drives refresh" test_server_background_ticker ]
