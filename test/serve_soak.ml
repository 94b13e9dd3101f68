(** Serve soak (`dune build @serve`, also part of the default runtest
    and `@ci`): concurrent churn against the serving layer. For every
    combine strategy, a live {!Openivm_server.Server} is started on an
    ephemeral port and five session threads drive seeded scripted
    workloads — plain DML units, multi-statement transactions, units
    that must fail and roll back, client-side rollbacks and reads —
    through the single-writer scheduler, while the main thread fetches
    [/metrics] over raw HTTP mid-churn. The gate is the sequential
    replay oracle: the scheduler's journal (the serial order the ticks
    actually applied) is replayed single-session into a fresh database,
    and every view plus the base table must come out byte-identical —
    interleaved sessions, rollbacks and consolidated ticks change
    nothing about the result. Each run also asserts, via the
    scheduler's counters, that at least one tick consolidated units from
    two or more sessions into one propagation.

    Per-thread scripts are precomputed from one LCG seed before the
    threads start, so thread interleaving is the only nondeterminism —
    and the journal captures exactly the order that won. *)

module Flags = Openivm.Flags
module Runner = Openivm.Runner
module Srv = Openivm_server
module Scheduler = Srv.Scheduler
module Session = Srv.Session
open Openivm_engine

let failures = ref 0
let checks = ref 0
let check_lock = Mutex.create ()

(* COMMITs of [Bad_txn] that answered Failed, in the current run *)
let failed_commits = Atomic.make 0

let check name ok =
  Mutex.lock check_lock;
  incr checks;
  if not ok then begin
    incr failures;
    Printf.printf "  FAIL %s\n%!" name
  end;
  Mutex.unlock check_lock

(* seeded LCG so the soak is reproducible without any library RNG *)
let rand state n =
  state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
  !state mod n

let regions = [| "north"; "south"; "east"; "west"; "centre"; "rim" |]

let sales_ddl = "CREATE TABLE sales(region VARCHAR, amount INTEGER)"
let sales_seed =
  "INSERT INTO sales VALUES ('north', 10), ('south', 7), ('west', 3)"

let view_sqls =
  [ "CREATE MATERIALIZED VIEW region_totals AS SELECT region, SUM(amount) \
     AS total, COUNT(*) AS n FROM sales GROUP BY region";
    "CREATE MATERIALIZED VIEW grand AS SELECT SUM(total) AS g, SUM(n) AS \
     cnt FROM region_totals" ]

(* One session's scripted workload. [Txn] commits as a single
   all-or-nothing unit; [Bad] must fail and roll back without touching
   anything; [Bad_txn]'s statements write before its last one fails, so
   its COMMIT must fail and the rollback has rows and deltas to undo;
   [Client_rollback] never reaches the scheduler at all. *)
type action =
  | Dml of string
  | Txn of string list
  | Bad of string
  | Bad_txn of string list
  | Client_rollback of string list
  | Read of string

let script ~seed ~len =
  let st = ref seed in
  let r n = rand st n in
  let region () = regions.(r (Array.length regions)) in
  let ins () =
    Printf.sprintf "INSERT INTO sales VALUES ('%s', %d), ('%s', %d)"
      (region ()) (r 100) (region ()) (r 100)
  in
  List.init len (fun _ ->
      match r 13 with
      | 0 | 1 | 2 | 3 -> Dml (ins ())
      | 4 | 5 ->
        Dml
          (Printf.sprintf
             "UPDATE sales SET amount = amount + %d WHERE region = '%s'"
             (1 + r 9) (region ()))
      | 6 ->
        Dml
          (Printf.sprintf
             "DELETE FROM sales WHERE region = '%s' AND amount > %d"
             (region ()) (r 120))
      | 7 -> Txn [ ins (); ins () ]
      | 8 -> Bad "INSERT INTO sales VALUES ('boom')"
      | 9 -> Client_rollback [ ins () ]
      | 10 ->
        Bad_txn
          [ ins ();
            Printf.sprintf
              "UPDATE sales SET amount = amount + %d WHERE region = '%s'"
              (1 + r 9) (region ());
            "INSERT INTO sales VALUES ('boom')" ]
      | _ -> Read "SELECT region, total, n FROM region_totals")

let run_action ~who sess = function
  | Dml sql ->
    (match Session.exec sess sql with
     | Session.Affected _ -> ()
     | Session.Failed { code; message } ->
       check (Printf.sprintf "%s: dml failed [%s] %s" who code message) false
     | Session.Overloaded r ->
       check (Printf.sprintf "%s: dml overloaded: %s" who r) false
     | _ -> check (who ^ ": unexpected dml reply") false)
  | Txn stmts ->
    (match Session.exec sess "BEGIN" with
     | Session.Msg _ -> ()
     | _ -> check (who ^ ": BEGIN refused") false);
    List.iter
      (fun sql ->
         match Session.exec sess sql with
         | Session.Queued _ -> ()
         | _ -> check (who ^ ": txn statement not buffered") false)
      stmts;
    (match Session.exec sess "COMMIT" with
     | Session.Affected _ -> ()
     | Session.Failed { message; _ } ->
       check (Printf.sprintf "%s: commit failed: %s" who message) false
     | Session.Overloaded r ->
       check (Printf.sprintf "%s: commit overloaded: %s" who r) false
     | _ -> check (who ^ ": unexpected commit reply") false)
  | Bad sql ->
    (match Session.exec sess sql with
     | Session.Failed _ -> ()
     | _ -> check (who ^ ": bad unit did not fail") false)
  | Bad_txn stmts ->
    (match Session.exec sess "BEGIN" with
     | Session.Msg _ -> ()
     | _ -> check (who ^ ": BEGIN refused") false);
    List.iter
      (fun sql ->
         match Session.exec sess sql with
         | Session.Queued _ -> ()
         | _ -> check (who ^ ": txn statement not buffered") false)
      stmts;
    (match Session.exec sess "COMMIT" with
     | Session.Failed _ -> Atomic.incr failed_commits
     | Session.Overloaded r ->
       check (Printf.sprintf "%s: failing commit overloaded: %s" who r) false
     | _ -> check (who ^ ": failing transaction committed") false)
  | Client_rollback stmts ->
    ignore (Session.exec sess "BEGIN");
    List.iter (fun sql -> ignore (Session.exec sess sql)) stmts;
    (match Session.exec sess "ROLLBACK" with
     | Session.Msg _ -> ()
     | _ -> check (who ^ ": ROLLBACK refused") false)
  | Read sql ->
    (match Session.exec sess sql with
     | Session.Rows _ -> ()
     | Session.Failed { message; _ } ->
       check (Printf.sprintf "%s: read failed: %s" who message) false
     | _ -> check (who ^ ": unexpected read reply") false)

(* --- raw HTTP /metrics probe --------------------------------------- *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* kept total: a refused connection reads as one named check failing,
   not a crash of the whole soak *)
let metrics_probe srv =
  try
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
         Unix.connect fd
           (Unix.ADDR_INET (Unix.inet_addr_loopback, Srv.Server.port srv));
         let oc = Unix.out_channel_of_descr fd in
         let ic = Unix.in_channel_of_descr fd in
         output_string oc "GET /metrics HTTP/1.1\r\nHost: soak\r\n\r\n";
         flush oc;
         let buf = Buffer.create 1024 in
         (try
            while true do
              Buffer.add_string buf (input_line ic);
              Buffer.add_char buf '\n'
            done
          with End_of_file -> ());
         Buffer.contents buf)
  with Unix.Unix_error (e, _, _) ->
    Printf.sprintf "CONNECT FAILED: %s" (Unix.error_message e)

(* --- one strategy run ---------------------------------------------- *)

let n_sessions = 5
let actions_per_session = 60

let expect_install sess sql =
  match Session.exec sess sql with
  | Session.Msg _ -> ()
  | Session.Failed { message; _ } ->
    Printf.printf "  FAIL install: %s\n%!" message;
    incr failures
  | _ ->
    Printf.printf "  FAIL install: unexpected reply\n%!";
    incr failures

let run_strategy ~strategy ~seed =
  let name = Flags.strategy_to_string strategy in
  let db = Database.create () in
  ignore (Database.exec db sales_ddl);
  ignore (Database.exec db sales_seed);
  let flags = { Flags.default with Flags.strategy; refresh = Flags.Lazy } in
  let ext = Runner.load ~flags db in
  let srv = Srv.Server.start ~listen:(`Tcp ("127.0.0.1", 0)) ext in
  Fun.protect ~finally:(fun () -> Srv.Server.stop srv) @@ fun () ->
  let sched = Srv.Server.scheduler srv in
  let setup = Session.create sched ~tenant:"setup" in
  List.iter (expect_install setup) view_sqls;
  Session.close setup;
  Scheduler.set_record_journal sched true;
  Atomic.set failed_commits 0;
  (* a deterministically consolidated tick: two sessions' units queued
     before anyone awaits, then one tick applies both *)
  let s1 = Session.create sched ~tenant:"prime-a" in
  let s2 = Session.create sched ~tenant:"prime-b" in
  let submit s sql =
    match
      Scheduler.submit sched ~session_id:(Session.id s) ~tenant:(Session.tenant s)
        [ Openivm_sql.Parser.parse_statement sql ]
    with
    | Scheduler.Queued u -> u
    | Scheduler.Rejected r ->
      Printf.printf "  FAIL %s: prime submit rejected: %s\n%!" name r;
      incr failures;
      exit 1
  in
  let p1 = submit s1 "INSERT INTO sales VALUES ('east', 1)" in
  let p2 = submit s2 "INSERT INTO sales VALUES ('rim', 2)" in
  check (name ^ ": priming tick applied both sessions' units")
    (Scheduler.tick sched = 2);
  (match (Scheduler.await sched p1, Scheduler.await sched p2) with
   | Scheduler.Applied _, Scheduler.Applied _ -> ()
   | _ -> check (name ^ ": priming units applied") false);
  Session.close s1;
  Session.close s2;
  (* the concurrent phase: n scripted session threads *)
  let sessions =
    Array.init n_sessions (fun i ->
        Session.create sched ~tenant:(Printf.sprintf "tenant-%d" i))
  in
  let scripts =
    Array.init n_sessions (fun i ->
        script ~seed:(seed + (7919 * (i + 1))) ~len:actions_per_session)
  in
  let threads =
    Array.mapi
      (fun i actions ->
         Thread.create
           (fun actions ->
              let who = Printf.sprintf "%s/session %d" name i in
              List.iter (run_action ~who sessions.(i)) actions)
           actions)
      scripts
  in
  (* mid-churn: the metrics endpoint must answer while ticks run *)
  Thread.delay 0.005;
  let body = metrics_probe srv in
  check (name ^ ": /metrics answers 200 during the soak")
    (contains "HTTP/1.1 200 OK" body);
  check (name ^ ": /metrics is prometheus exposition")
    (contains Openivm_obs.Report.prometheus_content_type body
     && contains "openivm_server_ticks_total" body
     && contains "openivm_server_sessions_active" body);
  Array.iter Thread.join threads;
  Array.iter Session.close sessions;
  Scheduler.drain sched;
  let st = Scheduler.stats sched in
  check (name ^ ": ticks ran") (st.Scheduler.ticks > 0);
  check (name ^ ": >= 1 tick consolidated >= 2 sessions")
    (st.Scheduler.multi_session_ticks >= 1);
  check (name ^ ": failed units rolled back") (st.Scheduler.units_failed >= 1);
  check (name ^ ": a transaction that wrote before failing rolled back")
    (Atomic.get failed_commits >= 1);
  check (name ^ ": queue drained") (st.Scheduler.queue_depth = 0);
  (* the live side must satisfy the IVM invariant on its own *)
  List.iter
    (fun v ->
       check
         (Printf.sprintf "%s: live %s = recompute" name (Runner.view_name v))
         (Runner.visible_rows v = Runner.recompute_rows v))
    ext.Runner.ext_views;
  (* sequential replay oracle: the journal is the serial history the
     ticks chose; replayed single-session it must reproduce the exact
     same base table and view contents *)
  let journal = Scheduler.journal sched in
  check (name ^ ": journal non-empty") (journal <> []);
  let odb = Database.create () in
  ignore (Database.exec odb sales_ddl);
  ignore (Database.exec odb sales_seed);
  let oracle_views =
    List.fold_left
      (fun registry sql ->
         Runner.install ~flags ~registry:(List.rev registry) odb sql :: registry)
      [] view_sqls
    |> List.rev
  in
  List.iter (fun stmt -> ignore (Database.exec_stmt odb stmt)) journal;
  List.iter Runner.force_refresh oracle_views;
  let sorted db sql =
    let r = Database.query db sql in
    List.sort String.compare (List.map Row.to_string r.Database.rows)
  in
  check (name ^ ": base table identical to sequential replay")
    (sorted db "SELECT * FROM sales" = sorted odb "SELECT * FROM sales");
  List.iter
    (fun ov ->
       let vname = Runner.view_name ov in
       match Runner.find_view ext vname with
       | None -> check (name ^ ": live view " ^ vname ^ " exists") false
       | Some lv ->
         check
           (Printf.sprintf "%s: %s identical to sequential replay" name vname)
           (Runner.visible_rows lv = Runner.visible_rows ov))
    oracle_views;
  Printf.printf
    "serve soak: %-17s %d ticks, %d units (%d failed), %d multi-session, \
     max batch %d\n%!"
    name st.Scheduler.ticks st.Scheduler.units_applied
    st.Scheduler.units_failed st.Scheduler.multi_session_ticks
    st.Scheduler.max_tick_units

let () =
  Sys.catch_break true;
  let strategies =
    [ Flags.Upsert_linear; Flags.Union_regroup; Flags.Outer_join_merge;
      Flags.Rederive_affected; Flags.Full_recompute ]
  in
  List.iteri
    (fun i strategy -> run_strategy ~strategy ~seed:(2026 + (i * 101)))
    strategies;
  if !failures = 0 then
    Printf.printf "serve soak: %d checks, all green\n" !checks
  else begin
    Printf.printf "serve soak: %d/%d checks FAILED\n" !failures !checks;
    exit 1
  end
