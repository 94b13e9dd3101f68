(** Rollback through the undo journal: every DML statement is
    all-or-nothing through every entry point (one failure matrix), a
    failing scheduler unit reverts exactly its own rows (PK and ART
    indexes included) while views stay equal to recompute, savepoints
    nest, a bulk append's deferred PK index survives a rollback, and
    secondary indexes stay linear under bulk change and its rollback. *)

open Openivm_engine
module Runner = Openivm.Runner
module Flags = Openivm.Flags
module Scheduler = Openivm_server.Scheduler
module Store = Openivm_store.Store

let t_ddl = "CREATE TABLE t(id INTEGER PRIMARY KEY, grp VARCHAR, v INTEGER)"
let t_seed = "INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20), (3, 'a', 30)"

let s_view =
  "CREATE MATERIALIZED VIEW s AS SELECT grp, SUM(v) AS total, COUNT(*) AS n \
   FROM t GROUP BY grp"

let installed = function
  | `Installed v -> v
  | `Result _ -> Alcotest.fail "view not installed"

let expect_sql_error what f =
  match f () with
  | exception Error.Sql_error _ -> ()
  | _ -> Alcotest.failf "%s: expected an SQL error" what

let check_view ?(msg = "view = recompute") v =
  Alcotest.(check (list string)) msg (Runner.recompute_rows v)
    (Runner.visible_rows v)

(* --- embedded mode: each DML statement is all-or-nothing ----------- *)

let embedded () =
  let db = Util.db_with [ t_ddl; t_seed ] in
  let ext = Runner.load db in
  let v = installed (Util.exec_ext ext s_view) in
  (db, ext, v)

let seed_rows = [ "(1, a, 10)"; "(2, b, 20)"; "(3, a, 30)" ]

let test_embedded_pk_moving_update () =
  let db, ext, v = embedded () in
  (* row 1 keeps its key; row 2's new key collides with it after row 2
     has already been deleted *)
  expect_sql_error "UPDATE t SET id = 1" (fun () ->
      Util.exec_ext ext "UPDATE t SET id = 1");
  Util.check_rows ~msg:"no row lost" db "SELECT * FROM t" seed_rows;
  check_view v;
  Alcotest.(check (list string)) "view contents" [ "(a, 40, 2)"; "(b, 20, 1)" ]
    (Runner.visible_rows v)

let test_embedded_multi_row_insert () =
  let db, ext, v = embedded () in
  expect_sql_error "INSERT with a duplicate last row" (fun () ->
      Util.exec_ext ext
        "INSERT INTO t VALUES (7, 'x', 1), (8, 'y', 2), (1, 'dup', 0)");
  Util.check_rows ~msg:"no row kept" db "SELECT * FROM t" seed_rows;
  check_view v;
  ignore (Util.exec_ext ext "INSERT INTO t VALUES (7, 'x', 1)");
  check_view ~msg:"view = recompute after a later insert" v

let test_store_exec_failed_update () =
  Test_store.with_temp_dir (fun dir ->
      let st = Store.open_ ~dir () in
      List.iter (fun sql -> ignore (Store.exec st sql)) [ t_ddl; t_seed; s_view ];
      expect_sql_error "UPDATE t SET id = 1" (fun () ->
          Store.exec st "UPDATE t SET id = 1");
      Util.check_rows ~msg:"live table" (Store.db st) "SELECT id FROM t"
        [ "(1)"; "(2)"; "(3)" ];
      Alcotest.(check bool) "live views = recompute" true (Store.verify st);
      Store.close st;
      let reopened = Store.open_ ~dir () in
      Util.check_rows ~msg:"recovered table matches the live one"
        (Store.db reopened) "SELECT id FROM t" [ "(1)"; "(2)"; "(3)" ];
      Alcotest.(check bool) "recovered views = recompute" true
        (Store.verify reopened);
      Store.close reopened)

(* DROP TABLE of a maintained view is logged like any statement: no view
   comes back on reopen, whether the drop is replayed from the WAL or
   folded into a checkpoint. *)
let test_store_dropped_view_stays_dropped () =
  List.iter
    (fun checkpoint ->
       Test_store.with_temp_dir (fun dir ->
           let st = Store.open_ ~dir () in
           List.iter
             (fun sql -> ignore (Store.exec st sql))
             [ t_ddl; t_seed; s_view; "DROP TABLE s" ];
           if checkpoint then ignore (Store.checkpoint st);
           Store.close st;
           let reopened = Store.open_ ~dir () in
           let what = if checkpoint then "after a checkpoint" else "by replay" in
           Alcotest.(check bool) ("records replayed " ^ what) (not checkpoint)
             ((Store.last_recovery reopened).Store.replayed > 0);
           Alcotest.(check (list string)) ("no view " ^ what) []
             (List.map Runner.view_name (Store.views reopened));
           Alcotest.(check (list string)) ("no registered view " ^ what) []
             (Catalog.mat_view_names (Database.catalog (Store.db reopened)));
           Util.check_rows ~msg:("base table " ^ what) (Store.db reopened)
             "SELECT id FROM t" [ "(1)"; "(2)"; "(3)" ];
           Store.close reopened))
    [ false; true ]

(* --- scheduler units: statement k of n fails ----------------------- *)

(* 200 rows over five groups, with a secondary ART index on [grp] *)
let seeded_scheduler refresh =
  let db = Database.create () in
  Util.exec db t_ddl;
  Util.exec db "CREATE INDEX t_grp ON t(grp)";
  let values =
    List.init 200 (fun i ->
        Printf.sprintf "(%d, '%c', %d)" (i + 1)
          (Char.chr (Char.code 'a' + (i mod 5)))
          i)
  in
  Util.exec db ("INSERT INTO t VALUES " ^ String.concat ", " values);
  let ext = Runner.load ~flags:{ Flags.default with Flags.refresh } db in
  let sched = Scheduler.create ext in
  (match
     Scheduler.exec_unit sched ~session_id:1 ~tenant:"setup"
       [ Util.unit_stmt s_view ]
   with
   | `Outcome (Scheduler.Applied _) -> ()
   | _ -> Alcotest.fail "view install failed");
  (db, ext, sched)

let table db = Catalog.find_table (Database.catalog db) "t"

(* Every stored row answers through the PK index and through the ART
   secondary, and neither index holds a key the rows do not. *)
let check_indexes ~msg db ~absent_ids =
  let tbl = table db in
  let rows = Table.to_rows tbl in
  List.iter
    (fun (row : Row.t) ->
       match Table.pk_lookup tbl (Value.encode_key [| row.(0) |]) with
       | Some r when Row.equal r row -> ()
       | _ -> Alcotest.failf "%s: PK lookup misses %s" msg (Row.to_string row))
    rows;
  List.iter
    (fun id ->
       if Table.pk_lookup tbl (Value.encode_key [| Value.Int id |]) <> None then
         Alcotest.failf "%s: PK still finds id %d" msg id)
    absent_ids;
  let ix =
    match Table.find_secondary tbl "t_grp" with
    | Some ix -> ix
    | None -> Alcotest.failf "%s: secondary index lost" msg
  in
  let groups =
    List.sort_uniq compare
      ([ "a"; "b"; "c"; "d"; "e"; "x"; "dup"; "q" ]
       @ List.map (fun (r : Row.t) -> Value.to_string r.(1)) rows)
  in
  List.iter
    (fun g ->
       let by_scan =
         List.filter (fun (r : Row.t) -> Value.to_string r.(1) = g) rows
       in
       let by_index = Table.index_lookup tbl ix (Value.encode_key [| Value.Str g |]) in
       Alcotest.(check (list string))
         (Printf.sprintf "%s: ART lookup of %S" msg g)
         (List.sort compare (List.map Row.to_string by_scan))
         (List.sort compare (List.map Row.to_string by_index)))
    groups

let run_unit sched stmts =
  match
    Scheduler.exec_unit sched ~session_id:2 ~tenant:"t"
      (List.map Util.unit_stmt stmts)
  with
  | `Outcome o -> o
  | `Overloaded r -> Alcotest.failf "unit bounced: %s" r

(* --- one failure matrix across every entry point ------------------- *)

module Pipeline = Openivm_htap.Pipeline

let w_schema =
  [ "CREATE TABLE w(a INTEGER PRIMARY KEY, b VARCHAR NOT NULL, c VARCHAR, \
     v INTEGER)";
    "CREATE INDEX w_b ON w(b)" ]

let w_seed = "INSERT INTO w VALUES (1, 'x', '10', 1), (2, 'y', '20', 2), (3, 'x', 'zz', 3)"

let w_view =
  "CREATE MATERIALIZED VIEW wv AS SELECT b, SUM(v) AS total, COUNT(*) AS n \
   FROM w GROUP BY b"

(* committed after the view, so it waits in the delta table (lazy) or
   the outbox (pipeline) while the failing statement runs *)
let w_pending = "INSERT INTO w VALUES (4, 'y', '40', 4)"

(* each fails on row k after rows before k were written *)
let failing =
  [ ( "multi-row INSERT whose third row is a duplicate",
      "INSERT INTO w VALUES (7, 'q', '70', 7), (8, 'q', '80', 8), (2, 'dup', '0', 0)" );
    ("PK-moving UPDATE colliding on its first row", "UPDATE w SET a = a + 1");
    ( "UPDATE to NULL on a NOT NULL column, second row",
      "UPDATE w SET b = NULLIF(b, 'y'), v = v + 100" );
    ("bad cast on the third row", "UPDATE w SET v = CAST(c AS INTEGER)") ]

(* An entry point: the database holding [w], the view's delta table
   there, the failing statement's runner (true iff it failed) and the
   view check. *)
type entry = {
  e_db : Database.t;
  e_delta : Table.t;
  e_run : string -> bool;
  e_view_ok : unit -> bool;
  e_close : unit -> unit;
}

let raised f = match f () with exception Error.Sql_error _ -> true | _ -> false

let view_ok v () = Runner.visible_rows v = Runner.recompute_rows v
let delta_of v = snd (List.hd v.Runner.deltas)

let embedded_entry run_with =
  let db = Util.db_with (w_schema @ [ w_seed ]) in
  let ext = Runner.load db in
  let v = installed (Util.exec_ext ext w_view) in
  Util.exec db w_pending;
  { e_db = db; e_delta = delta_of v; e_run = (fun sql -> raised (fun () -> run_with db ext sql));
    e_view_ok = view_ok v; e_close = ignore }

let entries =
  [ ( "Database.exec",
      fun () -> embedded_entry (fun db _ sql -> Database.exec db sql) );
    ("Runner.exec_ext", fun () -> embedded_entry (fun _ ext sql -> Util.exec_ext ext sql));
    ( "Store.exec",
      fun () ->
        let dir = Filename.temp_file "openivm_matrix" "" in
        Sys.remove dir;
        let st = Store.open_ ~dir () in
        List.iter
          (fun sql -> ignore (Store.exec st sql))
          (w_schema @ [ w_seed; w_view; w_pending ]);
        let v = Option.get (Store.find_view st "wv") in
        { e_db = Store.db st; e_delta = delta_of v;
          e_run = (fun sql -> raised (fun () -> Store.exec st sql));
          e_view_ok = (fun () -> Store.verify st);
          e_close =
            (fun () ->
               Store.close st;
               Test_store.rm_rf dir) } );
    ( "a scheduler unit",
      fun () ->
        let db = Util.db_with (w_schema @ [ w_seed ]) in
        let ext = Runner.load db in
        let sched = Scheduler.create ext in
        ignore (run_unit sched [ w_view ]);
        ignore (run_unit sched [ w_pending ]);
        let v = Option.get (Runner.find_view ext "wv") in
        { e_db = db; e_delta = delta_of v;
          e_run =
            (fun sql ->
               match run_unit sched [ sql ] with
               | Scheduler.Failed _ -> true
               | Scheduler.Applied _ -> false);
          e_view_ok = view_ok v; e_close = ignore } );
    ( "Pipeline.exec_oltp, then sync",
      fun () ->
        let p =
          Pipeline.create ~schema_sql:(String.concat ";\n" w_schema)
            ~view_sql:w_view ()
        in
        ignore (Pipeline.exec_oltp p w_seed);
        ignore (Pipeline.sync p);
        ignore (Pipeline.exec_oltp p w_pending);
        let oltp = Openivm_htap.Oltp.db (Pipeline.oltp p) in
        let outbox =
          Catalog.find_table (Database.catalog oltp)
            (delta_of (Pipeline.view p)).Table.name
        in
        { e_db = oltp; e_delta = outbox;
          e_run = (fun sql -> raised (fun () -> Pipeline.exec_oltp p sql));
          e_view_ok =
            (fun () ->
               ignore (Pipeline.sync p);
               Pipeline.verify p);
          e_close = ignore } ) ]

(* rows, and every PK and secondary lookup against a filtered scan *)
let w_state db =
  let tbl = Catalog.find_table (Database.catalog db) "w" in
  let rows = List.sort compare (List.map Row.to_string (Table.to_rows tbl)) in
  let pk =
    List.init 10 (fun a ->
        match Table.pk_lookup tbl (Value.encode_key [| Value.Int a |]) with
        | Some r -> Row.to_string r
        | None -> "-")
  in
  let ix = Option.get (Table.find_secondary tbl "w_b") in
  let secondary =
    List.map
      (fun b ->
         let by_index = Table.index_lookup tbl ix (Value.encode_key [| Value.Str b |]) in
         let by_scan =
           List.filter (fun (r : Row.t) -> r.(1) = Value.Str b) (Table.to_rows tbl)
         in
         Alcotest.(check (list string)) ("index lookup of " ^ b ^ " = scan")
           (List.map Row.to_string by_scan) (List.map Row.to_string by_index);
         String.concat ";" (List.map Row.to_string by_index))
      [ "x"; "y"; "q"; "dup" ]
  in
  (rows, pk, secondary)

let test_failure_matrix () =
  List.iter
    (fun (entry_name, make) ->
       List.iter
         (fun (case, sql) ->
            let msg = Printf.sprintf "%s, %s" entry_name case in
            let e = make () in
            Fun.protect ~finally:e.e_close (fun () ->
                let before = w_state e.e_db in
                let deltas () =
                  List.sort compare (List.map Row.to_string (Table.to_rows e.e_delta))
                in
                let deltas_before = deltas () in
                Alcotest.(check bool) (msg ^ ": a delta is pending") true
                  (deltas_before <> []);
                Alcotest.(check bool) (msg ^ ": fails") true (e.e_run sql);
                let rows, pk, secondary = w_state e.e_db in
                let rows0, pk0, secondary0 = before in
                Alcotest.(check (list string)) (msg ^ ": rows") rows0 rows;
                Alcotest.(check (list string)) (msg ^ ": PK lookups") pk0 pk;
                Alcotest.(check (list string)) (msg ^ ": secondary lookups")
                  secondary0 secondary;
                Alcotest.(check (list string)) (msg ^ ": delta rows") deltas_before
                  (deltas ());
                Alcotest.(check bool) (msg ^ ": view = recompute") true
                  (e.e_view_ok ())))
         failing)
    entries

(* --- secondary indexes stay linear under bulk change ---------------- *)

(* An all-rows UPDATE moves every row out of and back into one of two
   index keys. With a set of slots per key each move is O(log n); the
   list it replaced was walked per move, so 4x the rows cost ~25x. *)
let test_secondary_index_linear () =
  let setup n =
    let db =
      Util.db_with
        [ "CREATE TABLE s(id INTEGER PRIMARY KEY, k VARCHAR, v INTEGER)";
          "CREATE INDEX s_k ON s(k)" ]
    in
    Util.exec db
      ("INSERT INTO s VALUES "
       ^ String.concat ", "
           (List.init n (fun i ->
                Printf.sprintf "(%d, '%s', %d)" i
                  (if i mod 2 = 0 then "even" else "odd") i)));
    db
  in
  let update db = Util.exec db "UPDATE s SET v = v + 1" in
  let rolled_back db =
    let exception Abort in
    try Database.atomically db (fun () -> update db; raise Abort) with Abort -> ()
  in
  let check_lookups what db =
    let tbl = Catalog.find_table (Database.catalog db) "s" in
    let ix = Option.get (Table.find_secondary tbl "s_k") in
    List.iter
      (fun k ->
         Alcotest.(check (list string)) (what ^ ": lookup of " ^ k ^ " = scan")
           (List.map Row.to_string
              (List.filter (fun (r : Row.t) -> r.(1) = Value.Str k) (Table.to_rows tbl)))
           (List.map Row.to_string
              (Table.index_lookup tbl ix (Value.encode_key [| Value.Str k |]))))
      [ "even"; "odd" ]
  in
  (* processor time, best of 7, each from a compacted heap: a shared
     host's descheduling and one unlucky major slice decide nothing *)
  let best n op =
    let db = setup n in
    let t =
      List.fold_left min infinity
        (List.init 7 (fun _ ->
             Gc.compact ();
             let t0 = Sys.time () in
             op db;
             Sys.time () -. t0))
    in
    check_lookups (Printf.sprintf "%d rows" n) db;
    t
  in
  List.iter
    (fun (what, op) ->
       let small = best 5_000 op and large = best 20_000 op in
       if large > 8.0 *. small then
         Alcotest.failf "%s: 20k rows took %.3f s, over 8x the %.3f s of 5k" what
           large small)
    [ ("UPDATE", update); ("UPDATE rolled back", rolled_back) ]

let bad = "INSERT INTO t VALUES ('boom')"

(* (case, the unit, ids the unit wrote that must not survive) *)
let cases =
  [ ( "multi-row INSERT, last row a duplicate",
      [ "INSERT INTO t VALUES (1000, 'x', 1)";
        "UPDATE t SET v = v + 1 WHERE grp = 'a'";
        "INSERT INTO t VALUES (1001, 'x', 2), (1002, 'q', 3), (1, 'dup', 0)" ],
      [ 1000; 1001; 1002 ] );
    ( "PK-moving UPDATE",
      [ "UPDATE t SET id = id + 1000 WHERE grp = 'b'";
        "INSERT INTO t VALUES (1002, 'dup', 0)" ],
      [ 1002; 1007; 1197 ] );
    ( "PK-moving UPDATE failing part-way",
      [ "DELETE FROM t WHERE id = 3"; "UPDATE t SET id = 4 WHERE grp = 'c'" ],
      [] );
    ( "predicate DELETE large enough to compact",
      [ "DELETE FROM t WHERE v < 180"; "INSERT INTO t VALUES (1000, 'x', 1)"; bad ],
      [ 1000 ] );
    ( "TRUNCATE",
      [ "INSERT INTO t VALUES (1000, 'x', 1)"; "TRUNCATE t";
        "INSERT INTO t VALUES (1, 'q', 1), (1001, 'x', 2)"; bad ],
      [ 1000; 1001 ] );
    ( "INSERT OR REPLACE",
      [ "INSERT OR REPLACE INTO t VALUES (1, 'q', 99), (1000, 'x', 5)";
        "INSERT OR REPLACE INTO t VALUES (1, 'dup', 98)"; bad ],
      [ 1000 ] ) ]

let test_unit_matrix () =
  List.iter
    (fun refresh ->
       List.iter
         (fun (case, stmts, absent_ids) ->
            let msg =
              Printf.sprintf "%s (%s)" case
                (match refresh with Flags.Eager -> "eager" | Flags.Lazy -> "lazy")
            in
            let db, ext, sched = seeded_scheduler refresh in
            let v = Option.get (Runner.find_view ext "s") in
            let before = Util.sorted_rows db "SELECT * FROM t" in
            let slots_before = Vec.length (table db).Table.slots in
            (match run_unit sched stmts with
             | Scheduler.Failed _ -> ()
             | Scheduler.Applied _ -> Alcotest.failf "%s: unit applied" msg);
            Alcotest.(check (list string)) (msg ^ ": rows") before
              (Util.sorted_rows db "SELECT * FROM t");
            Alcotest.(check int) (msg ^ ": row count") 200
              (Table.row_count (table db));
            Alcotest.(check int) (msg ^ ": slots") slots_before
              (Vec.length (table db).Table.slots);
            check_indexes ~msg db ~absent_ids;
            check_view ~msg:(msg ^ ": view = recompute") v;
            (* the same statements minus the failing one commit cleanly *)
            let good =
              List.filter
                (fun sql ->
                   match run_unit sched [ sql ] with
                   | Scheduler.Applied _ -> true
                   | Scheduler.Failed _ -> false)
                stmts
            in
            Alcotest.(check bool) (msg ^ ": some statement commits") true
              (good <> []);
            check_indexes ~msg:(msg ^ ", then committed") db ~absent_ids:[];
            check_view ~msg:(msg ^ ", then committed: view = recompute") v)
         cases)
    [ Flags.Lazy; Flags.Eager ]

let test_compaction_waits_for_commit () =
  let db, ext, sched = seeded_scheduler Flags.Lazy in
  let v = Option.get (Runner.find_view ext "s") in
  (match
     run_unit sched
       [ "DELETE FROM t WHERE v < 180"; "INSERT INTO t VALUES (1000, 'x', 1)" ]
   with
   | Scheduler.Applied _ -> ()
   | Scheduler.Failed { message; _ } -> Alcotest.failf "unit failed: %s" message);
  let tbl = table db in
  Alcotest.(check int) "live rows" 21 (Table.row_count tbl);
  Alcotest.(check int) "compacted at commit" 21 (Vec.length tbl.Table.slots);
  check_indexes ~msg:"after compaction" db ~absent_ids:[ 1; 179 ];
  check_view v

let test_ddl_refused_in_multi_statement_unit () =
  let db, ext, sched = seeded_scheduler Flags.Lazy in
  let v = Option.get (Runner.find_view ext "s") in
  (match
     run_unit sched
       [ "INSERT INTO t VALUES (1000, 'x', 1)"; "CREATE TABLE z(a INTEGER)" ]
   with
   | Scheduler.Failed { code = "TXN"; _ } -> ()
   | Scheduler.Failed { code; message } ->
     Alcotest.failf "wrong failure [%s] %s" code message
   | Scheduler.Applied _ -> Alcotest.fail "DDL ran inside a unit");
  Alcotest.(check bool) "no table created" false
    (Catalog.table_exists (Database.catalog db) "z");
  check_indexes ~msg:"after the refused unit" db ~absent_ids:[ 1000 ];
  check_view v

(* --- the stale PK of a bulk append --------------------------------- *)

let test_bulk_append_stale_pk () =
  let db = Database.create () in
  Util.exec db "CREATE TABLE src(id INTEGER, grp VARCHAR, v INTEGER)";
  Util.exec db
    ("INSERT INTO src VALUES "
     ^ String.concat ", "
         (List.init 50 (fun i -> Printf.sprintf "(%d, 'g%d', %d)" i (i mod 3) i)));
  Util.exec db t_ddl;
  Util.exec db "CREATE INDEX t_grp ON t(grp)";
  let ext = Runner.load db in
  let sched = Scheduler.create ext in
  ignore (run_unit sched [ s_view ]);
  let v = Option.get (Runner.find_view ext "s") in
  let tbl = table db in
  (match
     run_unit sched
       [ "INSERT INTO t SELECT * FROM src"; "DELETE FROM t WHERE v < 10"; bad ]
   with
   | Scheduler.Failed _ -> ()
   | Scheduler.Applied _ -> Alcotest.fail "unit applied");
  Alcotest.(check int) "rolled back: empty" 0 (Table.row_count tbl);
  Alcotest.(check bool) "rolled back: no PK entry" true
    (Table.pk_lookup tbl (Value.encode_key [| Value.Int 7 |]) = None);
  check_view ~msg:"rolled back: view = recompute" v;
  (match run_unit sched [ "INSERT INTO t SELECT * FROM src" ] with
   | Scheduler.Applied { affected; _ } ->
     Alcotest.(check int) "committed rows" 50 affected
   | Scheduler.Failed { message; _ } -> Alcotest.failf "commit failed: %s" message);
  Alcotest.(check int) "committed: count" 50 (Table.row_count tbl);
  (* nothing has read the PK since the append, so it is still stale; a
     failing unit must leave it stale, not declare the empty index fresh
     over the committed rows *)
  Alcotest.(check bool) "committed: PK stale" true tbl.Table.pk_stale;
  (match
     run_unit sched [ "INSERT INTO t SELECT * FROM src WHERE v < 0"; bad ]
   with
   | Scheduler.Failed _ -> ()
   | Scheduler.Applied _ -> Alcotest.fail "unit applied");
  List.iter
    (fun id ->
       match Table.pk_lookup tbl (Value.encode_key [| Value.Int id |]) with
       | Some r when r.(0) = Value.Int id -> ()
       | _ -> Alcotest.failf "committed: PK misses %d" id)
    (List.init 50 Fun.id);
  (match Table.find_secondary tbl "t_grp" with
   | Some ix ->
     Alcotest.(check int) "committed: ART lookup" 17
       (List.length (Table.index_lookup tbl ix (Value.encode_key [| Value.Str "g1" |])))
   | None -> Alcotest.fail "secondary index lost");
  (match run_unit sched [ "INSERT INTO t VALUES (7, 'dup', 0)" ] with
   | Scheduler.Failed _ -> ()
   | Scheduler.Applied _ -> Alcotest.fail "duplicate accepted after bulk append");
  let affected sql =
    match run_unit sched [ sql ] with
    | Scheduler.Applied { affected; _ } -> affected
    | Scheduler.Failed { message; _ } -> Alcotest.failf "%s: %s" sql message
  in
  Alcotest.(check int) "point UPDATE" 1 (affected "UPDATE t SET v = 100 WHERE id = 8");
  Alcotest.(check int) "point DELETE" 1 (affected "DELETE FROM t WHERE id = 9");
  check_view ~msg:"committed: view = recompute" v

(* --- savepoints ---------------------------------------------------- *)

let test_nested_savepoint () =
  let db, ext, v = embedded () in
  let exception Abort in
  Database.atomically db (fun () ->
      ignore (Util.exec_ext ext "INSERT INTO t VALUES (4, 'b', 40)");
      let pending = Runner.pending_deltas v in
      (try
         Database.atomically db (fun () ->
             ignore (Util.exec_ext ext "INSERT INTO t VALUES (5, 'c', 50)");
             ignore (Util.exec_ext ext "DELETE FROM t WHERE grp = 'a'");
             raise Abort)
       with Abort -> ());
      Alcotest.(check int) "inner rollback restores the pending deltas" pending
        (Runner.pending_deltas v);
      ignore (Util.exec_ext ext "INSERT INTO t VALUES (6, 'c', 60)"));
  Util.check_rows ~msg:"outer kept, inner reverted" db "SELECT id FROM t"
    [ "(1)"; "(2)"; "(3)"; "(4)"; "(6)" ];
  check_view v;
  (* an outer failure reverts an inner unit that had committed *)
  (try
     Database.atomically db (fun () ->
         Database.atomically db (fun () ->
             ignore (Util.exec_ext ext "INSERT INTO t VALUES (7, 'd', 70)"));
         raise Abort)
   with Abort -> ());
  Util.check_rows ~msg:"inner commit reverted by the outer rollback" db
    "SELECT id FROM t" [ "(1)"; "(2)"; "(3)"; "(4)"; "(6)" ];
  check_view v

let suite =
  [ Util.tc "embedded: a failing PK-moving UPDATE changes nothing"
      test_embedded_pk_moving_update;
    Util.tc "embedded: a multi-row INSERT failing on its last row keeps none"
      test_embedded_multi_row_insert;
    Util.tc "Store.exec: a failing UPDATE leaves what recovery finds"
      test_store_exec_failed_update;
    Util.tc "Store.exec: a dropped view stays dropped on reopen"
      test_store_dropped_view_stays_dropped;
    Util.tc "scheduler unit failing at statement k reverts rows, PK, ART, view"
      test_unit_matrix;
    Util.tc "compaction waits for the unit to commit" test_compaction_waits_for_commit;
    Util.tc "DDL in a multi-statement unit fails it with TXN and rolls it back"
      test_ddl_refused_in_multi_statement_unit;
    Util.tc "bulk INSERT..SELECT into an empty keyed table: rollback, then commit"
      test_bulk_append_stale_pk;
    Util.tc "nested savepoints roll back only to their own start"
      test_nested_savepoint;
    Util.tc "one failing statement, five entry points: nothing changes"
      test_failure_matrix;
    Util.tc "secondary index: a 4x larger UPDATE or rollback costs under 8x"
      test_secondary_index_linear ]
