open Openivm_engine

let suite =
  [ Util.tc "insert values and count" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER, b VARCHAR)" ] in
        (match Database.exec db "INSERT INTO t VALUES (1,'x'), (2,'y')" with
         | Database.Affected 2 -> ()
         | _ -> Alcotest.fail "affected");
        Util.check_scalar db "SELECT COUNT(*) FROM t" "2");
    Util.tc "insert with column list fills nulls" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER, b VARCHAR, c INTEGER)" ] in
        Util.exec db "INSERT INTO t (c, a) VALUES (3, 1)";
        Util.check_rows db "SELECT * FROM t" [ "(1, NULL, 3)" ]);
    Util.tc "insert coerces types" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a DOUBLE, d DATE)" ] in
        Util.exec db "INSERT INTO t VALUES (1, '2024-02-29')";
        Util.check_rows db "SELECT * FROM t" [ "(1.0, 2024-02-29)" ]);
    Util.tc "not null enforced" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER NOT NULL)" ] in
        match Database.exec db "INSERT INTO t VALUES (NULL)" with
        | exception Error.Sql_error _ -> ()
        | _ -> Alcotest.fail "expected NOT NULL violation");
    Util.tc "primary key uniqueness enforced" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)" ] in
        Util.exec db "INSERT INTO t VALUES (1, 10)";
        match Database.exec db "INSERT INTO t VALUES (1, 20)" with
        | exception Error.Sql_error _ -> ()
        | _ -> Alcotest.fail "expected duplicate key error");
    Util.tc "insert or replace upserts" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)" ] in
        Util.exec db "INSERT INTO t VALUES (1, 10), (2, 20)";
        Util.exec db "INSERT OR REPLACE INTO t VALUES (1, 99), (3, 30)";
        Util.check_rows db "SELECT * FROM t" [ "(1, 99)"; "(2, 20)"; "(3, 30)" ]);
    Util.tc "insert or replace without pk fails" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER)" ] in
        match Database.exec db "INSERT OR REPLACE INTO t VALUES (1)" with
        | exception Error.Sql_error _ -> ()
        | _ -> Alcotest.fail "expected error");
    Util.tc "on conflict do nothing" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)" ] in
        Util.exec db "INSERT INTO t VALUES (1, 10)";
        (match Database.exec db "INSERT INTO t VALUES (1, 99), (2, 20) ON CONFLICT DO NOTHING" with
         | Database.Affected 1 -> ()
         | _ -> Alcotest.fail "affected should be 1");
        Util.check_rows db "SELECT * FROM t" [ "(1, 10)"; "(2, 20)" ]);
    Util.tc "composite primary key" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE t(a INTEGER, b VARCHAR, v INTEGER, PRIMARY KEY (a, b))" ]
        in
        Util.exec db "INSERT INTO t VALUES (1, 'x', 5), (1, 'y', 6)";
        Util.exec db "INSERT OR REPLACE INTO t VALUES (1, 'x', 50)";
        Util.check_rows db "SELECT v FROM t" [ "(50)"; "(6)" ]);
    Util.tc "update with expression" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER, b INTEGER)" ] in
        Util.exec db "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)";
        (match Database.exec db "UPDATE t SET b = b + a WHERE a >= 2" with
         | Database.Affected 2 -> ()
         | _ -> Alcotest.fail "affected");
        Util.check_rows db "SELECT b FROM t" [ "(10)"; "(22)"; "(33)" ]);
    Util.tc "delete with predicate" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER)" ] in
        Util.exec db "INSERT INTO t VALUES (1), (2), (3), (4)";
        (match Database.exec db "DELETE FROM t WHERE a % 2 = 0" with
         | Database.Affected 2 -> ()
         | _ -> Alcotest.fail "affected");
        Util.check_rows db "SELECT a FROM t" [ "(1)"; "(3)" ]);
    Util.tc "truncate" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER)" ] in
        Util.exec db "INSERT INTO t VALUES (1), (2)";
        Util.exec db "TRUNCATE t";
        Util.check_scalar db "SELECT COUNT(*) FROM t" "0");
    Util.tc "insert from select" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE src(a INTEGER)"; "INSERT INTO src VALUES (1), (2)";
              "CREATE TABLE dst(a INTEGER, doubled INTEGER)" ]
        in
        Util.exec db "INSERT INTO dst SELECT a, a * 2 FROM src";
        Util.check_rows db "SELECT * FROM dst" [ "(1, 2)"; "(2, 4)" ]);
    Util.tc "triggers fire with old and new images" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER)" ] in
        let events = ref [] in
        Trigger.register (Database.triggers db) ~table:"t" ~name:"test"
          (fun change ->
             events :=
               (List.length change.Trigger.inserted,
                List.length change.Trigger.deleted)
               :: !events);
        Util.exec db "INSERT INTO t VALUES (1), (2)";
        Util.exec db "UPDATE t SET a = a + 1";
        Util.exec db "DELETE FROM t WHERE a = 3";
        Alcotest.(check (list (pair int int))) "events"
          [ (0, 1); (2, 2); (2, 0) ]
          !events);
    Util.tc "without_hooks suppresses triggers" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER)" ] in
        let fired = ref 0 in
        Trigger.register (Database.triggers db) ~table:"t" ~name:"test"
          (fun _ -> incr fired);
        let triggers = Database.triggers db in
        Trigger.without_hooks triggers (fun () ->
            Util.exec db "INSERT INTO t VALUES (1)");
        Util.exec db "INSERT INTO t VALUES (2)";
        Alcotest.(check int) "fired once" 1 !fired;
        (* nested calls stack: the inner return must not re-enable
           dispatch while the outer call is still running *)
        Trigger.without_hooks triggers (fun () ->
            Trigger.without_hooks triggers (fun () ->
                Util.exec db "INSERT INTO t VALUES (3)");
            Util.exec db "INSERT INTO t VALUES (4)");
        (match
           Trigger.without_hooks triggers (fun () ->
               Util.exec db "INSERT INTO t VALUES (5)";
               failwith "body raised")
         with
         | exception Failure _ -> ()
         | () -> Alcotest.fail "expected the body's exception");
        Alcotest.(check int) "suppressed while nested or raising" 1 !fired;
        Util.exec db "INSERT INTO t VALUES (6)";
        Alcotest.(check int) "fires again after both unwind" 2 !fired);
    Util.tc "secondary index stays consistent through dml" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER, b VARCHAR)" ] in
        Util.exec db "CREATE INDEX idx_b ON t(b)";
        Util.exec db "INSERT INTO t VALUES (1,'x'), (2,'y'), (3,'x')";
        Util.exec db "DELETE FROM t WHERE a = 1";
        Util.exec db "UPDATE t SET b = 'z' WHERE a = 2";
        let tbl = Catalog.find_table (Database.catalog db) "t" in
        let ix =
          match Table.find_secondary tbl "idx_b" with
          | Some ix -> ix
          | None -> Alcotest.fail "index missing"
        in
        let lookup key =
          List.length (Table.index_lookup tbl ix (Value.encode_key [| Value.Str key |]))
        in
        Alcotest.(check int) "x entries" 1 (lookup "x");
        Alcotest.(check int) "y entries" 0 (lookup "y");
        Alcotest.(check int) "z entries" 1 (lookup "z"));
    Util.tc "table compaction preserves contents" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER PRIMARY KEY)" ] in
        for i = 1 to 200 do
          Util.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i)
        done;
        Util.exec db "DELETE FROM t WHERE a % 4 <> 0";
        Util.check_scalar db "SELECT COUNT(*) FROM t" "50";
        Util.check_scalar db "SELECT MIN(a) FROM t" "4";
        (* upsert after compaction still routes through the PK index *)
        Util.exec db "INSERT OR REPLACE INTO t VALUES (4)";
        Util.check_scalar db "SELECT COUNT(*) FROM t" "50");
    Util.tc "drop table removes catalog entry" (fun () ->
        let db = Util.db_with [ "CREATE TABLE t(a INTEGER)" ] in
        Util.exec db "DROP TABLE t";
        match Database.query db "SELECT * FROM t" with
        | exception Error.Sql_error _ -> ()
        | _ -> Alcotest.fail "table should be gone");
    (* regression: catalog name listings must be sorted, not hashtable
       iteration order — SHOW TABLES output and the fuzz oracle's view
       install order both depend on it being deterministic *)
    Util.tc "catalog name listings are sorted" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE zeta(a INTEGER)";
              "CREATE TABLE alpha(a INTEGER)";
              "CREATE TABLE mid(a INTEGER)";
              "CREATE VIEW v_z AS SELECT a FROM zeta";
              "CREATE VIEW v_a AS SELECT a FROM alpha" ]
        in
        let cat = Database.catalog db in
        Alcotest.(check (list string)) "tables sorted"
          [ "alpha"; "mid"; "zeta" ] (Catalog.table_names cat);
        Alcotest.(check (list string)) "views sorted"
          [ "v_a"; "v_z" ] (Catalog.view_names cat);
        let sorted l = List.sort String.compare l in
        let mvs = Catalog.mat_view_names cat in
        Alcotest.(check (list string)) "mat views sorted" (sorted mvs) mvs);
  ]
