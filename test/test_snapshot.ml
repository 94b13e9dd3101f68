open Openivm_engine

let with_temp_dir f =
  let dir = Filename.temp_file "openivm_snap" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
        if Sys.file_exists dir then begin
          Array.iter
            (fun entry -> Sys.remove (Filename.concat dir entry))
            (Sys.readdir dir);
          Sys.rmdir dir
        end)
    (fun () -> f dir)

let suite =
  [ Util.tc "save/load round-trips tables, keys and indexes" (fun () ->
        with_temp_dir (fun dir ->
            let db =
              Util.db_with
                [ "CREATE TABLE t(id INTEGER PRIMARY KEY, name VARCHAR, f \
                   DOUBLE, d DATE)";
                  "CREATE INDEX idx_name ON t(name)";
                  "INSERT INTO t VALUES (1, 'a,b', 1.5, '2024-01-01'), (2, \
                   NULL, NULL, NULL)" ]
            in
            Alcotest.(check int) "tables saved" 1 (Snapshot.save db ~dir);
            let db2 = Snapshot.load ~dir in
            Alcotest.(check (list string)) "rows"
              (Util.sorted_rows db "SELECT * FROM t")
              (Util.sorted_rows db2 "SELECT * FROM t");
            (* the PK survives: duplicate insert must fail *)
            (match Database.exec db2 "INSERT INTO t VALUES (1, 'x', 0, NULL)" with
             | exception Error.Sql_error _ -> ()
             | _ -> Alcotest.fail "pk not restored");
            (* the secondary index survives and is used *)
            let tbl = Catalog.find_table (Database.catalog db2) "t" in
            Alcotest.(check bool) "index restored" true
              (Table.find_secondary tbl "idx_name" <> None)));
    Util.tc "snapshot of an IVM database restores view + delta tables" (fun () ->
        with_temp_dir (fun dir ->
            let db =
              Util.db_with
                [ "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER)";
                  "INSERT INTO groups VALUES ('a', 1), ('b', 2)" ]
            in
            let v =
              Openivm.Runner.install db
                "CREATE MATERIALIZED VIEW qg AS SELECT group_index, \
                 SUM(group_value) AS s FROM groups GROUP BY group_index"
            in
            Util.exec db "INSERT INTO groups VALUES ('a', 10)";
            Openivm.Runner.refresh v;
            ignore (Snapshot.save db ~dir);
            let db2 = Snapshot.load ~dir in
            (* the materialized contents and metadata traveled *)
            Util.check_rows db2 "SELECT group_index, s FROM qg"
              [ "(a, 11)"; "(b, 2)" ];
            Util.check_scalar db2
              "SELECT COUNT(*) FROM _openivm_views WHERE view_name = 'qg'" "1";
            (* the stored propagation script still runs on the restored db *)
            Util.exec db2
              "INSERT INTO delta_qg__groups VALUES ('c', 7, TRUE)";
            let stored =
              Database.query db2
                "SELECT sql FROM _openivm_scripts WHERE view_name = 'qg' \
                 ORDER BY step"
            in
            List.iter
              (fun (row : Row.t) ->
                 Util.exec db2 (Value.to_string row.(0)))
              stored.Database.rows;
            Util.check_rows db2 "SELECT group_index, s FROM qg"
              [ "(a, 11)"; "(b, 2)"; "(c, 7)" ]));
    Util.tc "loading a missing snapshot fails cleanly" (fun () ->
        match Snapshot.load ~dir:"/nonexistent/snapshot/dir" with
        | exception Error.Sql_error _ -> ()
        | _ -> Alcotest.fail "expected error");
    Util.tc "a raising hook discards the deferred refresh queue" (fun () ->
        (* eager refreshes run deferred, after the outermost trigger
           dispatch; if a later hook aborts the statement those deferred
           callbacks must not fire over half-applied state — and must not
           linger to fire under some future, unrelated statement *)
        let db =
          Util.db_with
            [ "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER)";
              "INSERT INTO groups VALUES ('a', 1)" ]
        in
        let eager =
          { Openivm.Flags.default with Openivm.Flags.refresh = Openivm.Flags.Eager }
        in
        let v =
          Openivm.Runner.install ~flags:eager db
            "CREATE MATERIALIZED VIEW qg AS SELECT group_index, \
             SUM(group_value) AS s FROM groups GROUP BY group_index"
        in
        let exception Veto in
        (* registered after the IVM capture hook, so the eager refresh is
           already queued when this fires *)
        Trigger.register (Database.triggers db) ~table:"groups" ~name:"veto"
          (fun _ -> raise Veto);
        (match Database.exec db "INSERT INTO groups VALUES ('b', 2)" with
         | exception Veto -> ()
         | _ -> Alcotest.fail "expected the veto to propagate");
        Alcotest.(check int) "no ghost refresh queued" 0
          (Trigger.pending_deferred (Database.triggers db));
        Alcotest.(check int) "deferred refresh never fired" 0
          v.Openivm.Runner.refresh_count;
        (* the engine applied the row before hooks fired; the view still
           converges once refreshed through the normal path *)
        Trigger.unregister (Database.triggers db) ~name:"veto";
        Openivm.Runner.refresh v;
        Util.check_view_consistent db v);
    Util.tc "ART secondary indexes answer correctly after mid-batch restore"
      (fun () ->
         (* the serving layer's rollback path: half-apply a unit that
            churns indexed keys, then fail it so the undo journal reverts
            it. Point lookups afterwards go through the ART secondary — a
            rollback that restored rows but left stale index entries (or
            dropped fresh ones) answers these queries wrongly even though
            a full scan would look fine *)
         let db =
           Util.db_with
             [ "CREATE TABLE t(id INTEGER PRIMARY KEY, name VARCHAR, v INTEGER)";
               "CREATE INDEX idx_name ON t(name)";
               "INSERT INTO t VALUES (1, 'alice', 10), (2, 'bob', 20), (3, \
                'alice', 30)" ]
         in
         let exception Abort in
         (match
            Database.atomically db (fun () ->
                Util.exec db
                  "INSERT INTO t VALUES (4, 'carol', 40), (5, 'alice', 50)";
                Util.exec db "DELETE FROM t WHERE name = 'bob'";
                Util.exec db "UPDATE t SET name = 'dave' WHERE id = 1";
                raise Abort)
          with
          | exception Abort -> ()
          | () -> Alcotest.fail "expected the unit to fail");
         Util.check_rows ~msg:"captured keys still indexed" db
           "SELECT id, v FROM t WHERE name = 'alice'" [ "(1, 10)"; "(3, 30)" ];
         Util.check_rows ~msg:"deleted-then-restored key answers" db
           "SELECT id FROM t WHERE name = 'bob'" [ "(2)" ];
         Util.check_rows ~msg:"rolled-back insert leaves no ghost entry" db
           "SELECT id FROM t WHERE name = 'carol'" [];
         Util.check_rows ~msg:"rolled-back update leaves no moved entry" db
           "SELECT id FROM t WHERE name = 'dave'" [];
         let tbl = Catalog.find_table (Database.catalog db) "t" in
         Alcotest.(check bool) "secondary index object survives restore" true
           (Table.find_secondary tbl "idx_name" <> None);
         (* and the index keeps being maintained after the restore *)
         Util.exec db "INSERT INTO t VALUES (6, 'erin', 60)";
         Util.check_rows ~msg:"index maintained post-restore" db
           "SELECT id FROM t WHERE name = 'erin'" [ "(6)" ];
         (match Database.exec db "INSERT INTO t VALUES (1, 'dup', 0)" with
          | exception Error.Sql_error _ -> ()
          | _ -> Alcotest.fail "pk uniqueness lost after restore"));
    Util.tc "restore during a dispatch clears deferred refreshes" (fun () ->
        (* a unit rolled back in the middle of a trigger dispatch, after
           the eager refresh the dispatching statement triggered was
           deferred: the rollback itself must drop that refresh, so it
           does not fire over the reverted state once the dispatch
           returns normally *)
        let db =
          Util.db_with
            [ "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER)";
              "CREATE TABLE audit(x INTEGER)";
              "INSERT INTO groups VALUES ('a', 1)" ]
        in
        let eager =
          { Openivm.Flags.default with Openivm.Flags.refresh = Openivm.Flags.Eager }
        in
        let ext = Openivm.Runner.load ~flags:eager db in
        let v =
          match
            Util.exec_ext ext
              "CREATE MATERIALIZED VIEW qg AS SELECT group_index, \
               SUM(group_value) AS s FROM groups GROUP BY group_index"
          with
          | `Installed v -> v
          | `Result _ -> Alcotest.fail "view not installed"
        in
        let exception Abort in
        let saw_deferred = ref (-1) in
        (* registered after the IVM capture hook, so the eager refresh is
           already queued when this fires *)
        Trigger.register (Database.triggers db) ~table:"groups"
          ~name:"rollback" (fun _ ->
              saw_deferred :=
                Trigger.pending_deferred (Database.triggers db);
              try
                Database.atomically db (fun () ->
                    Util.exec db "INSERT INTO audit VALUES (1)";
                    raise Abort)
              with Abort -> ());
        ignore (Util.exec_ext ext "INSERT INTO groups VALUES ('b', 2)");
        Alcotest.(check int) "the eager refresh had been queued" 1
          !saw_deferred;
        Alcotest.(check int) "rollback dropped it" 0
          v.Openivm.Runner.refresh_count;
        Alcotest.(check int) "queue empty after the dispatch" 0
          (Trigger.pending_deferred (Database.triggers db));
        Util.check_rows ~msg:"the rolled-back unit's row is gone" db
          "SELECT * FROM audit" [];
        Util.check_rows ~msg:"the dispatching statement stands" db
          "SELECT * FROM groups" [ "(a, 1)"; "(b, 2)" ];
        Trigger.unregister (Database.triggers db) ~name:"rollback";
        Openivm.Runner.refresh v;
        Util.check_view_consistent db v);
  ]
