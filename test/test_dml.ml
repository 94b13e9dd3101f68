open Openivm_engine

let refuses db sql =
  match Database.exec db sql with
  | exception Error.Sql_error _ -> ()
  | _ -> Alcotest.failf "accepted %S" sql

let affected db sql =
  match Database.exec db sql with
  | Database.Affected n -> n
  | _ -> Alcotest.failf "%S returned no row count" sql

let table db name = Catalog.find_table (Database.catalog db) name

(* The live (slot, row) pairs of [tbl] whose [positions] equal [values],
   found by a scan: what [Table.probe] must return. *)
let scan_slots tbl positions values =
  let acc = ref [] in
  Table.iter_slots
    (fun slot (row : Row.t) ->
       if Array.for_all2 Value.equal (Array.map (fun i -> row.(i)) positions) values
       then acc := (slot, row) :: !acc)
    tbl;
  List.rev !acc

let check_probe ~msg tbl ~index positions values =
  let show = List.map (fun (slot, row) -> Printf.sprintf "%d:%s" slot (Row.to_string row)) in
  Alcotest.(check (list string)) msg
    (show (scan_slots tbl positions values))
    (show (Table.probe tbl ~index values))

(* --- probe = scan on a seeded statement stream ------------------------

   [k] has a primary key, a 2-value index on [g] and a UNIQUE index on
   [u]; [p] is its index-free twin. A statement [k] accepts runs on [p]
   too, so both hold the same rows, and every lookup through [k]'s
   indexes must equal a filtered scan. Each statement first runs inside
   a unit that is rolled back, which must leave everything as it was; a
   statement [k] refuses must leave it as it was too. *)

let twin_stream ~seed ~steps =
  let db =
    Util.db_with
      [ "CREATE TABLE k(id INTEGER PRIMARY KEY, g INTEGER, u VARCHAR, \
         v INTEGER NOT NULL)";
        "CREATE INDEX k_g ON k(g)";
        "CREATE UNIQUE INDEX k_u ON k(u)";
        "CREATE TABLE p(id INTEGER, g INTEGER, u VARCHAR, v INTEGER NOT NULL)" ]
  in
  let k = table db "k" in
  let g_ix = Option.get (Table.find_secondary k "k_g") in
  let u_ix = Option.get (Table.find_secondary k "k_u") in
  let rng = Random.State.make [| seed |] in
  let pick n = Random.State.int rng n in
  let u () = if pick 4 = 0 then "NULL" else Printf.sprintf "'u%d'" (pick 30) in
  let row () = Printf.sprintf "(%d, %d, %s, %d)" (pick 40) (pick 2) (u ()) (pick 100) in
  (* a statement over table [t], its random constants drawn once *)
  let statement () : string -> string =
    let c = pick 100 and id = pick 40 and id' = pick 40 and g = pick 2
    and g' = pick 2 and d = 1 + pick 5 and uu = u () and a = row ()
    and b = row () in
    let f = Printf.sprintf in
    match pick 14 with
    | 0 -> fun t -> f "INSERT INTO %s VALUES %s" t a
    | 1 -> fun t -> f "INSERT INTO %s VALUES %s, %s" t a b
    | 2 -> fun t -> f "UPDATE %s SET v = v + 1 WHERE id = %d" t id
    | 3 -> fun t -> f "UPDATE %s SET v = v * 2 WHERE g = %d" t g
    | 4 -> fun t -> f "UPDATE %s SET g = 1 - g WHERE v > %d" t c
    | 5 -> fun t -> f "UPDATE %s SET id = id + %d WHERE g = %d" t d g
    | 6 -> fun t -> f "UPDATE %s SET u = %s WHERE id = %d" t uu id
    | 7 -> fun t -> f "DELETE FROM %s WHERE id = %d" t id
    | 8 -> fun t -> f "DELETE FROM %s WHERE g = %d AND v < %d" t g c
    | 9 -> fun t -> f "DELETE FROM %s WHERE v < %d" t (c / 4)
    | 10 -> fun t -> f "UPDATE %s SET v = NULL WHERE id = %d" t id
    | 11 -> fun t -> f "UPDATE %s SET v = 1, v = 2 WHERE g = %d" t g
    | 12 -> fun t -> f "UPDATE %s SET id = %d WHERE id = %d" t id id'
    | _ ->
      fun t ->
        f "UPDATE %s SET g = %d, v = v + 1 WHERE id = %d AND g = %d" t g id g'
  in
  let rows t = Util.sorted_rows db ("SELECT * FROM " ^ t) in
  let check_lookups msg =
    let f_msg msg what v = Printf.sprintf "%s: probe %s = %s" msg what v in
    let ids =
      List.sort_uniq compare
        (List.init 45 Fun.id
         @ List.map
             (fun (r : Row.t) -> match r.(0) with Value.Int i -> i | _ -> -1)
             (Table.to_rows k))
    in
    List.iter
      (fun id ->
         check_probe ~msg:(f_msg msg "id" (string_of_int id)) k ~index:None [| 0 |]
           [| Value.Int id |])
      ids;
    List.iter
      (fun g ->
         check_probe ~msg:(f_msg msg "g" (string_of_int g)) k ~index:(Some g_ix) [| 1 |]
           [| Value.Int g |];
         Alcotest.(check (list string)) (f_msg msg "SQL g" (string_of_int g))
           (Util.sorted_rows db (Printf.sprintf "SELECT * FROM p WHERE g = %d" g))
           (Util.sorted_rows db (Printf.sprintf "SELECT * FROM k WHERE g = %d" g)))
      [ 0; 1 ];
    List.iter
      (fun u ->
         check_probe ~msg:(f_msg msg "u" (Value.to_string u)) k ~index:(Some u_ix) [| 2 |]
           [| u |])
      (Value.Null :: List.init 30 (fun i -> Value.Str (Printf.sprintf "u%d" i)))
  in
  for step = 1 to steps do
    let stmt = statement () in
    let msg = Printf.sprintf "seed %d, step %d: %s" seed step (stmt "k") in
    let before = (rows "k", rows "p") in
    let exception Abort in
    (try
       Database.atomically db (fun () ->
           (try ignore (Database.exec db (stmt "k")) with Error.Sql_error _ -> ());
           raise Abort)
     with Abort -> ());
    Alcotest.(check (pair (list string) (list string))) (msg ^ ": rolled back")
      before (rows "k", rows "p");
    check_lookups (msg ^ ", rolled back");
    (match Database.exec db (stmt "k") with
     | exception Error.Sql_error _ ->
       Alcotest.(check (pair (list string) (list string))) (msg ^ ": refused whole")
         before (rows "k", rows "p")
     | Database.Affected n ->
       Alcotest.(check int) (msg ^ ": twin affects as many") n
         (affected db (stmt "p"))
     | _ -> Alcotest.fail (msg ^ ": no row count"));
    Alcotest.(check (list string)) (msg ^ ": twin rows") (rows "p") (rows "k");
    let us =
      List.filter_map
        (fun (r : Row.t) -> if Value.is_null r.(2) then None else Some (Value.to_string r.(2)))
        (Table.to_rows k)
    in
    Alcotest.(check int) (msg ^ ": UNIQUE u holds")
      (List.length us) (List.length (List.sort_uniq compare us));
    check_lookups msg
  done


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
        Alcotest.(check int) "z entries" 1 (lookup "z");
        List.iter (fun seed -> twin_stream ~seed ~steps:150) [ 1; 2; 3 ]);
    Util.tc "a non-key UPDATE overwrites every row in its slot" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE s(id INTEGER PRIMARY KEY, g INTEGER, v INTEGER)";
              "CREATE INDEX s_g ON s(g)" ]
        in
        Util.exec db
          ("INSERT INTO s VALUES "
           ^ String.concat ", "
               (List.init 500 (fun i -> Printf.sprintf "(%d, %d, %d)" i (i mod 2) i)));
        let tbl = table db "s" in
        let layout () =
          let acc = ref [] in
          Table.iter_slots (fun slot (row : Row.t) -> acc := (slot, row.(0)) :: !acc) tbl;
          (Vec.length tbl.Table.slots, List.rev !acc)
        in
        let before = layout () in
        Util.exec db "UPDATE s SET v = v + 1";
        Util.exec db "UPDATE s SET v = v + 1 WHERE id = 7";
        Util.exec db "UPDATE s SET v = v - 1 WHERE g = 1";
        Alcotest.(check bool) "slot count and every row's slot" true (before = layout ());
        Util.check_scalar db "SELECT SUM(v) FROM s" (string_of_int ((499 * 500 / 2) + 500 + 1 - 250));
        check_probe ~msg:"g = 1 after the updates" tbl
          ~index:(Some (Option.get (Table.find_secondary tbl "s_g")))
          [| 1 |] [| Value.Int 1 |]);
    Util.tc "a rolled-back PK-moving UPDATE moves its keys back" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE w(a INTEGER PRIMARY KEY, b VARCHAR)";
              "CREATE INDEX w_b ON w(b)";
              "INSERT INTO w VALUES (1, 'x'), (2, 'y'), (3, 'x')" ]
        in
        let before = Util.sorted_rows db "SELECT * FROM w" in
        let exception Abort in
        (try
           Database.atomically db (fun () ->
               Util.exec db "UPDATE w SET a = a + 10, b = 'z'";
               Util.exec db "UPDATE w SET a = 21 WHERE a = 11";
               Alcotest.(check int) "moved inside the unit" 1
                 (List.length (Util.sorted_rows db "SELECT * FROM w WHERE a = 21"));
               raise Abort)
         with Abort -> ());
        Alcotest.(check (list string)) "rows" before (Util.sorted_rows db "SELECT * FROM w");
        let tbl = table db "w" in
        let ix = Option.get (Table.find_secondary tbl "w_b") in
        List.iter
          (fun a ->
             check_probe ~msg:(Printf.sprintf "PK %d" a) tbl ~index:None [| 0 |]
               [| Value.Int a |])
          [ 1; 2; 3; 11; 12; 13; 21 ];
        List.iter
          (fun a ->
             Alcotest.(check int) (Printf.sprintf "old key %d found" a) 1
               (List.length (Table.probe tbl ~index:None [| Value.Int a |])))
          [ 1; 2; 3 ];
        List.iter
          (fun b ->
             check_probe ~msg:("secondary " ^ b) tbl ~index:(Some ix) [| 1 |]
               [| Value.Str b |])
          [ "x"; "y"; "z" ]);
    Util.tc "UNIQUE index holds through a multi-row INSERT" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE w(a INTEGER PRIMARY KEY, b VARCHAR)";
              "CREATE UNIQUE INDEX w_b ON w(b)" ]
        in
        (* into an empty table: the bulk append path *)
        refuses db "INSERT INTO w VALUES (1, 'x'), (2, 'x')";
        Util.exec db "INSERT INTO w VALUES (1, 'x'), (2, 'y')";
        refuses db "INSERT INTO w VALUES (3, 'q'), (4, 'q')";
        refuses db "INSERT INTO w VALUES (3, 'y')";
        Util.check_rows db "SELECT * FROM w" [ "(1, x)"; "(2, y)" ]);
    Util.tc "UNIQUE index holds through INSERT OR REPLACE" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE w(a INTEGER PRIMARY KEY, b VARCHAR)";
              "CREATE UNIQUE INDEX w_b ON w(b)";
              "INSERT INTO w VALUES (1, 'x'), (2, 'y')" ]
        in
        (* only a PK conflict replaces; a secondary one fails *)
        refuses db "INSERT OR REPLACE INTO w VALUES (3, 'x')";
        refuses db "INSERT OR REPLACE INTO w VALUES (1, 'y')";
        Util.exec db "INSERT OR REPLACE INTO w VALUES (1, 'x2'), (3, 'x')";
        Util.check_rows db "SELECT * FROM w" [ "(1, x2)"; "(2, y)"; "(3, x)" ]);
    Util.tc "UNIQUE index holds through UPDATE" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE w(a INTEGER PRIMARY KEY, b VARCHAR)";
              "CREATE UNIQUE INDEX w_b ON w(b)";
              "INSERT INTO w VALUES (1, 'x'), (2, 'y')" ]
        in
        refuses db "UPDATE w SET b = 'x' WHERE a = 2";
        refuses db "UPDATE w SET b = 'q'";
        (* a row keeping its own key clashes with nobody *)
        Util.exec db "UPDATE w SET b = 'x' WHERE a = 1";
        Util.exec db "UPDATE w SET b = 'z' WHERE a = 2";
        Util.check_rows db "SELECT * FROM w" [ "(1, x)"; "(2, z)" ]);
    Util.tc "ON CONFLICT DO NOTHING skips a UNIQUE conflict" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE w(a INTEGER PRIMARY KEY, b VARCHAR)";
              "CREATE UNIQUE INDEX w_b ON w(b)";
              "INSERT INTO w VALUES (1, 'x')" ]
        in
        Alcotest.(check int) "affected" 1
          (affected db "INSERT INTO w VALUES (2, 'x'), (3, 'z') ON CONFLICT DO NOTHING");
        Util.check_rows db "SELECT * FROM w" [ "(1, x)"; "(3, z)" ]);
    Util.tc "UNIQUE keys with a NULL column never collide" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE n(a INTEGER, b VARCHAR, c INTEGER)";
              "INSERT INTO n VALUES (1, NULL, 1), (2, NULL, 1)" ]
        in
        Util.exec db "CREATE UNIQUE INDEX n_b ON n(b)";
        Util.exec db "CREATE UNIQUE INDEX n_bc ON n(b, c)";
        Util.exec db "INSERT INTO n VALUES (3, NULL, 1)";
        Util.exec db "UPDATE n SET c = 2 WHERE a = 3";
        Util.exec db "UPDATE n SET b = 'x' WHERE a = 1";
        refuses db "UPDATE n SET b = 'x' WHERE a = 2";
        Util.check_scalar db "SELECT COUNT(*) FROM n WHERE b IS NULL" "2");
    Util.tc "UPDATE refuses a column assigned twice" (fun () ->
        let db =
          Util.db_with
            [ "CREATE TABLE t(a INTEGER PRIMARY KEY, v INTEGER)";
              "INSERT INTO t VALUES (1, 0)" ]
        in
        refuses db "UPDATE t SET v = 1, v = 2";
        refuses db "UPDATE t SET v = 1, a = 2, v = 3 WHERE a = 1";
        Util.check_rows db "SELECT * FROM t" [ "(1, 0)" ]);
    Util.tc "numeric keys: a probe finds what a scan finds" (fun () ->
        (* the same data keyed and indexed, and in index-free twins *)
        let mk keyed =
          let key = if keyed then " PRIMARY KEY" else "" in
          Util.db_with
            ([ Printf.sprintf "CREATE TABLE t(id INTEGER%s, f DOUBLE, v INTEGER)" key;
               Printf.sprintf "CREATE TABLE d(f DOUBLE%s, w INTEGER)" key;
               "CREATE TABLE a(i INTEGER)";
               "CREATE TABLE b(f DOUBLE, y INTEGER)";
               "INSERT INTO t VALUES (1, 2.0, 10), (2, 3.0, 20), (3, 2.5, 30), \
                (4, NULL, 40)";
               "INSERT INTO d VALUES (1.0, 1), (2.5, 2)";
               "INSERT INTO a VALUES (2), (7)";
               "INSERT INTO b VALUES (1.0, 1), (2.0, 2), (3.0, 3), (4.5, 4), \
                (5.0, 5)" ]
             @ if keyed then [ "CREATE INDEX t_f ON t(f)"; "CREATE INDEX b_f ON b(f)" ]
             else [])
        in
        let keyed = mk true and plain = mk false in
        List.iter
          (fun (sql, expected) ->
             Alcotest.(check (list string)) ("scan: " ^ sql)
               (List.sort compare expected) (Util.sorted_rows plain sql);
             Alcotest.(check (list string)) ("probe: " ^ sql)
               (List.sort compare expected) (Util.sorted_rows keyed sql))
          [ ("SELECT * FROM t WHERE id = 1.0", [ "(1, 2.0, 10)" ]);
            ("SELECT * FROM t WHERE f = 2", [ "(1, 2.0, 10)" ]);
            ("SELECT * FROM t WHERE f = 2.5", [ "(3, 2.5, 30)" ]);
            ("SELECT * FROM t WHERE f = NULL", []);
            ("SELECT * FROM d WHERE f = 1", [ "(1.0, 1)" ]);
            ("SELECT * FROM d WHERE f = 4607182418800017408", []);
            ("SELECT a.i AS i, b.y AS y FROM a JOIN b ON a.i = b.f", [ "(2, 2)" ]);
            ("SELECT i FROM a WHERE i IN (SELECT f FROM b)", [ "(2)" ]) ];
        List.iter
          (fun (sql, n) ->
             Alcotest.(check int) ("scan: " ^ sql) n (affected plain sql);
             Alcotest.(check int) ("probe: " ^ sql) n (affected keyed sql))
          [ ("UPDATE t SET v = 99 WHERE id = 1.0", 1);
            ("DELETE FROM t WHERE f = 3", 1);
            ("DELETE FROM t WHERE f = NULL", 0) ];
        Alcotest.(check (list string)) "rows after DML"
          (Util.sorted_rows plain "SELECT * FROM t")
          (Util.sorted_rows keyed "SELECT * FROM t"));
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
