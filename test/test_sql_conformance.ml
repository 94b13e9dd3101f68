(** A semantics matrix of small SQL cases — each one a distinct behaviour
    of the engine (NULL handling, coercions, aggregate edge cases, scoping)
    that the IVM scripts rely on. One table, many probes. *)

open Openivm_engine

let db () =
  Util.db_with
    [ "CREATE TABLE n(a INTEGER, b INTEGER)";
      "INSERT INTO n VALUES (1, 10), (2, NULL), (NULL, 30), (NULL, NULL), (2, 20)" ]

let scalar sql expected () = Util.check_scalar (db ()) sql expected

let rows sql expected () = Util.check_rows (db ()) sql expected

let suite =
  [ (* aggregates over NULLs *)
    Util.tc "count star counts null rows" (scalar "SELECT COUNT(*) FROM n" "5");
    Util.tc "count column skips nulls" (scalar "SELECT COUNT(a) FROM n" "3");
    Util.tc "sum skips nulls" (scalar "SELECT SUM(b) FROM n" "60");
    Util.tc "sum of all-null slice is null"
      (scalar "SELECT SUM(b) FROM n WHERE a = 2 AND b IS NULL" "NULL");
    Util.tc "avg ignores nulls"
      (scalar "SELECT AVG(b) FROM n" "20.0");
    Util.tc "min/max ignore nulls"
      (scalar "SELECT MIN(b) FROM n" "10");
    Util.tc "aggregates of empty input"
      (rows "SELECT COUNT(*), COUNT(a), SUM(a), MIN(a), AVG(a) FROM n WHERE a > 99"
         [ "(0, 0, NULL, NULL, NULL)" ]);
    (* grouping semantics *)
    Util.tc "group by treats nulls as one group"
      (rows "SELECT a, COUNT(*) FROM n GROUP BY a"
         [ "(1, 1)"; "(2, 2)"; "(NULL, 2)" ]);
    Util.tc "group by expression groups computed values"
      (rows "SELECT a + 0, COUNT(*) FROM n GROUP BY a + 0"
         [ "(1, 1)"; "(2, 2)"; "(NULL, 2)" ]);
    Util.tc "having on count"
      (rows "SELECT a FROM n GROUP BY a HAVING COUNT(*) = 2"
         [ "(2)"; "(NULL)" ]);
    Util.tc "having may use a different aggregate than the projection"
      (rows "SELECT a, COUNT(*) FROM n GROUP BY a HAVING SUM(b) > 25"
         [ "(NULL, 2)" ]);
    (* where/filter semantics *)
    Util.tc "where null is excluded" (scalar "SELECT COUNT(*) FROM n WHERE b > 0" "3");
    Util.tc "where not(null) is excluded too"
      (scalar "SELECT COUNT(*) FROM n WHERE NOT (b > 0)" "0");
    Util.tc "is distinct via is null arithmetic"
      (scalar "SELECT COUNT(*) FROM n WHERE a IS NULL AND b IS NULL" "1");
    (* expression corners *)
    Util.tc "integer division by larger int" (scalar "SELECT 1 / 4" "0.25");
    Util.tc "string comparison in where"
      (fun () ->
         let d = Util.db_with
             [ "CREATE TABLE s(x VARCHAR)";
               "INSERT INTO s VALUES ('apple'), ('banana'), ('APPLE')" ] in
         Util.check_scalar d "SELECT COUNT(*) FROM s WHERE x > 'a'" "2");
    Util.tc "case inside aggregate (the IVM sign trick)"
      (scalar
         "SELECT SUM(CASE WHEN b > 15 THEN b ELSE -b END) FROM n WHERE b IS \
          NOT NULL"
         "40");
    Util.tc "coalesce inside addition (the IVM combine trick)"
      (scalar "SELECT COALESCE(NULL, 0) + COALESCE(5, 0)" "5");
    Util.tc "nested case"
      (scalar
         "SELECT CASE WHEN 1 = 2 THEN 'x' ELSE CASE WHEN TRUE THEN 'y' END \
          END"
         "y");
    (* scoping *)
    Util.tc "alias shadows table name"
      (fun () ->
         let d = db () in
         Util.check_scalar d "SELECT COUNT(*) FROM n AS m WHERE m.a = 2" "2");
    Util.tc "self-join scopes stay separate"
      (fun () ->
         let d = db () in
         Util.check_scalar d
           "SELECT COUNT(*) FROM n AS x JOIN n AS y ON x.a = y.b" "0");
    Util.tc "projection alias usable in order by"
      (fun () ->
         let d = db () in
         let r =
           Database.query d
             "SELECT b AS bee FROM n WHERE b IS NOT NULL ORDER BY bee DESC"
         in
         Alcotest.(check (list string)) "order" [ "(30)"; "(20)"; "(10)" ]
           (Util.rows_of r));
    (* insert semantics *)
    Util.tc "insert select respects expression types"
      (fun () ->
         let d = db () in
         Util.exec d "CREATE TABLE out(x DOUBLE)";
         Util.exec d "INSERT INTO out SELECT a / 2 FROM n WHERE a = 1";
         Util.check_rows d "SELECT * FROM out" [ "(0.5)" ]);
    Util.tc "update to null allowed without not-null"
      (fun () ->
         let d = db () in
         Util.exec d "UPDATE n SET b = NULL WHERE a = 1";
         Util.check_scalar d "SELECT COUNT(b) FROM n" "2");
    Util.tc "update to null refused on a NOT NULL column"
      (fun () ->
         let d =
           Util.db_with
             [ "CREATE TABLE w(a INTEGER, b VARCHAR NOT NULL)";
               "INSERT INTO w VALUES (1, 'x'), (2, 'y')";
               "CREATE TABLE t(a INTEGER PRIMARY KEY, b INTEGER)";
               "INSERT INTO t VALUES (1, 10)";
               "CREATE TABLE u(k INTEGER PRIMARY KEY, b VARCHAR NOT NULL)";
               "INSERT INTO u VALUES (1, 'x'), (2, 'y')" ]
         in
         let refused sql =
           match Database.exec d sql with
           | exception Error.Sql_error _ -> ()
           | _ -> Alcotest.failf "%s: expected a NOT NULL error" sql
         in
         refused "UPDATE w SET b = NULL";
         Util.check_scalar d "SELECT COUNT(b) FROM w" "2";
         refused "INSERT INTO t VALUES (NULL, 20)";
         refused "UPDATE t SET a = NULL";
         Util.check_rows d "SELECT a, b FROM t" [ "(1, 10)" ];
         (* a WHERE on the key takes the index path: the refused row
            must still be there afterwards *)
         refused "UPDATE t SET a = NULL WHERE a = 1";
         Util.check_rows d "SELECT a, b FROM t" [ "(1, 10)" ];
         refused "UPDATE u SET b = NULL WHERE k = 1";
         Util.check_rows d "SELECT k, b FROM u ORDER BY k" [ "(1, x)"; "(2, y)" ]);
    (* limits and offsets *)
    Util.tc "limit zero yields nothing" (scalar "SELECT COUNT(*) FROM (SELECT a FROM n LIMIT 0) AS q" "0");
    Util.tc "offset beyond end yields nothing"
      (scalar "SELECT COUNT(*) FROM (SELECT a FROM n LIMIT 10 OFFSET 10) AS q" "0");
    (* set ops *)
    Util.tc "union all arity mismatch rejected"
      (fun () ->
         let d = db () in
         match Database.query d "SELECT a FROM n UNION ALL SELECT a, b FROM n" with
         | exception Error.Sql_error _ -> ()
         | _ -> Alcotest.fail "expected arity error");
    Util.tc "intersect of disjoint is empty"
      (scalar
         "SELECT COUNT(*) FROM (SELECT a FROM n WHERE a = 1 INTERSECT SELECT \
          a FROM n WHERE a = 2) AS q"
         "0");
    (* subqueries *)
    Util.tc "in-subquery over expression column"
      (scalar "SELECT COUNT(*) FROM n WHERE b IN (SELECT a * 10 FROM n WHERE a IS NOT NULL)" "2");
    Util.tc "from-subquery aggregates compose"
      (scalar
         "SELECT MAX(s) FROM (SELECT a, SUM(b) AS s FROM n GROUP BY a) AS q"
         "30");
  ]
