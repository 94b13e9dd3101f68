(** End-to-end IVM correctness: for every supported view class and every
    combine strategy, run randomized insert/update/delete workloads and
    check after each refresh that the maintained view equals recomputation
    from scratch — the defining property f(ΔT) = ΔV of paper §2. *)

open Openivm_engine

let schema =
  [ "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER)";
    "CREATE TABLE sales(cust INTEGER, amount INTEGER)";
    "CREATE TABLE customers(cust INTEGER, region VARCHAR)";
    "CREATE TABLE rates(region VARCHAR, rate INTEGER)" ]

let random_groups_dml rng =
  match Random.State.int rng 10 with
  | 0 | 1 | 2 | 3 | 4 ->
    Printf.sprintf "INSERT INTO groups VALUES ('g%d', %d)"
      (Random.State.int rng 5)
      (Random.State.int rng 100 - 50)
  | 5 ->
    Printf.sprintf "INSERT INTO groups VALUES (NULL, %d)" (Random.State.int rng 100)
  | 6 | 7 ->
    Printf.sprintf "DELETE FROM groups WHERE group_index = 'g%d' AND group_value %% 3 = %d"
      (Random.State.int rng 5)
      (Random.State.int rng 3)
  | 8 ->
    Printf.sprintf
      "UPDATE groups SET group_value = group_value + %d WHERE group_index = 'g%d'"
      (1 + Random.State.int rng 5)
      (Random.State.int rng 5)
  | _ -> "DELETE FROM groups WHERE group_index IS NULL AND group_value % 2 = 0"

let random_three_way_dml rng =
  match Random.State.int rng 12 with
  | 0 | 1 | 2 | 3 ->
    Printf.sprintf "INSERT INTO sales VALUES (%d, %d)"
      (Random.State.int rng 4)
      (Random.State.int rng 100)
  | 4 | 5 ->
    Printf.sprintf "INSERT INTO customers VALUES (%d, 'r%d')"
      (Random.State.int rng 4)
      (Random.State.int rng 2)
  | 6 | 7 ->
    Printf.sprintf "INSERT INTO rates VALUES ('r%d', %d)"
      (Random.State.int rng 2)
      (1 + Random.State.int rng 5)
  | 8 ->
    Printf.sprintf "DELETE FROM sales WHERE cust = %d AND amount %% 3 = 0"
      (Random.State.int rng 4)
  | 9 ->
    Printf.sprintf "DELETE FROM customers WHERE cust = %d" (Random.State.int rng 4)
  | 10 ->
    Printf.sprintf "DELETE FROM rates WHERE region = 'r%d' AND rate %% 2 = 1"
      (Random.State.int rng 2)
  | _ ->
    Printf.sprintf "UPDATE rates SET rate = rate + 1 WHERE region = 'r%d'"
      (Random.State.int rng 2)

let random_star_dml rng =
  match Random.State.int rng 10 with
  | 0 | 1 | 2 | 3 ->
    Printf.sprintf "INSERT INTO sales VALUES (%d, %d)"
      (Random.State.int rng 6)
      (Random.State.int rng 500)
  | 4 | 5 ->
    Printf.sprintf "INSERT INTO customers VALUES (%d, 'r%d')"
      (Random.State.int rng 6)
      (Random.State.int rng 3)
  | 6 ->
    Printf.sprintf "DELETE FROM sales WHERE cust = %d AND amount %% 2 = 0"
      (Random.State.int rng 6)
  | 7 ->
    Printf.sprintf "UPDATE sales SET amount = amount + 7 WHERE cust = %d"
      (Random.State.int rng 6)
  | 8 ->
    Printf.sprintf "DELETE FROM customers WHERE cust = %d" (Random.State.int rng 6)
  | _ ->
    Printf.sprintf "UPDATE customers SET region = 'r%d' WHERE cust = %d"
      (Random.State.int rng 3)
      (Random.State.int rng 6)

(** Run [rounds] rounds of [batch] random statements + refresh + check. *)
let exercise ?(flags = Openivm.Flags.default) ~view_sql ~dml ~rounds ~batch ~seed
    () =
  let db = Util.db_with schema in
  let rng = Random.State.make [| seed |] in
  (* some initial data before the view exists *)
  for _ = 1 to 10 do
    Util.exec db (dml rng)
  done;
  let v = Openivm.Runner.install ~flags db view_sql in
  Util.check_view_consistent ~msg:"initial load" db v;
  for round = 1 to rounds do
    for _ = 1 to batch do
      Util.exec db (dml rng)
    done;
    Openivm.Runner.refresh v;
    Util.check_view_consistent
      ~msg:(Printf.sprintf "round %d" round)
      db v
  done

let strategies =
  [ ("linear", Openivm.Flags.Upsert_linear);
    ("regroup", Openivm.Flags.Union_regroup);
    ("outer-merge", Openivm.Flags.Outer_join_merge);
    ("rederive", Openivm.Flags.Rederive_affected);
    ("full", Openivm.Flags.Full_recompute) ]

let with_strategy strategy =
  { Openivm.Flags.default with strategy }

let per_strategy name view_sql dml =
  List.map
    (fun (sname, strategy) ->
       Util.tc
         (Printf.sprintf "%s [%s]" name sname)
         (exercise ~flags:(with_strategy strategy) ~view_sql ~dml ~rounds:8
            ~batch:6 ~seed:(Hashtbl.hash (name, sname))))
    strategies

let suite =
  per_strategy "sum/count group view"
    "CREATE MATERIALIZED VIEW v AS SELECT group_index, SUM(group_value) AS \
     total, COUNT(*) AS n FROM groups GROUP BY group_index"
    random_groups_dml
  @ per_strategy "filtered aggregate view"
      "CREATE MATERIALIZED VIEW v AS SELECT group_index, COUNT(group_value) \
       AS n FROM groups WHERE group_value > 0 GROUP BY group_index"
      random_groups_dml
  @ per_strategy "avg view"
      "CREATE MATERIALIZED VIEW v AS SELECT group_index, AVG(group_value) AS \
       mean FROM groups GROUP BY group_index"
      random_groups_dml
  @ per_strategy "min/max view"
      "CREATE MATERIALIZED VIEW v AS SELECT group_index, MIN(group_value) AS \
       lo, MAX(group_value) AS hi FROM groups GROUP BY group_index"
      random_groups_dml
  @ per_strategy "flat filter view"
      "CREATE MATERIALIZED VIEW v AS SELECT group_index, group_value FROM \
       groups WHERE group_value % 2 = 0"
      random_groups_dml
  @ per_strategy "global aggregate view"
      "CREATE MATERIALIZED VIEW v AS SELECT SUM(group_value) AS s, COUNT(*) \
       AS n FROM groups"
      random_groups_dml
  @ per_strategy "join aggregate view"
      "CREATE MATERIALIZED VIEW v AS SELECT customers.region, \
       SUM(sales.amount) AS total, COUNT(*) AS n FROM sales JOIN customers \
       ON sales.cust = customers.cust GROUP BY customers.region"
      random_star_dml
  @ per_strategy "flat join view"
      "CREATE MATERIALIZED VIEW v AS SELECT customers.region, sales.amount \
       FROM sales JOIN customers ON sales.cust = customers.cust"
      random_star_dml
  @ per_strategy "three-way join aggregate view (extension)"
      "CREATE MATERIALIZED VIEW v AS SELECT customers.region, \
       SUM(sales.amount * rates.rate) AS weighted, COUNT(*) AS n FROM sales \
       JOIN customers ON sales.cust = customers.cust JOIN rates ON \
       customers.region = rates.region GROUP BY customers.region"
      random_three_way_dml
  @ per_strategy "group-by-expression view"
      "CREATE MATERIALIZED VIEW v AS SELECT group_value % 3 AS bucket, \
       COUNT(*) AS n FROM groups GROUP BY group_value % 3"
      random_groups_dml
  @ [ Util.tc "eager refresh keeps the view current without explicit refresh"
        (fun () ->
           let db = Util.db_with schema in
           let flags = { Openivm.Flags.default with refresh = Openivm.Flags.Eager } in
           let v =
             Openivm.Runner.install ~flags db
               "CREATE MATERIALIZED VIEW v AS SELECT group_index, \
                SUM(group_value) AS s FROM groups GROUP BY group_index"
           in
           Util.exec db "INSERT INTO groups VALUES ('a', 1), ('b', 2)";
           Util.exec db "INSERT INTO groups VALUES ('a', 10)";
           (* read the table directly: eager mode already propagated *)
           Util.check_rows db "SELECT group_index, s FROM v"
             [ "(a, 11)"; "(b, 2)" ];
           Alcotest.(check int) "refreshed per statement" 2
             v.Openivm.Runner.refresh_count);
      Util.tc "lazy refresh defers until queried" (fun () ->
          let db = Util.db_with schema in
          let v =
            Openivm.Runner.install db
              "CREATE MATERIALIZED VIEW v AS SELECT COUNT(*) AS n FROM groups"
          in
          Util.exec db "INSERT INTO groups VALUES ('a', 1)";
          (* direct table read: still stale *)
          Util.check_rows db "SELECT n FROM v" [ "(0)" ];
          (* runner query triggers the refresh *)
          let r = Openivm.Runner.query v "SELECT n FROM v" in
          Alcotest.(check (list string)) "fresh" [ "(1)" ] (Util.rows_of r));
      Util.tc "two views over one base table stay independent" (fun () ->
          let db = Util.db_with schema in
          let v1 =
            Openivm.Runner.install db
              "CREATE MATERIALIZED VIEW v1 AS SELECT group_index, COUNT(*) \
               AS n FROM groups GROUP BY group_index"
          in
          let v2 =
            Openivm.Runner.install db
              "CREATE MATERIALIZED VIEW v2 AS SELECT group_index, \
               SUM(group_value) AS s FROM groups GROUP BY group_index"
          in
          Util.exec db "INSERT INTO groups VALUES ('a', 5), ('a', 7)";
          (* refresh v1 only, then mutate again, then refresh both *)
          Openivm.Runner.refresh v1;
          Util.exec db "INSERT INTO groups VALUES ('a', 1)";
          Openivm.Runner.refresh v1;
          Openivm.Runner.refresh v2;
          Util.check_view_consistent ~msg:"v1" db v1;
          Util.check_view_consistent ~msg:"v2" db v2);
      Util.tc "uninstall drops the view's objects and stops capture" (fun () ->
          let db = Util.db_with schema in
          let v =
            Openivm.Runner.install db
              "CREATE MATERIALIZED VIEW v AS SELECT COUNT(*) AS n FROM groups"
          in
          Openivm.Runner.uninstall v;
          (match Database.query db "SELECT * FROM v" with
           | exception Error.Sql_error _ -> ()
           | _ -> Alcotest.fail "view table should be dropped");
          (* further DML must not fail on missing delta tables *)
          Util.exec db "INSERT INTO groups VALUES ('a', 1)");
      Util.tc "runner exec intercepts CREATE MATERIALIZED VIEW" (fun () ->
          let db = Util.db_with schema in
          let ext = Openivm.Runner.load db in
          (match
             Util.exec_ext ext
               "CREATE MATERIALIZED VIEW v AS SELECT COUNT(*) AS n FROM groups"
           with
           | `Installed v ->
             Alcotest.(check (list string)) "registered" [ "v" ]
               (List.map Openivm.Runner.view_name
                  ext.Openivm.Runner.ext_views);
             Util.check_view_consistent db v
           | `Result _ -> Alcotest.fail "expected installation");
          Util.exec db "INSERT INTO groups VALUES ('z', 1)";
          match Util.exec_ext ext "SELECT n FROM v" with
          | `Result (Database.Rows r) ->
            Alcotest.(check (list string)) "lazy view refreshed on read"
              [ "(1)" ] (Util.rows_of r)
          | _ -> Alcotest.fail "expected rows");
      Util.tc "scripts are stored on disk when requested" (fun () ->
          let dir = Filename.temp_file "openivm" "" in
          Sys.remove dir;
          let flags = { Openivm.Flags.default with script_dir = Some dir } in
          let db = Util.db_with schema in
          ignore
            (Openivm.Runner.install ~flags db
               "CREATE MATERIALIZED VIEW v AS SELECT COUNT(*) AS n FROM groups");
          let path = Filename.concat dir "v.sql" in
          Alcotest.(check bool) "script file exists" true (Sys.file_exists path);
          let ic = open_in path in
          let len = in_channel_length ic in
          close_in ic;
          Alcotest.(check bool) "non-empty" true (len > 100));
      Util.tc "metadata tables describe the installed view" (fun () ->
          let db = Util.db_with schema in
          ignore
            (Openivm.Runner.install db
               "CREATE MATERIALIZED VIEW v AS SELECT group_index, SUM(group_value) \
                AS s FROM groups GROUP BY group_index");
          Util.check_rows db
            "SELECT view_name, query_type, strategy FROM _openivm_views"
            [ "(v, group_aggregate, upsert_linear)" ];
          Util.check_scalar db
            "SELECT COUNT(*) FROM _openivm_scripts WHERE view_name = 'v'"
            "5");
    ]
