(** Script portability: the compiler's *emitted SQL text* — not the
    in-memory statement list — must be executable by a consumer that only
    has a SQL interface, in every dialect we emit. This validates the
    paper's deployment story: the propagation scripts are stored on disk
    "to allow future inspection and usage without having to start DuckDB",
    and the PostgreSQL dialect output must round-trip through parsing.

    The simulated consumer: a fresh engine that (1) runs the setup script
    text, (2) plays delta capture by inserting multiplicity-tagged rows
    into the delta tables through plain SQL, (3) runs the propagation
    script text, and (4) compares the view table against recomputation. *)

open Openivm_engine

let groups_ddl = "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER)"

let run_script db text =
  List.iter
    (fun stmt -> ignore (Database.exec_stmt db stmt))
    (Openivm_sql.Parser.parse_script text)

(** Compile [view_sql], deploy its text onto a fresh engine, feed deltas
    through SQL, propagate through the stored text, compare. *)
let deploy_and_check ~dialect ~view_sql ~initial ~delta_inserts ~delta_deletes
    ~reference () =
  (* compile against a catalog that knows the base table *)
  let compile_db = Util.db_with [ groups_ddl ] in
  let flags = { Openivm.Flags.default with dialect } in
  let compiled =
    Openivm.Compiler.compile ~flags (Database.catalog compile_db) view_sql
  in
  (* the consumer engine sees only SQL text *)
  let consumer = Util.db_with [ groups_ddl ] in
  List.iter (fun sql -> Util.exec consumer sql) initial;
  run_script consumer (Openivm.Compiler.setup_sql compiled);
  (* play the capture triggers: tag rows with the multiplicity column *)
  let delta_table = Openivm.Compiler.delta_table compiled "groups" in
  List.iter
    (fun (k, v) ->
       Util.exec consumer
         (Printf.sprintf "INSERT INTO %s VALUES ('%s', %d, TRUE)" delta_table k v))
    delta_inserts;
  List.iter
    (fun (k, v) ->
       Util.exec consumer
         (Printf.sprintf "INSERT INTO %s VALUES ('%s', %d, FALSE)" delta_table k v);
       (* the base table change itself *)
       Util.exec consumer
         (Printf.sprintf
            "DELETE FROM groups WHERE group_index = '%s' AND group_value = %d"
            k v))
    delta_deletes;
  List.iter
    (fun (k, v) ->
       Util.exec consumer
         (Printf.sprintf "INSERT INTO groups VALUES ('%s', %d)" k v))
    delta_inserts;
  run_script consumer (Openivm.Compiler.propagation_sql compiled);
  let visible =
    String.concat ", "
      (Openivm.Shape.visible_names compiled.Openivm.Compiler.shape)
  in
  Alcotest.(check (list string))
    (Printf.sprintf "deployed view (%s) = recompute" dialect.Openivm_sql.Dialect.name)
    (Util.sorted_rows consumer reference)
    (Util.sorted_rows consumer
       (Printf.sprintf "SELECT %s FROM query_groups" visible));
  (* delta tables must be empty after step 4 *)
  Util.check_scalar consumer
    (Printf.sprintf "SELECT COUNT(*) FROM %s" delta_table) "0"

let sum_view =
  "CREATE MATERIALIZED VIEW query_groups AS SELECT group_index, \
   SUM(group_value) AS total_value, COUNT(*) AS n FROM groups GROUP BY \
   group_index"

let sum_reference =
  "SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS n FROM \
   groups GROUP BY group_index"

let initial =
  [ "INSERT INTO groups VALUES ('a', 1), ('a', 2), ('b', 5), ('c', 9)" ]

let delta_inserts = [ ("a", 10); ("d", 4); ("d", 6) ]
let delta_deletes = [ ("b", 5); ("a", 1) ]

let suite =
  [ Util.tc "stored duckdb script deploys on a fresh engine"
      (deploy_and_check ~dialect:Openivm_sql.Dialect.duckdb ~view_sql:sum_view
         ~initial ~delta_inserts ~delta_deletes ~reference:sum_reference);
    Util.tc "stored postgres script deploys after reparsing"
      (deploy_and_check ~dialect:Openivm_sql.Dialect.postgres
         ~view_sql:sum_view ~initial ~delta_inserts ~delta_deletes
         ~reference:sum_reference);
    Util.tc "stored min/max (rederive) script deploys"
      (deploy_and_check ~dialect:Openivm_sql.Dialect.duckdb
         ~view_sql:
           "CREATE MATERIALIZED VIEW query_groups AS SELECT group_index, \
            MIN(group_value) AS lo, MAX(group_value) AS hi FROM groups GROUP \
            BY group_index"
         ~initial ~delta_inserts ~delta_deletes
         ~reference:
           "SELECT group_index, MIN(group_value) AS lo, MAX(group_value) AS \
            hi FROM groups GROUP BY group_index");
    Util.tc "stored global-aggregate script deploys"
      (deploy_and_check ~dialect:Openivm_sql.Dialect.duckdb
         ~view_sql:
           "CREATE MATERIALIZED VIEW query_groups AS SELECT SUM(group_value) \
            AS s, COUNT(*) AS n, AVG(group_value) AS m FROM groups"
         ~initial ~delta_inserts ~delta_deletes
         ~reference:
           "SELECT SUM(group_value) AS s, COUNT(*) AS n, AVG(group_value) AS \
            m FROM groups");
    Util.tc "metadata scripts table replays identically" (fun () ->
        (* the runner stores the propagation steps in _openivm_scripts; a
           replay from the metadata alone must keep maintaining the view *)
        let db = Util.db_with [ groups_ddl ] in
        Util.exec db "INSERT INTO groups VALUES ('a', 1), ('b', 2)";
        let v = Openivm.Runner.install db sum_view in
        Util.exec db "INSERT INTO groups VALUES ('a', 5)";
        (* read the stored steps instead of calling the runner *)
        let stored =
          Database.query db
            "SELECT sql FROM _openivm_scripts WHERE view_name = \
             'query_groups' ORDER BY step"
        in
        List.iter
          (fun (row : Row.t) ->
             match row.(0) with
             | Value.Str sql -> Util.exec db sql
             | _ -> Alcotest.fail "bad script row")
          stored.Database.rows;
        Util.check_view_consistent db v);
  ]
