(** Cascading IVM: views-on-views. The dependency DAG (install wiring,
    topological refresh pull, eager push-down), the Z-set delta
    consolidation pass, the IVM2xx guard diagnostics (cycle, dependents,
    direct DML), the visible-column schema restriction for view sources,
    and the cascade.* span taxonomy / injected-clock bookkeeping. *)

module Flags = Openivm.Flags
module Runner = Openivm.Runner
module Compiler = Openivm.Compiler
module Clock = Openivm_obs.Clock
module Span = Openivm_obs.Span
module Metrics = Openivm_obs.Metrics
module Report = Openivm_obs.Report
open Openivm_engine

let sales_db () =
  Util.db_with
    [ "CREATE TABLE sales(region VARCHAR, amount INTEGER)";
      "INSERT INTO sales VALUES ('north', 10), ('north', 5), ('south', 7), \
       ('west', 3)" ]

let v1_sql =
  "CREATE MATERIALIZED VIEW region_totals AS SELECT region, SUM(amount) AS \
   total, COUNT(*) AS n FROM sales GROUP BY region"

(* level 2 groups level 1 by group size: a genuine view-on-view *)
let v2_sql =
  "CREATE MATERIALIZED VIEW by_size AS SELECT n, SUM(total) AS sum_total, \
   COUNT(*) AS regions FROM region_totals GROUP BY n"

(* level 3: a global aggregate over level 2 *)
let v3_sql =
  "CREATE MATERIALIZED VIEW grand AS SELECT SUM(sum_total) AS g, \
   SUM(regions) AS r FROM by_size"

let workload =
  [ "INSERT INTO sales VALUES ('north', 2), ('east', 9)";
    "UPDATE sales SET amount = amount + 1 WHERE region = 'south'";
    "DELETE FROM sales WHERE region = 'west'";
    "INSERT INTO sales VALUES ('south', 7), ('south', 7)";
    "DELETE FROM sales WHERE amount > 9";
    "UPDATE sales SET region = 'north' WHERE region = 'east'" ]

let install_stack ?(flags = Flags.default) db sqls =
  let rec go registry = function
    | [] -> List.rev registry
    | sql :: rest ->
      go (Runner.install ~flags ~registry db sql :: registry) rest
  in
  go [] sqls

let check_stack ~msg views =
  List.iter
    (fun v ->
       Alcotest.(check (list string))
         (Printf.sprintf "%s: %s = recompute" msg (Runner.view_name v))
         (Runner.recompute_rows v) (Runner.visible_rows v))
    views

(* --- correctness across the strategy matrix --- *)

let test_two_level_all_strategies () =
  List.iter
    (fun strategy ->
       let db = sales_db () in
       let flags = { Flags.default with Flags.strategy } in
       let views = install_stack ~flags db [ v1_sql; v2_sql ] in
       let label = Flags.strategy_to_string strategy in
       check_stack ~msg:(label ^ " initial") views;
       List.iter
         (fun stmt ->
            Util.exec db stmt;
            check_stack ~msg:(label ^ " after " ^ stmt) views)
         workload)
    Flags.all_strategies

let test_three_level_all_strategies () =
  List.iter
    (fun strategy ->
       let db = sales_db () in
       let flags = { Flags.default with Flags.strategy } in
       let views = install_stack ~flags db [ v1_sql; v2_sql; v3_sql ] in
       let label = Flags.strategy_to_string strategy in
       check_stack ~msg:(label ^ " initial") views;
       List.iter
         (fun stmt ->
            Util.exec db stmt;
            check_stack ~msg:(label ^ " after " ^ stmt) views)
         workload)
    Flags.all_strategies

let test_eager_pushes_without_pull () =
  let db = sales_db () in
  let flags = { Flags.default with Flags.refresh = Flags.Eager } in
  let views = install_stack ~flags db [ v1_sql; v2_sql; v3_sql ] in
  Util.exec db "INSERT INTO sales VALUES ('east', 4), ('north', 1)";
  Util.exec db "DELETE FROM sales WHERE region = 'west'";
  (* every level propagated inside the DML statements themselves: the
     backing tables are current before any view is queried *)
  List.iter
    (fun v ->
       Alcotest.(check int)
         (Runner.view_name v ^ " has no pending deltas")
         0 (Runner.pending_deltas v))
    views;
  let v3 = List.nth views 2 in
  Alcotest.(check (list string)) "level-3 backing table is already current"
    (Runner.recompute_rows v3)
    (List.sort String.compare
       (Util.sorted_rows db "SELECT g, r FROM grand"))

(* A view reading BOTH a base table and a view derived from that base:
   one statement must not double-count through the two delta paths
   (the deferred-refresh machinery folds both deltas in one refresh). *)
let test_eager_mixed_base_and_view_source () =
  let db = sales_db () in
  let flags = { Flags.default with Flags.refresh = Flags.Eager } in
  let v1 = Runner.install ~flags db v1_sql in
  let v2 =
    Runner.install ~flags ~registry:[ v1 ] db
      "CREATE MATERIALIZED VIEW detail AS SELECT rt.region, SUM(s.amount) \
       AS a, SUM(rt.total) AS t FROM sales s JOIN region_totals rt ON \
       s.region = rt.region GROUP BY rt.region"
  in
  check_stack ~msg:"initial" [ v1; v2 ];
  List.iter
    (fun stmt ->
       Util.exec db stmt;
       check_stack ~msg:("after " ^ stmt) [ v1; v2 ])
    workload

let test_lazy_pull_refreshes_upstreams () =
  let db = sales_db () in
  let views = install_stack db [ v1_sql; v2_sql; v3_sql ] in
  let v3 = List.nth views 2 in
  Util.exec db "INSERT INTO sales VALUES ('east', 8)";
  (* querying only the top of the stack pulls the whole chain *)
  Alcotest.(check (list string)) "top-level query pulls the chain"
    (Runner.recompute_rows v3) (Runner.visible_rows v3);
  List.iter
    (fun v ->
       Alcotest.(check int)
         (Runner.view_name v ^ " drained by the pull")
         0 (Runner.pending_deltas v))
    views

(* --- guard diagnostics --- *)

let test_cycle_rejected () =
  let db = Util.db_with [ "CREATE TABLE w(x INTEGER)" ] in
  (* fabricate a registry entry claiming w depends on the view we are
     about to define over w — installing it must close no cycle *)
  Catalog.register_mat_view (Database.catalog db)
    { Catalog.mat_name = "w"; mat_visible = [ "x" ]; mat_flat = true;
      mat_depends_on = [ "v" ] };
  (match
     Runner.install db
       "CREATE MATERIALIZED VIEW v AS SELECT x, COUNT(*) AS c FROM w GROUP \
        BY x"
   with
   | exception Compiler.Unsupported_view msg ->
     Alcotest.(check bool) "IVM201 carries the code" true
       (String.length msg >= 6 && String.sub msg 0 6 = "IVM201")
   | _ -> Alcotest.fail "cycle was not rejected")

let test_uninstall_guard () =
  let db = sales_db () in
  let views = install_stack db [ v1_sql; v2_sql ] in
  let v1 = List.nth views 0 and v2 = List.nth views 1 in
  (match Runner.uninstall v1 with
   | exception Error.Sql_error msg ->
     Alcotest.(check bool) "IVM202 carries the code" true
       (String.length msg >= 6 && String.sub msg 0 6 = "IVM202")
   | () -> Alcotest.fail "uninstall with dependents was not rejected");
  (* the refused uninstall left the stack fully operational *)
  Util.exec db "INSERT INTO sales VALUES ('east', 2)";
  check_stack ~msg:"after refused uninstall" [ v1; v2 ];
  Runner.uninstall v2;
  Runner.uninstall v1;
  Alcotest.(check bool) "registry empty after ordered drop" true
    (Catalog.mat_view_names (Database.catalog db) = [])

let test_dml_interception () =
  let db = sales_db () in
  let ext = Runner.load db in
  ignore (Util.exec_ext ext v1_sql);
  ignore (Util.exec_ext ext v2_sql);
  let expect_ivm203 sql =
    match Util.exec_ext ext sql with
    | exception Error.Sql_error msg ->
      Alcotest.(check bool) ("IVM203 for " ^ sql) true
        (String.length msg >= 6 && String.sub msg 0 6 = "IVM203")
    | _ -> Alcotest.fail ("direct DML was not intercepted: " ^ sql)
  in
  expect_ivm203 "INSERT INTO region_totals VALUES ('x', 1, 1)";
  expect_ivm203 "UPDATE region_totals SET total = 0";
  expect_ivm203 "DELETE FROM by_size";
  expect_ivm203 "TRUNCATE TABLE region_totals";
  (* DROP of a view with dependents, or of a base table a view reads,
     refuses; in DAG order it works *)
  let expect_ivm202 sql =
    match Util.exec_ext ext sql with
    | exception Error.Sql_error msg ->
      Alcotest.(check bool) ("IVM202 for " ^ sql) true
        (String.length msg >= 6 && String.sub msg 0 6 = "IVM202")
    | _ -> Alcotest.fail ("drop with dependents was not rejected: " ^ sql)
  in
  expect_ivm202 "DROP TABLE region_totals";
  expect_ivm202 "DROP TABLE sales";
  ignore (Util.exec_ext ext "DROP TABLE by_size");
  expect_ivm202 "DROP TABLE sales";
  ignore (Util.exec_ext ext "DROP TABLE region_totals");
  Alcotest.(check int) "extension registry drained" 0
    (List.length ext.Runner.ext_views);
  ignore (Util.exec_ext ext "DROP TABLE sales");
  Alcotest.(check bool) "base table dropped once no view reads it" true
    (Catalog.find_table_opt (Database.catalog db) "sales" = None)

(* --- the consolidation pass --- *)

let consolidated_total () =
  Metrics.counter_value (Metrics.counter "openivm_consolidated_rows_total")

let test_consolidation_cancels_churn () =
  let db = sales_db () in
  let v = Runner.install db v1_sql in
  let before = consolidated_total () in
  (* +200 / -200: pure churn, zero net delta *)
  for i = 0 to 199 do
    Util.exec db
      (Printf.sprintf "INSERT INTO sales VALUES ('churn', %d)" (i + 1000))
  done;
  Util.exec db "DELETE FROM sales WHERE amount >= 1000";
  Alcotest.(check int) "churn captured raw" 400 (Runner.pending_deltas v);
  Runner.refresh v;
  Alcotest.(check int) "all 400 rows cancelled" 400
    (consolidated_total () - before);
  Util.check_view_consistent db v

let test_consolidation_off_flag () =
  let db = sales_db () in
  let flags = { Flags.default with Flags.consolidate_deltas = false } in
  let v = Runner.install ~flags db v1_sql in
  let before = consolidated_total () in
  Util.exec db "INSERT INTO sales VALUES ('churn', 1), ('churn', 2)";
  Util.exec db "DELETE FROM sales WHERE region = 'churn'";
  Runner.refresh v;
  Alcotest.(check int) "pass disabled: nothing consolidated" 0
    (consolidated_total () - before);
  Util.check_view_consistent db v

let test_consolidation_nets_partial () =
  let db = sales_db () in
  let v = Runner.install db v1_sql in
  (* -('north',10) +('north',10) cancels; +('east',1) survives *)
  Util.exec db "DELETE FROM sales WHERE region = 'north' AND amount = 10";
  Util.exec db "INSERT INTO sales VALUES ('north', 10)";
  Util.exec db "INSERT INTO sales VALUES ('east', 1)";
  Alcotest.(check int) "raw capture" 3 (Runner.pending_deltas v);
  Runner.force_refresh v;
  Util.check_view_consistent db v

(* --- schema restriction for view sources --- *)

let test_flat_upstream_weighted_semantics () =
  let db = sales_db () in
  let v1 =
    Runner.install db
      "CREATE MATERIALIZED VIEW regions AS SELECT region FROM sales"
  in
  let v2 =
    Runner.install ~registry:[ v1 ] db
      "CREATE MATERIALIZED VIEW region_count AS SELECT region, COUNT(*) AS \
       c FROM regions GROUP BY region"
  in
  (* a flat view materializes in weighted form: one backing row per
     distinct tuple. The downstream view is defined over that backing
     table, so duplicates upstream do not multiply downstream. *)
  Util.exec db "INSERT INTO sales VALUES ('north', 99), ('north', 98)";
  check_stack ~msg:"after duplicate inserts" [ v1; v2 ];
  Util.check_rows db ~msg:"one backing row per distinct region"
    "SELECT c FROM region_count WHERE region = 'north'" [ "(1)" ];
  Util.exec db "DELETE FROM sales WHERE region = 'south'";
  check_stack ~msg:"after delete" [ v1; v2 ]

let test_star_over_view_sees_visible_prefix () =
  let db = sales_db () in
  let v1 = Runner.install db v1_sql in
  (* SELECT * over an aggregate view's backing table must expand to the
     visible columns only, not the hidden __ivm_* state *)
  let v2 =
    Runner.install ~registry:[ v1 ] db
      "CREATE MATERIALIZED VIEW copy AS SELECT * FROM region_totals"
  in
  Alcotest.(check (list string)) "visible prefix only"
    [ "region"; "total"; "n" ]
    (Openivm.Shape.visible_names v2.Runner.compiled.Compiler.shape);
  Util.exec db "INSERT INTO sales VALUES ('east', 6)";
  check_stack ~msg:"after insert" [ v1; v2 ]

let test_metadata_depends_on () =
  let db = sales_db () in
  let _views = install_stack db [ v1_sql; v2_sql ] in
  Util.check_rows db ~msg:"DAG edges recorded in metadata"
    "SELECT view_name, depends_on FROM _openivm_views"
    [ "(region_totals, sales)"; "(by_size, region_totals)" ]

(* --- observability: spans, dag levels, injected clock --- *)

let test_cascade_spans_and_levels () =
  Report.reset_all ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
        Span.set_enabled false;
        Clock.use_defaults ();
        Report.reset_all ())
    (fun () ->
       let db = sales_db () in
       let flags = { Flags.default with Flags.refresh = Flags.Eager } in
       let views = install_stack ~flags db [ v1_sql; v2_sql; v3_sql ] in
       Alcotest.(check (list int)) "dag levels" [ 0; 1; 2 ]
         (List.map Runner.dag_level views);
       Span.reset ();
       Util.exec db "INSERT INTO sales VALUES ('north', 1), ('north', 2)";
       let refreshes =
         List.filter (fun (s : Span.t) -> s.Span.name = "refresh")
           (Span.spans ())
       in
       Alcotest.(check (list string)) "one refresh per DAG level"
         [ "Int 0"; "Int 1"; "Int 2" ]
         (List.map
            (fun (s : Span.t) ->
               match List.assoc_opt "dag_level" s.Span.attrs with
               | Some (Span.Int n) -> Printf.sprintf "Int %d" n
               | _ -> "missing")
            refreshes);
       Alcotest.(check bool) "downstream pass has its own span" true
         (Span.find "cascade.downstream" <> None);
       (* two updates to one group consolidate at the next level *)
       Alcotest.(check bool) "consolidation pass has its own span" true
         (Span.find "cascade.consolidate" <> None))

let test_refresh_time_uses_injected_clock () =
  Clock.set_now (Clock.ticker ~start:100.0 ~step:0.25 ());
  Fun.protect
    ~finally:(fun () -> Clock.use_defaults ())
    (fun () ->
       let db = sales_db () in
       let v = Runner.install db v1_sql in
       Util.exec db "INSERT INTO sales VALUES ('east', 1)";
       Runner.refresh v;
       Runner.force_refresh v;
       (* spans are disabled: each refresh reads the clock exactly twice
          (start and end), so two refreshes advance 2 * 0.25s *)
       Alcotest.(check int) "refresh_count" 2 v.Runner.refresh_count;
       Alcotest.(check (float 1e-9)) "refresh_time is deterministic" 0.5
         v.Runner.refresh_time)

let suite =
  [ Util.tc "2-level cascade tracks recompute across all strategies"
      test_two_level_all_strategies;
    Util.tc "3-level stack tracks recompute across all strategies"
      test_three_level_all_strategies;
    Util.tc "eager cascade propagates without a pull"
      test_eager_pushes_without_pull;
    Util.tc "one statement, two delta paths: no double count"
      test_eager_mixed_base_and_view_source;
    Util.tc "lazy query on the top view pulls the whole chain"
      test_lazy_pull_refreshes_upstreams;
    Util.tc "dependency cycles are rejected (IVM201)" test_cycle_rejected;
    Util.tc "uninstall with dependents is rejected (IVM202)"
      test_uninstall_guard;
    Util.tc "direct DML on a maintained view is intercepted (IVM203)"
      test_dml_interception;
    Util.tc "consolidation cancels +/- churn before propagation"
      test_consolidation_cancels_churn;
    Util.tc "consolidate_deltas = false disables the pass"
      test_consolidation_off_flag;
    Util.tc "consolidation keeps net rows" test_consolidation_nets_partial;
    Util.tc "flat upstream: weighted backing rows feed downstream"
      test_flat_upstream_weighted_semantics;
    Util.tc "SELECT * over a view sees the visible prefix only"
      test_star_over_view_sees_visible_prefix;
    Util.tc "metadata records the DAG edges" test_metadata_depends_on;
    Util.tc "cascade.* spans and dag_level attribution"
      test_cascade_spans_and_levels;
    Util.tc "refresh_time flows through the injected clock"
      test_refresh_time_uses_injected_clock ]
