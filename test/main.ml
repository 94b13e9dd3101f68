let () =
  Alcotest.run "openivm"
    [ ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("pretty", Test_pretty.suite);
      ("value", Test_value.suite);
      ("vec", Test_vec.suite);
      ("schema", Test_schema.suite);
      ("art", Test_art.suite);
      ("expr", Test_expr.suite);
      ("exec", Test_exec.suite);
      ("sql-conformance", Test_sql_conformance.suite);
      ("random-queries", Test_random_queries.suite);
      ("optimizer", Test_optimizer.suite);
      ("dml", Test_dml.suite);
      ("diagnostics", Test_diagnostics.suite);
      ("shape", Test_shape.suite);
      ("compiler", Test_compiler.suite);
      ("propagate", Test_propagate.suite);
      ("advisor", Test_advisor.suite);
      ("golden-sql", Test_golden_sql.suite);
      ("runner", Test_runner.suite);
      ("cascade", Test_cascade.suite);
      ("random-views", Test_random_views.suite);
      ("fuzz", Test_fuzz.suite);
      ("htap", Test_htap.suite);
      ("portability", Test_portability.suite);
      ("csv", Test_csv.suite);
      ("snapshot", Test_snapshot.suite);
      ("rollback", Test_rollback.suite);
      ("tpch", Test_tpch.suite);
      ("obs", Test_obs.suite);
      ("store", Test_store.suite);
      ("server", Test_server.suite);
    ]
