(** Tests for the [Openivm_fuzz] subsystem itself: generator determinism
    and validity, corpus-format round-trip, the greedy shrinker, the
    reproducer command format — plus an engine regression for the planner
    bug the fuzzer's first long campaign caught. *)

module F = Openivm_fuzz

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- generator --- *)

let test_deterministic () =
  let render seed = F.Case.to_string (F.Gen.case ~seed ()) in
  Alcotest.(check string) "same seed, same case" (render 7) (render 7);
  Alcotest.(check bool) "different seeds diverge" true (render 7 <> render 8)

let test_generated_cases_pass () =
  for seed = 300 to 307 do
    let case = F.Gen.case ~seed ~max_steps:6 ~queries:2 () in
    match (F.Oracle.run case).F.Oracle.failure with
    | Some f -> Alcotest.fail f.F.Oracle.message
    | None -> ()
  done

(* --- corpus format --- *)

let test_case_roundtrip () =
  let case =
    { (F.Gen.case ~seed:11 ()) with
      F.Case.note = "round-trip probe";
      strategies = [ Openivm.Flags.Union_regroup ];
      dialects = [ Openivm_sql.Dialect.postgres ] }
  in
  match F.Case.of_string (F.Case.to_string case) with
  | Error e -> Alcotest.fail e
  | Ok back ->
    Alcotest.(check string) "to_string . of_string = id"
      (F.Case.to_string case) (F.Case.to_string back)

let test_of_string_rejects () =
  let bad text =
    match F.Case.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted invalid corpus text: %s" text
  in
  bad "-- openivm-fuzz reproducer v1\n-- schema:\n";
  bad "SELECT 1\n";
  bad "-- schema:\nCREATE TABLE t(a INTEGER)\n-- seed: x\n-- queries:\nSELECT a FROM t\n";
  (* a multi-statement view section is a cascade stack, not an error;
     the retired [-- domains:] header of older reproducers is a comment *)
  match
    F.Case.of_string
      "-- domains: 2\n-- schema:\nCREATE TABLE t(a INTEGER)\n-- view:\nCREATE \
       MATERIALIZED VIEW v AS SELECT a FROM t\nCREATE MATERIALIZED VIEW w AS \
       SELECT a FROM v\n"
  with
  | Error e -> Alcotest.failf "cascade view section rejected: %s" e
  | Ok c ->
    Alcotest.(check int) "two views parsed" 2 (List.length c.F.Case.views)

(* --- the reproducer command --- *)

let test_command_format () =
  let case = { F.Case.empty with F.Case.seed = 99; max_steps = 20 } in
  Alcotest.(check string) "bare"
    "openivm fuzz --seed 99 --cases 1 --max-steps 20" (F.Case.command case);
  Alcotest.(check string) "pinned config"
    "openivm fuzz --seed 99 --cases 1 --max-steps 20 --strategy \
     rederive_affected --dialect postgres"
    (F.Case.command ~strategy:Openivm.Flags.Rederive_affected
       ~dialect:Openivm_sql.Dialect.postgres case)

let test_failure_embeds_command () =
  (* break a generated case by pointing its view at a missing table; the
     oracle failure message must carry the exact reproducer invocation *)
  let case =
    { (F.Gen.case ~seed:5 ~max_steps:3 ~queries:0 ()) with
      F.Case.views =
        [ "CREATE MATERIALIZED VIEW v AS SELECT missing_col AS a FROM \
           no_such_table" ] }
  in
  match F.Oracle.first_failure case with
  | None -> Alcotest.fail "expected the broken case to fail"
  | Some msg ->
    Alcotest.(check bool) "message embeds the reproducer command" true
      (contains ~sub:("reproduce: " ^ F.Case.command case) msg)

(* --- the shrinker --- *)

(** An injected oracle: "fails" iff the workload still contains both
    sentinel statements. 50 steps must come down to just those two —
    well under the ≤5 the acceptance bar asks for — and deterministically
    so. *)
let test_shrink_50_steps () =
  let workload =
    List.init 50 (fun i -> Printf.sprintf "INSERT INTO fact VALUES (%d)" i)
  in
  let case =
    { F.Case.empty with
      F.Case.seed = 1; max_steps = 50;
      schema = [ "CREATE TABLE fact(v INTEGER)" ];
      workload }
  in
  let oracle c =
    let has sub = List.exists (contains ~sub) c.F.Case.workload in
    if has "VALUES (13)" && has "VALUES (37)" then Some "injected failure"
    else None
  in
  let minimized, stats = F.Shrink.minimize ~oracle case in
  Alcotest.(check bool) "shrunk to <= 5 steps" true
    (List.length minimized.F.Case.workload <= 5);
  Alcotest.(check (option string)) "still fails" (Some "injected failure")
    (oracle minimized);
  Alcotest.(check bool) "did some work" true (stats.F.Shrink.attempts > 0);
  let again, _ = F.Shrink.minimize ~oracle case in
  Alcotest.(check string) "deterministic"
    (F.Case.to_string minimized) (F.Case.to_string again)

let test_shrink_keeps_passing_case () =
  let case = F.Gen.case ~seed:3 ~max_steps:4 () in
  let minimized, stats = F.Shrink.minimize ~oracle:(fun _ -> None) case in
  Alcotest.(check string) "non-failing case untouched"
    (F.Case.to_string case) (F.Case.to_string minimized);
  Alcotest.(check int) "nothing kept" 0 stats.F.Shrink.kept

let test_shrink_view () =
  (* the view pass drops the WHERE clause and surplus projections as long
     as the oracle keeps failing *)
  let case =
    { F.Case.empty with
      F.Case.schema = [ "CREATE TABLE t(a INTEGER, b INTEGER)" ];
      views =
        [ "CREATE MATERIALIZED VIEW v AS SELECT a AS g1, SUM(b) AS s, \
           COUNT(*) AS n FROM t WHERE a > 3 GROUP BY a" ] }
  in
  let oracle c =
    match c.F.Case.views with
    | [ v ] when contains ~sub:"SUM" v -> Some "injected"
    | _ -> None
  in
  let minimized, _ = F.Shrink.minimize ~oracle case in
  let v = List.hd minimized.F.Case.views in
  Alcotest.(check bool) "WHERE dropped" false (contains ~sub:"WHERE" v);
  Alcotest.(check bool) "COUNT dropped" false (contains ~sub:"COUNT" v);
  Alcotest.(check bool) "SUM kept" true (contains ~sub:"SUM" v)

let test_shrink_cascade_drops_last_view () =
  (* a failure that only needs the first view: the shrinker must discard
     the downstream view whole while leaving the upstream untouched *)
  let case =
    { F.Case.empty with
      F.Case.schema = [ "CREATE TABLE t(a INTEGER, b INTEGER)" ];
      views =
        [ "CREATE MATERIALIZED VIEW v AS SELECT a AS g1, SUM(b) AS a1 \
           FROM t GROUP BY a";
          "CREATE MATERIALIZED VIEW v2 AS SELECT g1 AS h1, MAX(a1) AS b1 \
           FROM v GROUP BY g1" ] }
  in
  let oracle c =
    match c.F.Case.views with
    | v :: _ when contains ~sub:"SUM" v -> Some "injected"
    | _ -> None
  in
  let minimized, _ = F.Shrink.minimize ~oracle case in
  Alcotest.(check int) "downstream view dropped" 1
    (List.length minimized.F.Case.views);
  Alcotest.(check bool) "upstream survives" true
    (contains ~sub:"SUM" (List.hd minimized.F.Case.views))

let test_generated_cascades_pass () =
  (* forced 2-level stacks across a seed range: every level must match a
     full recompute under the whole strategy/dialect matrix *)
  for seed = 400 to 405 do
    let case = F.Gen.case ~seed ~max_steps:6 ~queries:0 ~cascade:true () in
    Alcotest.(check int)
      (Printf.sprintf "seed %d generates a stack" seed)
      2
      (List.length case.F.Case.views);
    match (F.Oracle.run case).F.Oracle.failure with
    | Some f -> Alcotest.fail f.F.Oracle.message
    | None -> ()
  done

(* --- regression: the bug the first 2000-case campaign caught --- *)

let test_shared_bare_name_group_keys () =
  let db =
    Util.db_with
      [ "CREATE TABLE fact(k2 INTEGER, k3 INTEGER, v INTEGER)";
        "CREATE TABLE d2(k2 INTEGER, label VARCHAR)";
        "CREATE TABLE d3(k3 INTEGER, label VARCHAR)" ]
  in
  Util.exec db "INSERT INTO d2 VALUES (0, 'a'), (1, 'b')";
  Util.exec db "INSERT INTO d3 VALUES (0, 'x'), (1, 'y')";
  Util.exec db "INSERT INTO fact VALUES (0, 0, 5), (0, 1, 7), (1, 0, 2)";
  (* grouping by two qualified keys that share a bare column name used to
     raise "ambiguous column reference" at plan time *)
  let rows =
    Util.sorted_rows db
      "SELECT d2.label AS g1, d3.label AS g2, SUM(fact.v) AS s FROM fact \
       JOIN d2 ON fact.k2 = d2.k2 JOIN d3 ON fact.k3 = d3.k3 GROUP BY \
       d2.label, d3.label"
  in
  Alcotest.(check (list string)) "qualified group keys resolve"
    [ "(a, x, 5)"; "(a, y, 7)"; "(b, x, 2)" ]
    rows

let suite =
  [ Util.tc "generator is deterministic per seed" test_deterministic;
    Util.tc "generated cases pass the oracle" test_generated_cases_pass;
    Util.tc "corpus format round-trips" test_case_roundtrip;
    Util.tc "corpus parser rejects invalid input" test_of_string_rejects;
    Util.tc "reproducer command format" test_command_format;
    Util.tc "oracle failures embed the reproducer" test_failure_embeds_command;
    Util.tc "shrinker: 50 steps -> <= 5, deterministic" test_shrink_50_steps;
    Util.tc "shrinker leaves passing cases alone" test_shrink_keeps_passing_case;
    Util.tc "shrinker simplifies the view" test_shrink_view;
    Util.tc "shrinker drops a redundant downstream view"
      test_shrink_cascade_drops_last_view;
    Util.tc "generated cascade stacks pass the oracle"
      test_generated_cascades_pass;
    Util.tc "regression: group keys sharing a bare name"
      test_shared_bare_name_group_keys ]
