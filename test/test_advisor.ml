open Openivm_engine

let setup ~rows ~domain =
  let db = Database.create () in
  ignore (Database.exec db Openivm_workload.Datagen.groups_ddl);
  Openivm_workload.Datagen.populate_groups ~domain db
    (Openivm_workload.Datagen.create ())
    ~rows;
  db

let shape_of db sql =
  match
    Openivm.Shape.analyze (Database.catalog db) ~view_name:"v"
      (Openivm_sql.Parser.parse_select sql)
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let sum_view = "SELECT group_index, SUM(group_value) AS s FROM groups GROUP BY group_index"
let minmax_view = "SELECT group_index, MIN(group_value) AS lo FROM groups GROUP BY group_index"

let suite =
  [ Util.tc "small deltas over a large base choose the linear upsert" (fun () ->
        let db = setup ~rows:50_000 ~domain:500 in
        let advice =
          Openivm.Advisor.advise (Database.catalog db) (shape_of db sum_view)
            ~expected_delta:100
        in
        Alcotest.(check bool) "linear" true
          (advice.Openivm.Advisor.recommended = Openivm.Flags.Upsert_linear));
    Util.tc "deltas comparable to the base choose full recomputation" (fun () ->
        let db = setup ~rows:2_000 ~domain:100 in
        let advice =
          Openivm.Advisor.advise (Database.catalog db) (shape_of db sum_view)
            ~expected_delta:50_000
        in
        Alcotest.(check bool) "full" true
          (advice.Openivm.Advisor.recommended = Openivm.Flags.Full_recompute));
    Util.tc "min/max never gets the linear strategy" (fun () ->
        let db = setup ~rows:20_000 ~domain:200 in
        let advice =
          Openivm.Advisor.advise (Database.catalog db) (shape_of db minmax_view)
            ~expected_delta:10
        in
        Alcotest.(check bool) "not linear" true
          (advice.Openivm.Advisor.recommended <> Openivm.Flags.Upsert_linear);
        Alcotest.(check bool) "no linear candidate" true
          (List.for_all
             (fun e -> e.Openivm.Advisor.strategy <> Openivm.Flags.Upsert_linear)
             advice.Openivm.Advisor.estimates));
    Util.tc "an index on the group key makes rederive affordable for min/max"
      (fun () ->
         let db = setup ~rows:50_000 ~domain:500 in
         Util.exec db "CREATE INDEX idx_gi ON groups(group_index)";
         let advice =
           Openivm.Advisor.advise (Database.catalog db) (shape_of db minmax_view)
             ~expected_delta:10
         in
         Alcotest.(check bool) "rederive" true
           (advice.Openivm.Advisor.recommended = Openivm.Flags.Rederive_affected);
         (* without the index, rederive's estimate degrades to a base scan:
            its cost must be far higher than with the index (full and
            rederive become adjacent, so either recommendation is fine) *)
         let db2 = setup ~rows:50_000 ~domain:500 in
         let advice2 =
           Openivm.Advisor.advise (Database.catalog db2) (shape_of db2 minmax_view)
             ~expected_delta:10
         in
         let cost_of advice strategy =
           (List.find
              (fun e -> e.Openivm.Advisor.strategy = strategy)
              advice.Openivm.Advisor.estimates)
             .Openivm.Advisor.cost
         in
         Alcotest.(check bool) "indexed rederive is far cheaper" true
           (cost_of advice Openivm.Flags.Rederive_affected *. 10.0
            < cost_of advice2 Openivm.Flags.Rederive_affected));
    Util.tc "estimates are sorted cheapest-first and cover candidates" (fun () ->
        let db = setup ~rows:10_000 ~domain:100 in
        let advice =
          Openivm.Advisor.advise (Database.catalog db) (shape_of db sum_view)
            ~expected_delta:100
        in
        let costs = List.map (fun e -> e.Openivm.Advisor.cost) advice.Openivm.Advisor.estimates in
        Alcotest.(check bool) "sorted" true (costs = List.sort compare costs);
        Alcotest.(check int) "five candidates" 5 (List.length costs));
    Util.tc "compile_advised installs a working view with the chosen strategy"
      (fun () ->
         let db = setup ~rows:5_000 ~domain:100 in
         let compiled, advice =
           Openivm.Advisor.compile_advised (Database.catalog db)
             ~expected_delta:50
             ("CREATE MATERIALIZED VIEW v AS " ^ sum_view)
         in
         Alcotest.(check bool) "strategy matches advice" true
           (compiled.Openivm.Compiler.flags.Openivm.Flags.strategy
            = advice.Openivm.Advisor.recommended));
    Util.tc "advisor choice tracks the measured winner across regimes" (fun () ->
        (* measure all three strategies at two delta sizes and check the
           advisor picks the measured winner (or within 2x of it) *)
        List.iter
          (fun delta ->
             let time strategy =
               let db = setup ~rows:20_000 ~domain:200 in
               let flags = { Openivm.Flags.default with strategy } in
               let v =
                 Openivm.Runner.install ~flags db
                   ("CREATE MATERIALIZED VIEW v AS " ^ sum_view)
               in
               let gen = Openivm_workload.Datagen.create ~seed:3 () in
               Openivm_workload.Datagen.apply_groups_delta db
                 (Openivm_workload.Datagen.groups_delta_rows ~domain:200 gen
                    ~rows:delta);
               let t0 = Openivm_obs.Clock.now () in
               Openivm.Runner.force_refresh v;
               Openivm_obs.Clock.now () -. t0
             in
             let measured =
               [ (Openivm.Flags.Upsert_linear, time Openivm.Flags.Upsert_linear);
                 (Openivm.Flags.Rederive_affected, time Openivm.Flags.Rederive_affected);
                 (Openivm.Flags.Full_recompute, time Openivm.Flags.Full_recompute) ]
             in
             let best_time =
               List.fold_left (fun acc (_, t) -> min acc t) infinity measured
             in
             let db = setup ~rows:20_000 ~domain:200 in
             let advice =
               Openivm.Advisor.advise (Database.catalog db)
                 (shape_of db sum_view) ~expected_delta:delta
             in
             let advised_time =
               List.assoc advice.Openivm.Advisor.recommended measured
             in
             Alcotest.(check bool)
               (Printf.sprintf "delta %d: advised within 3x of best" delta)
               true
               (advised_time <= best_time *. 3.0))
          [ 50; 5_000 ]);
  ]
