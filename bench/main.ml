(** Benchmark harness regenerating every evaluation claim of the paper
    (see DESIGN.md §4 for the experiment index):

    - E1  IVM propagation vs full recomputation (base-size × delta-size sweep)
    - E2  ART index build strategies and upsert acceleration
    - E3  the demo's 4-way comparison: pure OLAP / pure OLTP /
          cross-system with IVM / cross-system without IVM
    - E4  combine-strategy and refresh-granularity ablations
    - E5  compiler latency per view class
    - the refresh benchmark (paper Figure 4): strategy × view-shape
      propagation medians, emitted as machine-readable JSON (--out,
      default BENCH_refresh.json) with a built-in correctness gate —
      the run exits nonzero naming any view whose maintained contents
      diverge from a full recompute. `--refresh-only` (with `--reps N`)
      runs just this part; the `@bench` alias does so at small scale.

    Each experiment prints a table of the same series the paper's demo
    reports; `--micro` additionally runs one Bechamel micro-benchmark per
    experiment. Absolute numbers reflect the Minidb substrate, but the
    *shapes* (who wins, by what factor, where crossovers fall) are the
    reproduction targets recorded in EXPERIMENTS.md. *)

open Openivm_engine
open Openivm_workload

let pp_duration = Openivm_obs.Report.pp_duration

(** Wall time of [f ()], read through [Openivm_obs.Clock] like every span;
    [~best_of:n] keeps the fastest of [n] runs to cut scheduler noise. *)
let rec time_unit ?(best_of = 1) f =
  let t0 = Openivm_obs.Clock.now () in
  f ();
  let dt = Openivm_obs.Clock.now () -. t0 in
  if best_of <= 1 then dt else Float.min dt (time_unit ~best_of:(best_of - 1) f)

let scale = ref `Medium
let run_micro = ref false

let sizes () =
  match !scale with
  | `Small -> ([ 5_000; 20_000 ], [ 10; 100; 1_000 ])
  | `Medium -> ([ 10_000; 50_000; 200_000 ], [ 10; 100; 1_000; 10_000 ])
  | `Full -> ([ 10_000; 100_000; 1_000_000 ], [ 10; 100; 1_000; 10_000; 100_000 ])

(* --- shared setup --- *)

let groups_view_sql =
  "CREATE MATERIALIZED VIEW query_groups AS SELECT group_index, \
   SUM(group_value) AS total_value, COUNT(*) AS n FROM groups GROUP BY \
   group_index"

let setup_groups_db ~rows ~domain ~strategy : Database.t * Openivm.Runner.view =
  let db = Database.create () in
  ignore (Database.exec db Datagen.groups_ddl);
  Datagen.populate_groups ~domain db (Datagen.create ()) ~rows;
  let flags = { Openivm.Flags.default with strategy } in
  let v = Openivm.Runner.install ~flags db groups_view_sql in
  (db, v)

(* best-of-3 to suppress scheduler noise: each round applies a fresh delta
   of the same size and times only the propagation *)
let apply_and_refresh db v gen ~delta_rows ~domain =
  let best = ref infinity in
  for _ = 1 to 3 do
    let delta = Datagen.groups_delta_rows ~domain gen ~rows:delta_rows in
    Datagen.apply_groups_delta db delta;
    let dt = time_unit (fun () -> Openivm.Runner.force_refresh v) in
    if dt < !best then best := dt
  done;
  !best

(* --- E1: IVM vs full recomputation --- *)

let e1 () =
  let bases, deltas = sizes () in
  let report =
    Report.create ~title:"E1: incremental propagation vs full recomputation"
      ~headers:
        [ "base rows"; "delta rows"; "ivm refresh"; "recompute"; "speedup" ]
  in
  List.iter
    (fun base ->
       let domain = max 100 (base / 100) in
       List.iter
         (fun delta ->
            if delta <= base then begin
              let db_ivm, v_ivm =
                setup_groups_db ~rows:base ~domain
                  ~strategy:Openivm.Flags.Upsert_linear
              in
              let db_full, v_full =
                setup_groups_db ~rows:base ~domain
                  ~strategy:Openivm.Flags.Full_recompute
              in
              let gen = Datagen.create ~seed:77 () in
              let t_ivm =
                apply_and_refresh db_ivm v_ivm gen ~delta_rows:delta ~domain
              in
              let gen = Datagen.create ~seed:77 () in
              let t_full =
                apply_and_refresh db_full v_full gen ~delta_rows:delta ~domain
              in
              Report.add_row report
                [ string_of_int base; string_of_int delta;
                  pp_duration t_ivm; pp_duration t_full;
                  Report.speedup t_full t_ivm ]
            end)
         deltas)
    bases;
  Report.print report

(* --- E1b: the same sweep over a 3-way join view (TPC-H-lite) --- *)

let e1b () =
  let orders_list, deltas =
    match !scale with
    | `Small -> ([ 500 ], [ 10; 50 ])
    | `Medium -> ([ 1_000; 4_000 ], [ 10; 50; 200 ])
    | `Full -> ([ 1_000; 4_000; 16_000 ], [ 10; 50; 200; 1_000 ])
  in
  let report =
    Report.create
      ~title:
        "E1b: 3-way join view (TPC-H-lite revenue) — IVM vs recompute"
      ~headers:
        [ "orders"; "delta orders"; "ivm refresh"; "recompute"; "speedup" ]
  in
  List.iter
    (fun orders ->
       List.iter
         (fun delta ->
            let setup strategy =
              let db = Database.create () in
              List.iter (fun sql -> ignore (Database.exec db sql))
                Tpch_lite.all_ddl;
              let gen = Tpch_lite.create ~customers:(max 50 (orders / 10)) () in
              Tpch_lite.populate db gen ~orders;
              let flags = { Openivm.Flags.default with strategy } in
              let v = Openivm.Runner.install ~flags db Tpch_lite.revenue_view in
              (db, gen, v)
            in
            let run (db, gen, v) =
              let best = ref infinity in
              for _ = 1 to 3 do
                for _ = 1 to delta do
                  List.iter (fun sql -> ignore (Database.exec db sql))
                    (Tpch_lite.order_statements gen)
                done;
                List.iter (fun sql -> ignore (Database.exec db sql))
                  (Tpch_lite.cancel_statements gen);
                let dt =
                  time_unit (fun () -> Openivm.Runner.force_refresh v)
                in
                if dt < !best then best := dt
              done;
              !best
            in
            let t_ivm = run (setup Openivm.Flags.Upsert_linear) in
            let t_full = run (setup Openivm.Flags.Full_recompute) in
            Report.add_row report
              [ string_of_int orders; string_of_int delta;
                pp_duration t_ivm; pp_duration t_full;
                Report.speedup t_full t_ivm ])
         deltas)
    orders_list;
  Report.print report

(* --- E2: ART index build strategies and upsert speed --- *)

let e2 () =
  let ns = match !scale with
    | `Small -> [ 10_000; 50_000 ]
    | `Medium -> [ 10_000; 100_000; 400_000 ]
    | `Full -> [ 10_000; 100_000; 1_000_000 ]
  in
  let report =
    Report.create ~title:"E2a: ART build — per-row inserts vs bulk vs chunked merge"
      ~headers:[ "keys"; "insert each"; "bulk sorted"; "16 chunks + merge" ]
  in
  List.iter
    (fun n ->
       let bindings =
         Array.init n (fun i -> (Value.encode_key [| Value.Int i |], i))
       in
       let t_insert =
         time_unit ~best_of:3 (fun () ->
             let t = Art.create () in
             Array.iter (fun (k, v) -> Art.insert t k v) bindings)
       in
       let t_bulk =
         time_unit ~best_of:3 (fun () -> ignore (Art.of_sorted bindings))
       in
       let chunks = 16 in
       let t_chunked =
         time_unit ~best_of:3 (fun () ->
             let size = (n + chunks - 1) / chunks in
             let parts =
               List.init chunks (fun c ->
                   let lo = c * size in
                   let hi = min n (lo + size) in
                   if hi <= lo then Art.create ()
                   else Art.of_sorted (Array.sub bindings lo (hi - lo)))
             in
             match parts with
             | [] -> ()
             | first :: rest ->
               List.iter
                 (fun part -> Art.merge ~combine:(fun _ v -> v) first part)
                 rest)
       in
       Report.add_row report
         [ string_of_int n; pp_duration t_insert;
           pp_duration t_bulk; pp_duration t_chunked ])
    ns;
  Report.print report;
  (* E2b: upserting into a materialized aggregate with / without the ART
     PK (without = delete-then-insert by predicate scan) *)
  let base = match !scale with `Small -> 20_000 | `Medium -> 100_000 | `Full -> 400_000 in
  let batch = 1_000 in
  let report2 =
    Report.create
      ~title:
        (Printf.sprintf
           "E2b: applying %d group upserts into a %d-group view" batch base)
      ~headers:[ "method"; "time"; "per row" ]
  in
  let mk_db () =
    let db = Database.create () in
    ignore (Database.exec db "CREATE TABLE v(k INTEGER PRIMARY KEY, s INTEGER)");
    let tbl = Catalog.find_table (Database.catalog db) "v" in
    Trigger.without_hooks (Database.triggers db) (fun () ->
        for i = 0 to base - 1 do
          Table.insert tbl [| Value.Int i; Value.Int (i * 3) |]
        done);
    db
  in
  let db = mk_db () in
  let t_upsert =
    time_unit (fun () ->
        for i = 0 to batch - 1 do
          ignore
            (Database.exec db
               (Printf.sprintf "INSERT OR REPLACE INTO v VALUES (%d, %d)"
                  (i * 97 mod base) i))
        done)
  in
  Report.add_row report2
    [ "ART-indexed upsert"; pp_duration t_upsert;
      pp_duration (t_upsert /. float_of_int batch) ];
  let db2 = Database.create () in
  ignore (Database.exec db2 "CREATE TABLE v(k INTEGER, s INTEGER)");
  let tbl2 = Catalog.find_table (Database.catalog db2) "v" in
  Trigger.without_hooks (Database.triggers db2) (fun () ->
      for i = 0 to base - 1 do
        Table.insert tbl2 [| Value.Int i; Value.Int (i * 3) |]
      done);
  let t_scan =
    time_unit (fun () ->
        for i = 0 to batch - 1 do
          let key = i * 97 mod base in
          ignore
            (Database.exec db2
               (Printf.sprintf "DELETE FROM v WHERE k = %d" key));
          ignore
            (Database.exec db2
               (Printf.sprintf "INSERT INTO v VALUES (%d, %d)" key i))
        done)
  in
  Report.add_row report2
    [ "unindexed delete+insert"; pp_duration t_scan;
      pp_duration (t_scan /. float_of_int batch) ];
  Report.print report2

(* --- E3: the demo's 4-way cross-system comparison --- *)

let e3 () =
  let seed_rows, batch_rows, rounds =
    match !scale with
    | `Small -> (10_000, 200, 3)
    | `Medium -> (50_000, 500, 4)
    | `Full -> (200_000, 1_000, 5)
  in
  (* the OLTP side indexes the transaction key, as any OLTP system would *)
  let schema_sql =
    Datagen.groups_ddl ^ "; CREATE INDEX idx_groups_key ON groups(group_index);"
  in
  let analytical =
    "SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS n FROM \
     groups GROUP BY group_index"
  in
  let report =
    Report.create
      ~title:
        (Printf.sprintf
           "E3: time to a fresh analytical answer (%d seed rows, %d-stmt \
            tx batches, mean of %d rounds)"
           seed_rows batch_rows rounds)
      ~headers:[ "deployment"; "tx batch"; "fresh answer"; "total" ]
  in
  let tx_seed = 4242 in
  (* (a) pure OLAP embedded engine + IVM *)
  let bench_pure_olap () =
    let db = Database.create () in
    ignore (Database.exec_script db schema_sql);
    let tx = Openivm_htap.Txgen.create ~seed:tx_seed () in
    List.iter (fun sql -> ignore (Database.exec db sql))
      (Openivm_htap.Txgen.seed_rows tx seed_rows);
    let v = Openivm.Runner.install db ("CREATE MATERIALIZED VIEW query_groups AS " ^ analytical) in
    let t_tx = ref 0.0 and t_q = ref 0.0 in
    for _ = 1 to rounds do
      let batch = Openivm_htap.Txgen.batch tx batch_rows in
      t_tx := !t_tx +. time_unit (fun () ->
          List.iter (fun sql -> ignore (Database.exec db sql)) batch);
      t_q := !t_q +. time_unit (fun () ->
          ignore (Openivm.Runner.query v "SELECT * FROM query_groups"))
    done;
    (!t_tx /. float_of_int rounds, !t_q /. float_of_int rounds)
  in
  (* (b) pure OLTP engine, recompute on read *)
  let bench_pure_oltp () =
    let oltp = Openivm_htap.Oltp.create () in
    ignore (Database.exec_script (Openivm_htap.Oltp.db oltp) schema_sql);
    let tx = Openivm_htap.Txgen.create ~seed:tx_seed () in
    List.iter (fun sql -> ignore (Openivm_htap.Oltp.exec oltp sql))
      (Openivm_htap.Txgen.seed_rows tx seed_rows);
    let t_tx = ref 0.0 and t_q = ref 0.0 in
    for _ = 1 to rounds do
      let batch = Openivm_htap.Txgen.batch tx batch_rows in
      t_tx := !t_tx +. time_unit (fun () ->
          List.iter (fun sql -> ignore (Openivm_htap.Oltp.exec oltp sql)) batch);
      t_q := !t_q +. time_unit (fun () ->
          ignore (Openivm_htap.Oltp.query oltp analytical))
    done;
    (!t_tx /. float_of_int rounds, !t_q /. float_of_int rounds)
  in
  (* (c) cross-system with IVM; (d) cross-system shipping everything *)
  let bench_cross ~with_ivm () =
    let p =
      Openivm_htap.Pipeline.create ~schema_sql
        ~view_sql:("CREATE MATERIALIZED VIEW query_groups AS " ^ analytical)
        ()
    in
    let tx = Openivm_htap.Txgen.create ~seed:tx_seed () in
    List.iter (fun sql -> ignore (Openivm_htap.Pipeline.exec_oltp p sql))
      (Openivm_htap.Txgen.seed_rows tx seed_rows);
    ignore (Openivm_htap.Pipeline.sync p);
    Openivm.Runner.force_refresh (Openivm_htap.Pipeline.view p);
    let t_tx = ref 0.0 and t_q = ref 0.0 in
    for _ = 1 to rounds do
      let batch = Openivm_htap.Txgen.batch tx batch_rows in
      t_tx := !t_tx +. time_unit (fun () ->
          List.iter (fun sql -> ignore (Openivm_htap.Pipeline.exec_oltp p sql)) batch);
      t_q := !t_q +. time_unit (fun () ->
          if with_ivm then
            ignore (Openivm_htap.Pipeline.query p "SELECT * FROM query_groups")
          else ignore (Openivm_htap.Pipeline.query_without_ivm p))
    done;
    (!t_tx /. float_of_int rounds, !t_q /. float_of_int rounds)
  in
  let add name (t_tx, t_q) =
    Report.add_row report
      [ name; pp_duration t_tx; pp_duration t_q;
        pp_duration (t_tx +. t_q) ]
  in
  add "pure OLAP engine + IVM" (bench_pure_olap ());
  add "pure OLTP engine, recompute" (bench_pure_oltp ());
  add "cross-system + IVM (paper)" (bench_cross ~with_ivm:true ());
  add "cross-system, ship-all + recompute" (bench_cross ~with_ivm:false ());
  Report.print report

(* --- E4: strategy and refresh-granularity ablations --- *)

let e4 () =
  let base = match !scale with `Small -> 20_000 | `Medium -> 100_000 | `Full -> 200_000 in
  let deltas = match !scale with
    | `Small -> [ 100; 2_000 ]
    | `Medium | `Full -> [ 100; 1_000; 10_000 ]
  in
  let report =
    Report.create
      ~title:
        (Printf.sprintf "E4a: combine strategies (%d base rows)" base)
      ~headers:
        [ "delta rows"; "upsert_linear"; "union_regroup"; "outer_join_merge";
          "rederive_affected"; "full_recompute"; "advisor picks" ]
  in
  List.iter
    (fun delta ->
       let time strategy =
         let db, v = setup_groups_db ~rows:base ~domain:1000 ~strategy in
         let gen = Datagen.create ~seed:13 () in
         apply_and_refresh db v gen ~delta_rows:delta ~domain:1000
       in
       let advised =
         let db, v =
           setup_groups_db ~rows:base ~domain:1000
             ~strategy:Openivm.Flags.Upsert_linear
         in
         ignore v;
         let shape =
           match
             Openivm.Shape.analyze (Database.catalog db) ~view_name:"probe"
               (Openivm_sql.Parser.parse_select
                  "SELECT group_index, SUM(group_value) AS total_value,                    COUNT(*) AS n FROM groups GROUP BY group_index")
           with
           | Ok s -> s
           | Error e -> failwith e
         in
         (Openivm.Advisor.advise (Database.catalog db) shape
            ~expected_delta:delta)
           .Openivm.Advisor.recommended
       in
       Report.add_row report
         [ string_of_int delta;
           pp_duration (time Openivm.Flags.Upsert_linear);
           pp_duration (time Openivm.Flags.Union_regroup);
           pp_duration (time Openivm.Flags.Outer_join_merge);
           pp_duration (time Openivm.Flags.Rederive_affected);
           pp_duration (time Openivm.Flags.Full_recompute);
           Openivm.Flags.strategy_to_string advised ])
    deltas;
  Report.print report;
  (* E4b: eager per-statement refresh vs lazy batch refresh *)
  let n_stmts = match !scale with `Small -> 200 | _ -> 500 in
  let report2 =
    Report.create
      ~title:
        (Printf.sprintf
           "E4b: refresh granularity over %d single-row inserts (%d base \
            rows)"
           n_stmts base)
      ~headers:[ "mode"; "total time"; "per stmt" ]
  in
  let run_mode refresh =
    let db = Database.create () in
    ignore (Database.exec db Datagen.groups_ddl);
    Datagen.populate_groups ~domain:1000 db (Datagen.create ()) ~rows:base;
    let flags = { Openivm.Flags.default with refresh } in
    let v = Openivm.Runner.install ~flags db groups_view_sql in
    let t =
      time_unit (fun () ->
          for i = 0 to n_stmts - 1 do
            ignore
              (Database.exec db
                 (Printf.sprintf "INSERT INTO groups VALUES ('g%05d', %d)"
                    (i mod 1000) i))
          done;
          Openivm.Runner.refresh v)
    in
    ignore v;
    t
  in
  let t_eager = run_mode Openivm.Flags.Eager in
  let t_lazy = run_mode Openivm.Flags.Lazy in
  Report.add_row report2
    [ "eager (refresh per statement)"; pp_duration t_eager;
      pp_duration (t_eager /. float_of_int n_stmts) ];
  Report.add_row report2
    [ "lazy (one refresh at read)"; pp_duration t_lazy;
      pp_duration (t_lazy /. float_of_int n_stmts) ];
  Report.print report2

(* --- E4c: batching granularity vs staleness --- *)

let e4c () =
  let base = match !scale with `Small -> 20_000 | _ -> 50_000 in
  let total_stmts = match !scale with `Small -> 400 | _ -> 1_000 in
  let report =
    Report.create
      ~title:
        (Printf.sprintf
           "E4c: refresh batching over %d inserts (%d base rows) — cost vs             recency"
           total_stmts base)
      ~headers:
        [ "refresh every"; "total time"; "per stmt"; "avg staleness (rows)" ]
  in
  List.iter
    (fun every ->
       let db = Database.create () in
       ignore (Database.exec db Datagen.groups_ddl);
       Datagen.populate_groups ~domain:1000 db (Datagen.create ()) ~rows:base;
       let v = Openivm.Runner.install db groups_view_sql in
       let staleness_samples = ref 0 in
       let staleness_total = ref 0 in
       let t =
         time_unit (fun () ->
             for i = 0 to total_stmts - 1 do
               ignore
                 (Database.exec db
                    (Printf.sprintf "INSERT INTO groups VALUES ('g%05d', %d)"
                       (i mod 1000) i));
               incr staleness_samples;
               staleness_total := !staleness_total + v.Openivm.Runner.pending_deltas;
               if (i + 1) mod every = 0 then Openivm.Runner.force_refresh v
             done;
             Openivm.Runner.refresh v)
       in
       Report.add_row report
         [ string_of_int every; pp_duration t;
           pp_duration (t /. float_of_int total_stmts);
           Printf.sprintf "%.1f"
             (float_of_int !staleness_total /. float_of_int !staleness_samples) ])
    [ 1; 10; 100; 1000 ];
  Report.print report

(* --- E5: compiler latency --- *)

let e5_views =
  [ ("projection", "CREATE MATERIALIZED VIEW v AS SELECT group_index, group_value FROM groups");
    ("filter", "CREATE MATERIALIZED VIEW v AS SELECT group_index FROM groups WHERE group_value > 10");
    ("sum/count group", groups_view_sql);
    ("min/max group", "CREATE MATERIALIZED VIEW v AS SELECT group_index, MIN(group_value) AS lo, MAX(group_value) AS hi FROM groups GROUP BY group_index");
    ("global aggregate", "CREATE MATERIALIZED VIEW v AS SELECT SUM(group_value) AS s FROM groups");
    ("join aggregate",
     "CREATE MATERIALIZED VIEW v AS SELECT customers.region, \
      SUM(sales.amount) AS total FROM sales JOIN customers ON sales.cust = \
      customers.cust GROUP BY customers.region") ]

let e5_catalog () =
  let db = Database.create () in
  ignore (Database.exec db Datagen.groups_ddl);
  ignore (Database.exec db Datagen.sales_ddl);
  ignore (Database.exec db Datagen.customers_ddl);
  Database.catalog db

let e5 () =
  let catalog = e5_catalog () in
  let report =
    Report.create ~title:"E5: SQL-to-SQL compilation latency per view class"
      ~headers:[ "view class"; "compile time"; "emitted statements" ]
  in
  List.iter
    (fun (name, sql) ->
       let reps = 200 in
       let t =
         time_unit (fun () ->
             for _ = 1 to reps do
               ignore (Openivm.Compiler.compile catalog sql)
             done)
       in
       let c = Openivm.Compiler.compile catalog sql in
       let stmt_count =
         List.length c.Openivm.Compiler.ddl
         + List.length c.Openivm.Compiler.metadata_dml
         + 1
         + List.length (Openivm.Propagate.all_statements c.Openivm.Compiler.script)
       in
       Report.add_row report
         [ name; pp_duration (t /. float_of_int reps);
           string_of_int stmt_count ])
    e5_views;
  Report.print report

(* --- the refresh benchmark: strategy × view-shape medians → JSON ---

   Regenerates the paper's Figure-4 comparison on the Minidb substrate:
   median propagation latency per (view shape × combine strategy), the
   full_recompute column doubling as the non-IVM baseline. Every
   benchmarked view is also checked against a full recompute of its
   defining query after the timed reps; any divergence prints the failing
   view and fails the whole run — a benchmark that measured a wrong
   answer is not a benchmark. Results land in --out (BENCH_refresh.json)
   for EXPERIMENTS.md to reference. *)

let refresh_out = ref "BENCH_refresh.json"
let refresh_reps = ref 5
let refresh_only = ref false

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type refresh_shape = {
  shape_name : string;
  shape_upstreams : string list;
      (* maintained views installed in order before [shape_view]; the
         benchmarked view reads the last one, forming a cascade *)
  shape_view : string;
  shape_setup : Database.t -> Datagen.t -> unit;
  shape_delta : Database.t -> Datagen.t -> unit;
  shape_flags : Openivm.Flags.t -> Openivm.Flags.t;
      (* per-shape tweak of the benchmarked view's flags *)
  shape_upstream_flags : Openivm.Flags.t -> Openivm.Flags.t;
}

let refresh_sizes () =
  match !scale with
  | `Small -> (2_000, 100)
  | `Medium -> (20_000, 500)
  | `Full -> (100_000, 2_000)

let refresh_shapes () =
  let base, delta = refresh_sizes () in
  let domain = max 100 (base / 20) in
  let groups_setup db gen =
    ignore (Database.exec db Datagen.groups_ddl);
    Datagen.populate_groups ~domain db gen ~rows:base
  in
  let groups_delta db gen =
    Datagen.apply_groups_delta db
      (Datagen.groups_delta_rows ~domain gen ~rows:delta)
  in
  let id (f : Openivm.Flags.t) = f in
  let groups name view =
    { shape_name = name; shape_upstreams = [];
      shape_view = "CREATE MATERIALIZED VIEW bench_v AS " ^ view;
      shape_setup = groups_setup; shape_delta = groups_delta;
      shape_flags = id; shape_upstream_flags = id }
  in
  (* cascaded shapes: the benchmarked view reads a maintained view, so a
     timed refresh pulls the upstream first and then folds the captured
     delta-of-the-view (the paper's views-on-views composition) *)
  let cascade name ~upstreams view =
    { (groups name view) with shape_upstreams = upstreams }
  in
  (* duplicate-heavy churn: every rep inserts a marked batch and deletes
     it again, four times over. The eager flat upstream replays each
     round into bench_v's delta table, so the pending delta is almost
     entirely +/- pairs — exactly what the Z-set consolidation pass
     cancels. Benchmarked twice, with consolidation on and off, so
     BENCH_refresh.json carries the measured win. *)
  let churn_delta db _gen =
    for _ = 1 to 4 do
      let values =
        String.concat ", "
          (List.init delta (fun i ->
               Printf.sprintf "('%s', 1000777)" (Datagen.group_key (i mod domain))))
      in
      ignore (Database.exec db ("INSERT INTO groups VALUES " ^ values));
      ignore (Database.exec db "DELETE FROM groups WHERE group_value = 1000777")
    done
  in
  let churn name flags_tweak =
    { shape_name = name;
      shape_upstreams =
        [ "CREATE MATERIALIZED VIEW bench_u1 AS \
           SELECT group_index, group_value FROM groups" ];
      shape_view =
        "CREATE MATERIALIZED VIEW bench_v AS SELECT group_index, \
         SUM(group_value) AS total_value, COUNT(*) AS n FROM bench_u1 \
         GROUP BY group_index";
      shape_setup = groups_setup; shape_delta = churn_delta;
      shape_flags = flags_tweak;
      shape_upstream_flags =
        (fun f -> { f with Openivm.Flags.refresh = Openivm.Flags.Eager }) }
  in
  let customers = max 50 (base / 40) in
  let join_setup db gen =
    ignore (Database.exec db Datagen.sales_ddl);
    ignore (Database.exec db Datagen.customers_ddl);
    Datagen.populate_customers db gen ~customers;
    Datagen.populate_sales ~customers db gen ~rows:base
  in
  let join_delta db gen =
    let values =
      String.concat ", "
        (List.init delta (fun i ->
             Printf.sprintf "(%d, %d, 'item%03d', %d)"
               (1_000_000 + i)
               (Datagen.uniform gen customers)
               (Datagen.uniform gen 500)
               (Datagen.uniform gen 10_000)))
    in
    ignore (Database.exec db ("INSERT INTO sales VALUES " ^ values));
    ignore
      (Database.exec db
         (Printf.sprintf "DELETE FROM sales WHERE cust = %d AND amount %% 97 = %d"
            (Datagen.uniform gen customers) (Datagen.uniform gen 97)))
  in
  [ groups "projection" "SELECT group_index, group_value FROM groups";
    groups "filter"
      "SELECT group_index, group_value FROM groups WHERE group_value > 500";
    groups "sum_count_group"
      "SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS n \
       FROM groups GROUP BY group_index";
    groups "min_max_group"
      "SELECT group_index, MIN(group_value) AS lo, MAX(group_value) AS hi \
       FROM groups GROUP BY group_index";
    groups "global_agg"
      "SELECT SUM(group_value) AS total, COUNT(*) AS n FROM groups";
    { shape_name = "join_agg";
      shape_upstreams = [];
      shape_view =
        "CREATE MATERIALIZED VIEW bench_v AS SELECT customers.region, \
         SUM(sales.amount) AS total FROM sales JOIN customers ON sales.cust \
         = customers.cust GROUP BY customers.region";
      shape_setup = join_setup; shape_delta = join_delta;
      shape_flags = id; shape_upstream_flags = id };
    cascade "cascade_2level"
      ~upstreams:
        [ "CREATE MATERIALIZED VIEW bench_u1 AS SELECT group_index, \
           SUM(group_value) AS total_value, COUNT(*) AS n FROM groups \
           GROUP BY group_index" ]
      "SELECT SUM(total_value) AS grand_total, COUNT(*) AS n_groups \
       FROM bench_u1";
    cascade "cascade_3level"
      ~upstreams:
        [ "CREATE MATERIALIZED VIEW bench_u1 AS SELECT group_index, \
           group_value FROM groups WHERE group_value > 250";
          "CREATE MATERIALIZED VIEW bench_u2 AS SELECT group_index, \
           SUM(group_value) AS total_value, COUNT(*) AS n FROM bench_u1 \
           GROUP BY group_index" ]
      "SELECT SUM(total_value) AS grand_total, COUNT(*) AS n_groups \
       FROM bench_u2";
    churn "cascade_dup_churn" id;
    churn "cascade_dup_churn_noconsol"
      (fun f -> { f with Openivm.Flags.consolidate_deltas = false }) ]

let refresh_strategies =
  [ Openivm.Flags.Upsert_linear; Openivm.Flags.Union_regroup;
    Openivm.Flags.Outer_join_merge; Openivm.Flags.Rederive_affected;
    Openivm.Flags.Full_recompute ]

type refresh_result = {
  r_shape : string;
  r_strategy : string;
  r_median : float;
  r_min : float;
  r_max : float;
  r_converged : bool;
}

let refresh_json results =
  let base, delta = refresh_sizes () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"benchmark\": \"refresh\",\n";
  Printf.bprintf b "  \"scale\": \"%s\",\n"
    (match !scale with `Small -> "small" | `Medium -> "medium" | `Full -> "full");
  Printf.bprintf b "  \"reps\": %d,\n" (max 1 !refresh_reps);
  Buffer.add_string b "  \"warmup_reps\": 1,\n";
  Printf.bprintf b "  \"base_rows\": %d,\n" base;
  Printf.bprintf b "  \"delta_rows\": %d,\n" delta;
  Buffer.add_string b "  \"results\": [\n";
  List.iteri
    (fun i r ->
       Printf.bprintf b
         "    {\"shape\": %S, \"strategy\": %S, \"median_seconds\": \
          %.9f, \"min_seconds\": %.9f, \"max_seconds\": %.9f, \
          \"converged\": %b}%s\n"
         r.r_shape r.r_strategy r.r_median r.r_min r.r_max
         r.r_converged
         (if i = List.length results - 1 then "" else ","))
    results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* --- the recovery benchmark: cold start vs durable-store recovery ---

   How much does durability buy at restart? Seed a data directory with
   the base rows folded into a checkpoint and a tail of delta batches
   still in the WAL, then time three ways of getting a queryable view:
   [cold_start] rebuilds everything from raw rows (full initial load, no
   durability), [wal_replay] recovers checkpoint + tail, and
   [checkpoint_load] recovers after the tail has been folded away. Each
   path is divergence-gated like every other benchmark row. *)

let recovery_results () : refresh_result list =
  let module Store = Openivm_store.Store in
  let base, delta = refresh_sizes () in
  let reps = max 1 !refresh_reps in
  let domain = max 100 (base / 20) in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let with_temp_dir f =
    let dir = Filename.temp_file "openivm_bench_rec" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
  in
  let view_sql =
    "CREATE MATERIALIZED VIEW bench_v AS SELECT group_index, \
     SUM(group_value) AS total_value, COUNT(*) AS n FROM groups GROUP BY \
     group_index"
  in
  let row i =
    Printf.sprintf "('%s', %d)" (Datagen.group_key (i mod domain))
      ((i * 37) mod 1_000)
  in
  let values lo n =
    "INSERT INTO groups VALUES "
    ^ String.concat ", " (List.init n (fun i -> row (lo + i)))
  in
  let tail_batches = 5 in
  with_temp_dir (fun dir ->
      (* seed: base rows + installed view in a checkpoint, deltas in the tail *)
      let store = Store.open_ ~dir () in
      ignore (Store.exec store Datagen.groups_ddl);
      ignore (Store.exec store (values 0 base));
      ignore (Store.exec store view_sql);
      ignore (Store.checkpoint store);
      for b = 0 to tail_batches - 1 do
        ignore (Store.exec store (values (base + (b * delta)) delta))
      done;
      Store.close store;
      let time_open () =
        time_unit (fun () ->
            let s = Store.open_ ~dir () in
            List.iter Openivm.Runner.refresh (Store.views s);
            Store.close s)
      in
      let replay_times = List.init reps (fun _ -> time_open ()) in
      let s = Store.open_ ~dir () in
      let replay_converged = Store.verify s in
      (* fold the tail away so the next measurements load checkpoint only *)
      ignore (Store.checkpoint s);
      Store.close s;
      let checkpoint_times = List.init reps (fun _ -> time_open ()) in
      let s = Store.open_ ~dir () in
      let checkpoint_converged =
        Store.verify s && (Store.last_recovery s).Store.replayed = 0
      in
      Store.close s;
      (* the non-durable baseline: rebuild the same final state from raw
         rows and pay the full initial load *)
      let total = base + (tail_batches * delta) in
      let cold_converged = ref true in
      let cold_times =
        List.init reps (fun _ ->
            time_unit (fun () ->
                let db = Database.create () in
                ignore (Database.exec db Datagen.groups_ddl);
                ignore (Database.exec db (values 0 total));
                let v = Openivm.Runner.install db view_sql in
                cold_converged :=
                  !cold_converged
                  && Openivm.Runner.visible_rows v
                     = Openivm.Runner.recompute_rows v))
      in
      let mk strategy times converged =
        { r_shape = "recovery"; r_strategy = strategy;
          r_median = median times;
          r_min = List.fold_left min infinity times;
          r_max = List.fold_left max neg_infinity times;
          r_converged = converged }
      in
      [ mk "cold_start" cold_times !cold_converged;
        mk "wal_replay" replay_times replay_converged;
        mk "checkpoint_load" checkpoint_times checkpoint_converged ])

(* --- the multi-session churn benchmark: serving-layer scaling ---

   What does consolidating N sessions' deltas into shared ticks buy?
   A fixed budget of DML units is pushed through the serving layer's
   single-writer scheduler by 1, 4 and 16 concurrent session threads;
   the measured wall clock covers submission through drain (every view
   refreshed). One session replays the units back-to-back — each await
   runs its own tick — while 16 sessions pile units into shared ticks
   and the propagation folds them consolidated. Divergence-gated like
   every other row: after each rep, every view must agree with a full
   recompute. *)

let multi_session_results () : refresh_result list =
  let module Scheduler = Openivm_server.Scheduler in
  let module Session = Openivm_server.Session in
  let base, _ = refresh_sizes () in
  let reps = max 1 !refresh_reps in
  let domain = max 100 (base / 20) in
  let total_units = 160 in
  let unit_sql u =
    Printf.sprintf "INSERT INTO groups VALUES ('%s', %d), ('%s', %d)"
      (Datagen.group_key (u mod domain))
      (u * 31 mod 1_000)
      (Datagen.group_key (u * 7 mod domain))
      (u * 17 mod 1_000)
  in
  let view_sql =
    "CREATE MATERIALIZED VIEW bench_v AS SELECT group_index, \
     SUM(group_value) AS total_value, COUNT(*) AS n FROM groups GROUP BY \
     group_index"
  in
  let run n_sessions =
    let db = Database.create () in
    ignore (Database.exec db Datagen.groups_ddl);
    Datagen.populate_groups ~domain db (Datagen.create ~seed:42 ()) ~rows:base;
    let flags =
      { Openivm.Flags.default with Openivm.Flags.refresh = Openivm.Flags.Lazy }
    in
    let ext = Openivm.Runner.load ~flags db in
    let sched = Scheduler.create ext in
    let setup = Session.create sched ~tenant:"bench" in
    (match Session.exec setup view_sql with
     | Session.Msg _ -> ()
     | _ -> failwith "multi_session_churn: view install failed");
    Session.close setup;
    let ok = ref true in
    let per = total_units / n_sessions in
    let t =
      time_unit (fun () ->
          let threads =
            List.init n_sessions (fun s ->
                Thread.create
                  (fun s ->
                     let sess =
                       Session.create sched
                         ~tenant:(Printf.sprintf "bench-%d" s)
                     in
                     for k = 0 to per - 1 do
                       match Session.exec sess (unit_sql ((s * per) + k)) with
                       | Session.Affected _ -> ()
                       | _ -> ok := false
                     done;
                     Session.close sess)
                  s)
          in
          List.iter Thread.join threads;
          Scheduler.drain sched)
    in
    let converged =
      !ok
      && List.for_all
           (fun v ->
              Openivm.Runner.visible_rows v = Openivm.Runner.recompute_rows v)
           ext.Openivm.Runner.ext_views
    in
    (t, converged)
  in
  List.map
    (fun n ->
       let runs = List.init reps (fun _ -> run n) in
       let times = List.map fst runs in
       { r_shape = "multi_session_churn";
         r_strategy = Printf.sprintf "sessions_%d" n;
         r_median = median times;
         r_min = List.fold_left min infinity times;
         r_max = List.fold_left max neg_infinity times;
         r_converged = List.for_all snd runs })
    [ 1; 4; 16 ]

let refresh_bench () =
  let base, delta = refresh_sizes () in
  let reps = max 1 !refresh_reps in
  let results = ref [] in
  let diverged = ref [] in
  let table =
    Report.create
      ~title:
        (Printf.sprintf
           "Refresh latency: median of %d propagation(s), %d base rows, %d \
            delta rows per rep"
           reps base delta)
      ~headers:
        ("view shape"
         :: List.map Openivm.Flags.strategy_to_string refresh_strategies)
  in
  List.iter
    (fun sh ->
       let cells =
         List.map
           (fun strategy ->
              let db = Database.create () in
              let gen = Datagen.create ~seed:99 () in
              sh.shape_setup db gen;
              let flags = { Openivm.Flags.default with strategy } in
              let install_stack () =
                let upstreams =
                  List.fold_left
                    (fun acc sql ->
                       Openivm.Runner.install
                         ~flags:(sh.shape_upstream_flags flags)
                         ~registry:(List.rev acc) db sql
                       :: acc)
                    [] sh.shape_upstreams
                in
                let registry = List.rev upstreams in
                let v =
                  Openivm.Runner.install ~flags:(sh.shape_flags flags)
                    ~registry db sh.shape_view
                in
                (registry, v)
              in
              match install_stack () with
              | exception Openivm.Compiler.Unsupported_view _ -> "n/a"
              | (upstreams, v) ->
                (* one discarded warmup rep: the first propagation pays
                   one-off costs (index builds, stage-table DDL, allocator
                   growth) that would otherwise inflate max_seconds far
                   beyond steady state *)
                sh.shape_delta db gen;
                Openivm.Runner.force_refresh v;
                let times =
                  List.init reps (fun _ ->
                      sh.shape_delta db gen;
                      time_unit (fun () -> Openivm.Runner.force_refresh v))
                in
                let converged =
                  List.for_all
                    (fun u ->
                       Openivm.Runner.visible_rows u
                       = Openivm.Runner.recompute_rows u)
                    (upstreams @ [ v ])
                in
                let name = Openivm.Flags.strategy_to_string strategy in
                if not converged then
                  diverged := (sh.shape_name, name) :: !diverged;
                results :=
                  { r_shape = sh.shape_name; r_strategy = name;
                    r_median = median times;
                    r_min = List.fold_left min infinity times;
                    r_max = List.fold_left max neg_infinity times;
                    r_converged = converged }
                  :: !results;
                pp_duration (median times))
           refresh_strategies
       in
       Report.add_row table (sh.shape_name :: cells))
    (refresh_shapes ());
  Report.print table;
  (* the recovery rows ride along in the same JSON: shape "recovery",
     one strategy slot per restart path *)
  let recovery = recovery_results () in
  List.iter
    (fun r ->
       Printf.printf "recovery/%-16s %s\n" r.r_strategy
         (pp_duration r.r_median);
       if not r.r_converged then
         diverged := (r.r_shape, r.r_strategy) :: !diverged)
    recovery;
  (* the serving-layer scaling rows ride along too: shape
     "multi_session_churn", one strategy slot per session count *)
  let multi = multi_session_results () in
  List.iter
    (fun r ->
       Printf.printf "multi_session/%-12s %s\n" r.r_strategy
         (pp_duration r.r_median);
       if not r.r_converged then
         diverged := (r.r_shape, r.r_strategy) :: !diverged)
    multi;
  let results = List.rev !results @ recovery @ multi in
  let oc = open_out !refresh_out in
  output_string oc (refresh_json results);
  close_out oc;
  Printf.printf "wrote %s (%d measurements)\n" !refresh_out
    (List.length results);
  if !diverged <> [] then begin
    List.iter
      (fun (shape, strategy) ->
         Printf.eprintf
           "BENCH DIVERGENCE: view %s under %s disagrees with full \
            recompute\n"
           shape strategy)
      (List.rev !diverged);
    exit 1
  end

(* --- Bechamel micro-benchmarks: one Test.make per experiment table --- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  (* E1 micro: one propagation refresh over a prepared delta *)
  let e1_test =
    let db, v =
      setup_groups_db ~rows:5_000 ~domain:500
        ~strategy:Openivm.Flags.Upsert_linear
    in
    let gen = Datagen.create ~seed:5 () in
    Test.make ~name:"e1/propagate_100_of_5k"
      (Staged.stage (fun () ->
           Datagen.apply_groups_delta db
             (Datagen.groups_delta_rows ~domain:500 gen ~rows:100);
           Openivm.Runner.force_refresh v))
  in
  let e2_test =
    let bindings =
      Array.init 10_000 (fun i -> (Value.encode_key [| Value.Int i |], i))
    in
    Test.make ~name:"e2/art_bulk_build_10k"
      (Staged.stage (fun () -> ignore (Art.of_sorted bindings)))
  in
  let e3_test =
    let p =
      Openivm_htap.Pipeline.create
        ~schema_sql:(Datagen.groups_ddl ^ ";")
        ~view_sql:groups_view_sql ()
    in
    let tx = Openivm_htap.Txgen.create ~seed:1 () in
    Test.make ~name:"e3/cross_system_round_50tx"
      (Staged.stage (fun () ->
           List.iter
             (fun sql -> ignore (Openivm_htap.Pipeline.exec_oltp p sql))
             (Openivm_htap.Txgen.batch tx 50);
           ignore (Openivm_htap.Pipeline.query p "SELECT * FROM query_groups")))
  in
  let e4_test =
    let db, v =
      setup_groups_db ~rows:5_000 ~domain:500
        ~strategy:Openivm.Flags.Rederive_affected
    in
    let gen = Datagen.create ~seed:6 () in
    Test.make ~name:"e4/rederive_100_of_5k"
      (Staged.stage (fun () ->
           Datagen.apply_groups_delta db
             (Datagen.groups_delta_rows ~domain:500 gen ~rows:100);
           Openivm.Runner.force_refresh v))
  in
  let e5_test =
    let catalog = e5_catalog () in
    Test.make ~name:"e5/compile_sum_count_view"
      (Staged.stage (fun () ->
           ignore (Openivm.Compiler.compile catalog groups_view_sql)))
  in
  let grouped =
    Test.make_grouped ~name:"openivm"
      [ e1_test; e2_test; e3_test; e4_test; e5_test ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let report =
    Report.create ~title:"Bechamel micro-benchmarks (monotonic clock)"
      ~headers:[ "benchmark"; "time/run" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
       let t =
         match Analyze.OLS.estimates est with
         | Some (t :: _) -> pp_duration (t *. 1e-9)
         | _ -> "n/a"
       in
       rows := (name, t) :: !rows)
    results;
  List.iter
    (fun (name, t) -> Report.add_row report [ name; t ])
    (List.sort compare !rows);
  Report.print report

(* --- driver --- *)

let () =
  let argv = Sys.argv in
  let i = ref 1 in
  while !i < Array.length argv do
    (match argv.(!i) with
     | "--small" -> scale := `Small
     | "--full" -> scale := `Full
     | "--micro" -> run_micro := true
     | "--refresh-only" -> refresh_only := true
     | "--reps" when !i + 1 < Array.length argv ->
       incr i;
       refresh_reps := int_of_string argv.(!i)
     | "--out" when !i + 1 < Array.length argv ->
       incr i;
       refresh_out := argv.(!i)
     | arg ->
       Printf.eprintf
         "unknown option %s (use --small/--full, --micro, --refresh-only, \
          --reps N, --out FILE)\n"
         arg;
       exit 2);
    incr i
  done;
  Printf.printf
    "OpenIVM benchmark harness (scale: %s)\n\
     Substrate: Minidb engine — shapes, not absolute numbers, are the \
     reproduction target.\n\n"
    (match !scale with `Small -> "small" | `Medium -> "medium" | `Full -> "full");
  if !refresh_only then refresh_bench ()
  else begin
    e1 ();
    e1b ();
    e2 ();
    e3 ();
    e4 ();
    e4c ();
    e5 ();
    refresh_bench ();
    if !run_micro then micro ()
  end
