(** Chaos soak test (`dune build @chaos`, also part of the default
    runtest): run a seeded transactional workload through the cross-system
    pipeline under each fault mode — and under all of them at once — and
    assert that after [Pipeline.recover] the materialized view, the OLAP
    replicas and a full recompute of the defining query agree exactly,
    and that the faults demonstrably fired. Deterministic (seeded fault
    and workload RNGs) and bounded (zero simulated latencies, ~3k
    statements total). *)

open Openivm_engine
open Openivm_htap

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "  FAIL %s\n%!" name
  end

(* on a convergence failure, show where recovery time went *)
let check_converged name (r : Pipeline.recovery) =
  check (name ^ ": view converges with full recompute") r.Pipeline.converged;
  if not r.Pipeline.converged then
    List.iter (fun l -> Printf.printf "  %s\n%!" l) (Pipeline.pp_phases r)

let groups_schema =
  "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER);"

let groups_view =
  "CREATE MATERIALIZED VIEW query_groups AS SELECT group_index, \
   SUM(group_value) AS total_value, COUNT(*) AS n FROM groups GROUP BY \
   group_index"

let join_schema =
  "CREATE TABLE sales(cust INTEGER, amount INTEGER); CREATE TABLE \
   customers(cust INTEGER, region VARCHAR);"

let join_view =
  "CREATE MATERIALIZED VIEW rs AS SELECT customers.region, \
   SUM(sales.amount) AS total FROM sales JOIN customers ON sales.cust = \
   customers.cust GROUP BY customers.region"

(* The supervisor loop: feed statements, sync periodically, restart the
   OLAP side whenever a crash fault downs it, and finish with the recovery
   ladder. Returns the final recovery outcome. *)
let drive p statements ~sync_every : Pipeline.recovery =
  List.iteri
    (fun i sql ->
       ignore (Pipeline.exec_oltp p sql);
       if (i + 1) mod sync_every = 0 then begin
         ignore (Pipeline.sync p);
         if Pipeline.crashed p then ignore (Pipeline.recover p)
       end)
    statements;
  Pipeline.recover p

let replicas_match p =
  List.for_all
    (fun base ->
       let rows db =
         List.sort String.compare
           (List.map Row.to_string
              (Table.to_rows (Catalog.find_table (Database.catalog db) base)))
       in
       rows (Oltp.db (Pipeline.oltp p)) = rows (Pipeline.olap p))
    p.Pipeline.base_tables

let run_groups ~name ~spec ~tx_count (checks : Pipeline.t -> unit) =
  Printf.printf "chaos soak [%s]: %d transactions...\n%!" name tx_count;
  let faults = Fault.create ~seed:0xBADF00D spec in
  let bridge = Bridge.create ~batch_latency:0.0 ~per_row_cost:0.0 ~faults () in
  let p =
    Pipeline.create ~oltp_latency:0.0 ~bridge ~backoff_base:1e-6
      ~schema_sql:groups_schema ~view_sql:groups_view ()
  in
  let tx = Txgen.create ~seed:31337 ~group_domain:12 () in
  List.iter (fun sql -> ignore (Pipeline.exec_oltp p sql)) (Txgen.seed_rows tx 100);
  let r = drive p (Txgen.batch tx tx_count) ~sync_every:10 in
  check_converged name r;
  check (name ^ ": nothing left in the outbox")
    (List.for_all
       (fun base -> Oltp.pending (Pipeline.oltp p) ~base = 0)
       p.Pipeline.base_tables);
  checks p

(* Join view: replicas are live on the OLAP side, so faults also attack
   replica maintenance. Inline workload — Txgen speaks only the groups
   schema. *)
let run_join ~name ~spec ~tx_count =
  Printf.printf "chaos soak [%s]: %d transactions...\n%!" name tx_count;
  let faults = Fault.create ~seed:0xD15EA5E spec in
  let bridge = Bridge.create ~batch_latency:0.0 ~per_row_cost:0.0 ~faults () in
  let p =
    Pipeline.create ~oltp_latency:0.0 ~bridge ~backoff_base:1e-6
      ~schema_sql:join_schema ~view_sql:join_view ()
  in
  let rng = Random.State.make [| 1729 |] in
  for c = 1 to 20 do
    ignore (Pipeline.exec_oltp p
              (Printf.sprintf "INSERT INTO customers VALUES (%d, 'r%d')" c (c mod 5)))
  done;
  let statements =
    List.init tx_count (fun _ ->
        match Random.State.int rng 10 with
        | 0 | 1 ->
          Printf.sprintf "DELETE FROM sales WHERE cust = %d AND amount %% 13 = %d"
            (1 + Random.State.int rng 20) (Random.State.int rng 13)
        | 2 ->
          Printf.sprintf
            "UPDATE sales SET amount = amount + %d WHERE cust = %d AND amount %% 7 = %d"
            (1 + Random.State.int rng 5)
            (1 + Random.State.int rng 20)
            (Random.State.int rng 7)
        | _ ->
          Printf.sprintf "INSERT INTO sales VALUES (%d, %d)"
            (1 + Random.State.int rng 20) (Random.State.int rng 500))
  in
  let r = drive p statements ~sync_every:10 in
  check_converged name r;
  check (name ^ ": replicas match the OLTP base tables") (replicas_match p);
  check (name ^ ": no silent replica divergence")
    ((Pipeline.stats p).Pipeline.replica_misses = 0)

let () =
  (* each fault mode on its own, hot enough to fire constantly *)
  run_groups ~name:"drop 20%" ~tx_count:500
    ~spec:{ Fault.none with Fault.drop = 0.2 }
    (fun p -> check "drop: retries fired" ((Pipeline.stats p).Pipeline.retries > 0));
  run_groups ~name:"duplicate 20%" ~tx_count:500
    ~spec:{ Fault.none with Fault.duplicate = 0.2 }
    (fun p -> check "duplicate: dedup fired" ((Pipeline.stats p).Pipeline.deduped > 0));
  run_groups ~name:"reorder 20%" ~tx_count:500
    ~spec:{ Fault.none with Fault.reorder = 0.2 }
    (fun p ->
       check "reorder: holdbacks happened"
         (Fault.injected (Bridge.faults p.Pipeline.bridge) Fault.Reorder > 0);
       check "reorder: late copies deduplicated"
         ((Pipeline.stats p).Pipeline.deduped > 0));
  run_groups ~name:"corrupt 20%" ~tx_count:500
    ~spec:{ Fault.none with Fault.corrupt = 0.2 }
    (fun p ->
       check "corrupt: checksum rejects fired"
         ((Pipeline.stats p).Pipeline.checksum_failures > 0));
  run_groups ~name:"crash 20%" ~tx_count:500
    ~spec:{ Fault.none with Fault.crash = 0.2 }
    (fun p ->
       let s = Pipeline.stats p in
       check "crash: crashes rolled back" (s.Pipeline.crashes > 0);
       check "crash: recoveries ran" (s.Pipeline.recoveries > 0));

  (* the acceptance gauntlet: every fault at >= 10% over >= 500 tx *)
  let everything = Fault.chaos ~drop:0.12 ~duplicate:0.12 ~reorder:0.12
      ~corrupt:0.12 ~crash:0.12 () in
  run_groups ~name:"all faults 12%" ~tx_count:600 ~spec:everything
    (fun p ->
       let s = Pipeline.stats p in
       let f = Bridge.faults p.Pipeline.bridge in
       check "all: every wire fault kind fired"
         (List.for_all (fun k -> Fault.injected f k > 0) Fault.wire_kinds);
       check "all: retries > 0" (s.Pipeline.retries > 0);
       check "all: deduplicated batches > 0" (s.Pipeline.deduped > 0);
       check "all: crashes rolled back > 0" (s.Pipeline.crashes > 0));
  run_join ~name:"join view, all faults 12%" ~tx_count:600 ~spec:everything;

  if !failures = 0 then print_endline "chaos soak: all checks passed"
  else begin
    Printf.printf "chaos soak: %d check(s) FAILED\n" !failures;
    exit 1
  end
