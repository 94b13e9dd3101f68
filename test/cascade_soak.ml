(** Cascade soak (`dune build @cascade`, also part of the default
    runtest and `@ci`): drive a seeded random DML workload through a
    3-level view stack (base → grouped aggregate → view-on-view →
    global) under every combine strategy and a mixed eager/lazy refresh
    assignment, checking after every batch that {e each} level agrees
    exactly with a full recompute of its defining query. A second pass
    replays the same seed with the Z-set consolidation pass disabled and
    asserts the stack contents are identical — consolidation is an
    optimization, never a semantics change. Deterministic (one LCG seed)
    and bounded (~1.5k statements total). *)

module Flags = Openivm.Flags
module Runner = Openivm.Runner
open Openivm_engine

let failures = ref 0
let checks = ref 0

let check name ok =
  incr checks;
  if not ok then begin
    incr failures;
    Printf.printf "  FAIL %s\n%!" name
  end

(* seeded LCG so the soak is reproducible without any library RNG *)
let rng_state = ref 0

let rand n =
  rng_state := (!rng_state * 1103515245 + 12345) land 0x3FFFFFFF;
  !rng_state mod n

let regions = [| "north"; "south"; "east"; "west"; "centre"; "rim" |]

let random_stmts () =
  match rand 10 with
  | 0 | 1 | 2 | 3 ->
    [ Printf.sprintf "INSERT INTO sales VALUES ('%s', %d), ('%s', %d)"
        regions.(rand (Array.length regions)) (rand 100)
        regions.(rand (Array.length regions)) (rand 100) ]
  | 4 | 5 ->
    [ Printf.sprintf "UPDATE sales SET amount = amount + %d WHERE region = '%s'"
        (1 + rand 9) regions.(rand (Array.length regions)) ]
  | 6 ->
    [ Printf.sprintf "UPDATE sales SET region = '%s' WHERE amount %% 7 = %d"
        regions.(rand (Array.length regions)) (rand 7) ]
  | 7 | 8 ->
    [ Printf.sprintf "DELETE FROM sales WHERE region = '%s' AND amount > %d"
        regions.(rand (Array.length regions)) (rand 120) ]
  | _ ->
    (* duplicate-heavy churn: feed the consolidation pass +/- pairs *)
    [ Printf.sprintf "INSERT INTO sales VALUES ('%s', 999), ('%s', 999)"
        regions.(rand 2) regions.(rand 2);
      "DELETE FROM sales WHERE amount = 999" ]

let stack_sqls =
  [ "CREATE MATERIALIZED VIEW region_totals AS SELECT region, SUM(amount) \
     AS total, COUNT(*) AS n FROM sales GROUP BY region";
    "CREATE MATERIALIZED VIEW by_size AS SELECT n, SUM(total) AS sum_total, \
     COUNT(*) AS regions FROM region_totals GROUP BY n";
    "CREATE MATERIALIZED VIEW grand AS SELECT SUM(sum_total) AS g, \
     SUM(regions) AS r FROM by_size" ]

(* level 1 eager, levels 2–3 lazy: the eager push-down and the lazy
   topological pull both stay under load in the same run *)
let install_stack ~strategy ~consolidate db =
  let flags_at level =
    { Flags.default with
      Flags.strategy;
      consolidate_deltas = consolidate;
      refresh = (if level = 0 then Flags.Eager else Flags.Lazy) }
  in
  let rec go level registry = function
    | [] -> List.rev registry
    | sql :: rest ->
      let v =
        Runner.install ~flags:(flags_at level) ~registry:(List.rev registry)
          db sql
      in
      go (level + 1) (v :: registry) rest
  in
  go 0 [] stack_sqls

let run_soak ~strategy ~consolidate ~seed ~batches =
  rng_state := seed;
  let db =
    let db = Database.create () in
    ignore
      (Database.exec db "CREATE TABLE sales(region VARCHAR, amount INTEGER)");
    ignore
      (Database.exec db
         "INSERT INTO sales VALUES ('north', 10), ('south', 7), ('west', 3)");
    db
  in
  let stack = install_stack ~strategy ~consolidate db in
  let top = List.nth stack (List.length stack - 1) in
  for batch = 1 to batches do
    for _ = 1 to 2 + rand 4 do
      List.iter (fun sql -> ignore (Database.exec db sql)) (random_stmts ())
    done;
    (* pull the whole DAG up to date through the top of the stack *)
    Runner.force_refresh top;
    List.iter
      (fun v ->
         check
           (Printf.sprintf "%s/batch %d: %s = recompute"
              (Flags.strategy_to_string strategy) batch (Runner.view_name v))
           (Runner.visible_rows v = Runner.recompute_rows v))
      stack
  done;
  List.map (fun v -> (Runner.view_name v, Runner.visible_rows v)) stack

let () =
  let strategies =
    [ Flags.Upsert_linear; Flags.Union_regroup; Flags.Outer_join_merge;
      Flags.Rederive_affected; Flags.Full_recompute ]
  in
  List.iter
    (fun strategy ->
       Printf.printf "cascade soak: %s\n%!" (Flags.strategy_to_string strategy);
       let with_consol =
         run_soak ~strategy ~consolidate:true ~seed:2024 ~batches:25
       in
       let without =
         run_soak ~strategy ~consolidate:false ~seed:2024 ~batches:25
       in
       check
         (Flags.strategy_to_string strategy
          ^ ": consolidation on/off yields identical stacks")
         (with_consol = without))
    strategies;
  if !failures = 0 then
    Printf.printf "cascade soak: %d checks, all green\n" !checks
  else begin
    Printf.printf "cascade soak: %d/%d checks FAILED\n" !failures !checks;
    exit 1
  end
