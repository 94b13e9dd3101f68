(** Benchmark harness for the paper's evaluation claims (DESIGN.md §4
    maps each claim to its family). Every family emits rows of one kind:
    a (shape, strategy) pair, the seconds of its timed reps after one
    discarded warm-up, a check, and named extras that include the sizes
    the row ran at. A family that sweeps sizes also puts them in the
    strategy slot, so (shape, strategy) stays unique. All rows take one
    path: each prints as one line [shape/strategy median extras]; a row
    whose check failed is named on stderr and the run exits 1 without
    writing a file; otherwise the rows land in [--out] (default
    BENCH_refresh.json). The families and their checks:

    - the ten refresh shapes (paper Figure 4): propagation medians per
      view shape and combine strategy; every view of the stack equals a
      full recompute of its defining query;
    - [recovery]: cold start, WAL replay and checkpoint load of a
      durable store; the recovered view equals a recompute;
    - [backfill]: a durable store's chunked install of the SUM/COUNT
      view at two base sizes; the view equals a recompute, and words
      allocated per base row stay flat across the sizes;
    - [multi_session_churn] and [multi_session_churn_eager]: 160 DML
      units from 1, 4 and 16 concurrent sessions through the scheduler;
      every view equals a recompute;
    - [bulk_update]: an all-rows UPDATE under a 2-value index; lookups
      equal a filtered scan, a non-key UPDATE keeps the slot count;
    - [scaling] (E1, E4a): the SUM/COUNT view under all five strategies
      across base and delta sizes, and the TPC-H-lite revenue join view
      under [upsert_linear] and [full_recompute]; as the refresh shapes;
    - [art_build] (E2a): per-row, bulk and 16-chunk merged ART builds;
      each tree lists the input bindings;
    - [upsert_index] (E2b): upserts with and without the ART primary
      key; both tables end with the same rows;
    - [htap_fresh_answer] (E3): time to a fresh analytical answer in
      four deployments; the deployments agree every round;
    - [refresh_granularity] (E4b, E4c): eager refresh against lazy
      refresh every k statements; the stored view is fresh;
    - [compile] (E5): compiler latency per view class; the view installs
      and equals a recompute after one delta.

    Options: [--small] or [--full] (default: medium scale), [--reps N]
    (default 5), [--out FILE]. [dune build @bench] runs
    [--small --reps 2]. Absolute numbers reflect the Minidb substrate;
    EXPERIMENTS.md judges the paper's shapes from the committed
    medium-scale file. *)

open Openivm_engine
open Openivm_workload

let pp_duration = Openivm_obs.Report.pp_duration

(** Wall time of [f ()], read through [Openivm_obs.Clock] like every span. *)
let time_unit f =
  let t0 = Openivm_obs.Clock.now () in
  f ();
  Openivm_obs.Clock.now () -. t0

let scale = ref `Medium
let out = ref "BENCH_refresh.json"
let reps = ref 5

let by_scale ~small ~medium ~full =
  match !scale with `Small -> small | `Medium -> medium | `Full -> full

(** One discarded warm-up run of [f], then [--reps] measured runs. The
    warm-up pays one-off costs (index builds, stage-table DDL, allocator
    growth) that would otherwise inflate max_seconds. *)
let runs f =
  ignore (f ());
  List.init (max 1 !reps) (fun _ -> f ())

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let num = float_of_int
let exec_all db stmts = List.iter (fun sql -> ignore (Database.exec db sql)) stmts

let sorted_rows (r : Database.query_result) =
  List.sort String.compare (List.map Row.to_string r.Database.rows)

type refresh_result = {
  r_shape : string;
  r_strategy : string;
  r_median : float;
  r_min : float;
  r_max : float;
  r_converged : bool;  (** the row's check passed *)
  r_extra : (string * float) list;  (** more numbers for the row *)
}

let result ~shape ~strategy ~extra converged times =
  { r_shape = shape; r_strategy = strategy; r_median = median times;
    r_min = List.fold_left min infinity times;
    r_max = List.fold_left max neg_infinity times;
    r_converged = converged; r_extra = extra }

let strategies =
  [ Openivm.Flags.Upsert_linear; Openivm.Flags.Union_regroup;
    Openivm.Flags.Outer_join_merge; Openivm.Flags.Rederive_affected;
    Openivm.Flags.Full_recompute ]

(* --- the refresh shapes: strategy × view-shape medians ---

   Regenerates the paper's Figure-4 comparison on the Minidb substrate:
   median propagation latency per (view shape × combine strategy), the
   full_recompute column doubling as the non-IVM baseline. The same loop
   runs the [scaling] family's shapes at other sizes. *)

type refresh_shape = {
  shape_name : string;
  shape_upstreams : string list;
      (* maintained views installed in order before [shape_view]; the
         benchmarked view reads the last one, forming a cascade *)
  shape_view : string;
  shape_setup : Database.t -> unit -> unit;
      (* creates and fills the base tables; returns the function that
         applies one delta *)
  shape_flags : Openivm.Flags.t -> Openivm.Flags.t;
      (* per-shape tweak of the benchmarked view's flags *)
  shape_upstream_flags : Openivm.Flags.t -> Openivm.Flags.t;
  shape_sizes : (string * float) list;
}

let refresh_sizes () =
  by_scale ~small:(2_000, 100) ~medium:(20_000, 500) ~full:(100_000, 2_000)

let sum_count_query =
  "SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS n FROM \
   groups GROUP BY group_index"

let groups_shape ~base ~delta name query =
  let domain = max 100 (base / 20) in
  { shape_name = name; shape_upstreams = [];
    shape_view = "CREATE MATERIALIZED VIEW bench_v AS " ^ query;
    shape_setup =
      (fun db ->
         let gen = Datagen.create ~seed:99 () in
         ignore (Database.exec db Datagen.groups_ddl);
         Datagen.populate_groups ~domain db gen ~rows:base;
         fun () ->
           Datagen.apply_groups_delta db
             (Datagen.groups_delta_rows ~domain gen ~rows:delta));
    shape_flags = Fun.id; shape_upstream_flags = Fun.id;
    shape_sizes = [ ("base_rows", num base); ("delta_rows", num delta) ] }

let refresh_shapes ~base ~delta =
  let domain = max 100 (base / 20) in
  let groups = groups_shape ~base ~delta in
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
  let churn name flags_tweak =
    let sh =
      groups name
        "SELECT group_index, SUM(group_value) AS total_value, COUNT(*) AS n \
         FROM bench_u1 GROUP BY group_index"
    in
    { sh with
      shape_upstreams =
        [ "CREATE MATERIALIZED VIEW bench_u1 AS \
           SELECT group_index, group_value FROM groups" ];
      shape_setup =
        (fun db ->
           let (_ : unit -> unit) = sh.shape_setup db in
           fun () ->
             for _ = 1 to 4 do
               let values =
                 String.concat ", "
                   (List.init delta (fun i ->
                        Printf.sprintf "('%s', 1000777)"
                          (Datagen.group_key (i mod domain))))
               in
               exec_all db
                 [ "INSERT INTO groups VALUES " ^ values;
                   "DELETE FROM groups WHERE group_value = 1000777" ]
             done);
      shape_flags = flags_tweak;
      shape_upstream_flags =
        (fun f -> { f with Openivm.Flags.refresh = Openivm.Flags.Eager }) }
  in
  let customers = max 50 (base / 40) in
  let join_setup db =
    let gen = Datagen.create ~seed:99 () in
    exec_all db [ Datagen.sales_ddl; Datagen.customers_ddl ];
    Datagen.populate_customers db gen ~customers;
    Datagen.populate_sales ~customers db gen ~rows:base;
    fun () ->
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
    groups "sum_count_group" sum_count_query;
    groups "min_max_group"
      "SELECT group_index, MIN(group_value) AS lo, MAX(group_value) AS hi \
       FROM groups GROUP BY group_index";
    groups "global_agg"
      "SELECT SUM(group_value) AS total, COUNT(*) AS n FROM groups";
    { (groups "join_agg"
         "SELECT customers.region, SUM(sales.amount) AS total FROM sales \
          JOIN customers ON sales.cust = customers.cust GROUP BY \
          customers.region")
      with shape_setup = join_setup };
    cascade "cascade_2level"
      ~upstreams:
        [ "CREATE MATERIALIZED VIEW bench_u1 AS " ^ sum_count_query ]
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
    churn "cascade_dup_churn" Fun.id;
    churn "cascade_dup_churn_noconsol"
      (fun f -> { f with Openivm.Flags.consolidate_deltas = false }) ]

(** Install [sh]'s view stack under [strategy] and time one refresh per
    run, each after a fresh delta; the row's check is that every view of
    the stack equals a full recompute afterwards. [slot] makes the
    strategy slot from the strategy's name. *)
let measure_shape ~family ~slot sh strategy =
  let db = Database.create () in
  let apply_delta = sh.shape_setup db in
  let flags = { Openivm.Flags.default with strategy } in
  let upstreams =
    List.rev
      (List.fold_left
         (fun acc sql ->
            Openivm.Runner.install ~flags:(sh.shape_upstream_flags flags)
              ~registry:(List.rev acc) db sql
            :: acc)
         [] sh.shape_upstreams)
  in
  let v =
    Openivm.Runner.install ~flags:(sh.shape_flags flags) ~registry:upstreams db
      sh.shape_view
  in
  let times =
    runs (fun () ->
        apply_delta ();
        time_unit (fun () -> Openivm.Runner.force_refresh v))
  in
  result ~shape:family
    ~strategy:(slot (Openivm.Flags.strategy_to_string strategy))
    ~extra:sh.shape_sizes
    (List.for_all
       (fun u -> Openivm.Runner.visible_rows u = Openivm.Runner.recompute_rows u)
       (upstreams @ [ v ]))
    times

let shape_rows () =
  let base, delta = refresh_sizes () in
  List.concat_map
    (fun sh -> List.map (measure_shape ~family:sh.shape_name ~slot:Fun.id sh) strategies)
    (refresh_shapes ~base ~delta)

(* --- scaling (E1, E4a): refresh cost as a function of |Δ| and |T| ---

   The SUM/COUNT group view under all five strategies over a base × delta
   grid, and the TPC-H-lite revenue view (a 3-way join: inclusion–
   exclusion fill, ART index nested loops) under upsert_linear against
   full_recompute over an orders × delta-orders grid; full_recompute is
   the non-IVM baseline. The groups table gets an index on its group key
   so that each delta's deletes probe instead of scanning the base: at
   200k rows a 20k-row delta would otherwise cost minutes to apply. *)

let tpch_shape ~orders ~delta =
  { shape_name = "tpch_revenue"; shape_upstreams = [];
    shape_view = Tpch_lite.revenue_view;
    shape_setup =
      (fun db ->
         exec_all db Tpch_lite.all_ddl;
         let gen = Tpch_lite.create ~customers:(max 50 (orders / 10)) () in
         Tpch_lite.populate db gen ~orders;
         fun () ->
           for _ = 1 to delta do
             exec_all db (Tpch_lite.order_statements gen)
           done;
           exec_all db (Tpch_lite.cancel_statements gen));
    shape_flags = Fun.id; shape_upstream_flags = Fun.id;
    shape_sizes = [ ("orders", num orders); ("delta_orders", num delta) ] }

let scaling_rows () =
  let bases, deltas =
    by_scale
      ~small:([ 2_000; 20_000 ], [ 10; 100; 2_000 ])
      ~medium:([ 20_000; 200_000 ], [ 10; 1_000; 20_000 ])
      ~full:([ 20_000; 200_000; 1_000_000 ], [ 10; 1_000; 20_000; 100_000 ])
  and orders, delta_orders =
    by_scale
      ~small:([ 500 ], [ 10; 50 ])
      ~medium:([ 1_000; 4_000 ], [ 10; 200 ])
      ~full:([ 1_000; 4_000; 16_000 ], [ 10; 200; 1_000 ])
  in
  let rows sh strategies sizes =
    let slot name =
      String.concat "_" (sh.shape_name :: name :: List.map string_of_int sizes)
    in
    List.map (measure_shape ~family:"scaling" ~slot sh) strategies
  in
  let grid xs ys f = List.concat_map (fun x -> List.concat_map (f x) ys) xs in
  grid bases deltas (fun base delta ->
      let sh = groups_shape ~base ~delta "sum_count_group" sum_count_query in
      let indexed db =
        let apply_delta = sh.shape_setup db in
        ignore (Database.exec db "CREATE INDEX groups_key ON groups(group_index)");
        apply_delta
      in
      rows { sh with shape_setup = indexed } strategies [ base; delta ])
  @ grid orders delta_orders (fun orders delta ->
      rows (tpch_shape ~orders ~delta)
        [ Openivm.Flags.Upsert_linear; Openivm.Flags.Full_recompute ]
        [ orders; delta ])

(* --- the recovery benchmark: cold start vs durable-store recovery ---

   How much does durability buy at restart? Seed a data directory with
   the base rows folded into a checkpoint and a tail of delta batches
   still in the WAL, then time three ways of getting a queryable view:
   [cold_start] rebuilds everything from raw rows (full initial load, no
   durability), [wal_replay] recovers checkpoint + tail, and
   [checkpoint_load] recovers after the tail has been folded away. Each
   path is divergence-gated like every other benchmark row. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(** [f] on a fresh temporary directory, removed afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "openivm_bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let recovery_rows () =
  let module Store = Openivm_store.Store in
  let base, delta = refresh_sizes () in
  let domain = max 100 (base / 20) in
  let view_sql = "CREATE MATERIALIZED VIEW bench_v AS " ^ sum_count_query in
  let row i =
    Printf.sprintf "('%s', %d)" (Datagen.group_key (i mod domain))
      ((i * 37) mod 1_000)
  in
  let values lo n =
    "INSERT INTO groups VALUES "
    ^ String.concat ", " (List.init n (fun i -> row (lo + i)))
  in
  let tail_batches = 5 in
  let extra =
    [ ("base_rows", num base); ("delta_rows", num delta);
      ("tail_batches", num tail_batches) ]
  in
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
      let replay_times = runs time_open in
      let s = Store.open_ ~dir () in
      let replay_converged = Store.verify s in
      (* fold the tail away so the next measurements load checkpoint only *)
      ignore (Store.checkpoint s);
      Store.close s;
      let checkpoint_times = runs time_open in
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
        runs (fun () ->
            time_unit (fun () ->
                let db = Database.create () in
                exec_all db [ Datagen.groups_ddl; values 0 total ];
                let v = Openivm.Runner.install db view_sql in
                cold_converged :=
                  !cold_converged
                  && Openivm.Runner.visible_rows v
                     = Openivm.Runner.recompute_rows v))
      in
      let row strategy times converged =
        result ~shape:"recovery" ~strategy ~extra converged times
      in
      [ row "cold_start" cold_times !cold_converged;
        row "wal_replay" replay_times replay_converged;
        row "checkpoint_load" checkpoint_times checkpoint_converged ])

(* --- backfill: the durable store's chunked initial load ---

   A [Store] install of the SUM/COUNT view over 1,000 groups, in the
   store's default 256-row chunks, at two base sizes. A tenth of the
   base rows is deleted first, so a row's live rank differs from its
   slot. Each size seeds one store; a run times the CREATE MATERIALIZED
   VIEW, checks the view against a recompute and drops it again. Extras:
   the seeded and live base rows, the chunks, and µs and minor-heap
   words per live base row. The check: every install equals a
   recompute, and words per row at the larger size is at most 1.3x the
   smaller. A backfill that walks its base table once allocates a
   constant per row; one that copies the table per chunk allocates in
   proportion to the table. Allocation does not follow the host's
   speed, so the bound holds on any host. *)

let backfill_rows () =
  let module Store = Openivm_store.Store in
  let groups = 1_000 and batch = 1_000 in
  let view_sql = "CREATE MATERIALIZED VIEW bench_v AS " ^ sum_count_query in
  let measure rows =
    with_temp_dir (fun dir ->
        let store = Store.open_ ~dir () in
        ignore (Store.exec store Datagen.groups_ddl);
        for b = 0 to (rows - 1) / batch do
          let lo = b * batch in
          ignore
            (Store.exec store
               ("INSERT INTO groups VALUES "
                ^ String.concat ", "
                    (List.init (min batch (rows - lo)) (fun i ->
                         Printf.sprintf "('%s', %d)"
                           (Datagen.group_key ((lo + i) mod groups))
                           (lo + i)))))
        done;
        ignore (Store.exec store "DELETE FROM groups WHERE group_value % 10 = 3");
        let db = Store.db store in
        let live = Database.query_int db "SELECT COUNT(*) FROM groups" in
        let chunks = ref 0 and words = ref [] and exact = ref true in
        let times =
          runs (fun () ->
              let w0 = Gc.minor_words () in
              let t = time_unit (fun () -> ignore (Store.exec store view_sql)) in
              words := ((Gc.minor_words () -. w0) /. num live) :: !words;
              chunks :=
                Database.query_int db
                  "SELECT total_chunks FROM _openivm_backfill_progress WHERE \
                   view_name = 'bench_v'";
              exact := !exact && Store.verify store;
              ignore (Store.exec store "DROP TABLE bench_v");
              t)
        in
        Store.close store;
        (rows, live, !chunks, median !words, !exact, times))
  in
  let measured =
    List.map measure
      (by_scale ~small:[ 5_000; 50_000 ] ~medium:[ 20_000; 200_000 ]
         ~full:[ 20_000; 200_000 ])
  in
  let words_of (_, _, _, w, _, _) = w in
  let flat =
    words_of (List.nth measured 1) <= 1.3 *. words_of (List.hd measured)
  in
  List.map
    (fun (rows, live, chunks, words, exact, times) ->
       result ~shape:"backfill" ~strategy:(Printf.sprintf "store_install_%d" rows)
         ~extra:
           [ ("base_rows", num rows); ("live_rows", num live);
             ("chunks", num chunks);
             ("us_per_row", 1e6 *. median times /. num live);
             ("words_per_row", words) ]
         (exact && flat) times)
    measured

(* --- the multi-session churn benchmark: serving-layer scaling ---

   What does consolidating N sessions' deltas into shared ticks buy?
   A fixed budget of DML units is pushed through the serving layer's
   single-writer scheduler by 1, 4 and 16 concurrent session threads;
   the measured wall clock covers submission through drain (every view
   refreshed). With no background ticker each awaiting session runs the
   tick itself, so units rarely share one. Under [Lazy] the view folds
   every unit in one refresh at drain; under [Eager]
   ([multi_session_churn_eager]) every tick ends with a refresh. Each
   row carries the mean ticks per rep and units per tick, from
   [Scheduler.stats], and splits the mean wall time per rep ([wall_ms])
   into the ticks the sessions ran ([tick_ms], the
   [openivm_server_tick_seconds] histogram's sum up to the drain), the
   [Scheduler.drain] call ([drain_ms]) and the rest ([other_ms]: thread
   start, session open and close, parsing, lock hand-off). After each
   rep every view must agree with a full recompute. *)

type churn_run = {
  wall : float;
  tick : float;
  drain : float;
  ticks : int;
  units : int;
  converged : bool;
}

let multi_session_rows refresh =
  let module Scheduler = Openivm_server.Scheduler in
  let module Session = Openivm_server.Session in
  let tick_seconds =
    Openivm_obs.Metrics.histogram "openivm_server_tick_seconds"
  in
  let base, _ = refresh_sizes () in
  let domain = max 100 (base / 20) in
  let total_units = 160 in
  let unit_sql u =
    Printf.sprintf "INSERT INTO groups VALUES ('%s', %d), ('%s', %d)"
      (Datagen.group_key (u mod domain))
      (u * 31 mod 1_000)
      (Datagen.group_key (u * 7 mod domain))
      (u * 17 mod 1_000)
  in
  let run n_sessions =
    let db = Database.create () in
    ignore (Database.exec db Datagen.groups_ddl);
    Datagen.populate_groups ~domain db (Datagen.create ~seed:42 ()) ~rows:base;
    let flags = { Openivm.Flags.default with Openivm.Flags.refresh } in
    let ext = Openivm.Runner.load ~flags db in
    let sched = Scheduler.create ext in
    let setup = Session.create sched ~tenant:"bench" in
    (match Session.exec setup ("CREATE MATERIALIZED VIEW bench_v AS " ^ sum_count_query) with
     | Session.Msg _ -> ()
     | _ -> failwith "multi_session_churn: view install failed");
    Session.close setup;
    let ok = ref true in
    let per = total_units / n_sessions in
    let s0 = Scheduler.stats sched in
    let tick0 = Openivm_obs.Metrics.hist_sum tick_seconds in
    let tick = ref 0.0 and drain = ref 0.0 in
    let wall =
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
          tick := Openivm_obs.Metrics.hist_sum tick_seconds -. tick0;
          drain := time_unit (fun () -> Scheduler.drain sched))
    in
    let s1 = Scheduler.stats sched in
    let converged =
      !ok
      && List.for_all
           (fun v ->
              Openivm.Runner.visible_rows v = Openivm.Runner.recompute_rows v)
           ext.Openivm.Runner.ext_views
    in
    { wall; tick = !tick; drain = !drain; converged;
      ticks = s1.Scheduler.ticks - s0.Scheduler.ticks;
      units = s1.Scheduler.units_applied - s0.Scheduler.units_applied }
  in
  let shape =
    match refresh with
    | Openivm.Flags.Lazy -> "multi_session_churn"
    | Openivm.Flags.Eager -> "multi_session_churn_eager"
  in
  List.map
    (fun n ->
       let measured = runs (fun () -> run n) in
       let sum f = List.fold_left (fun acc r -> acc + f r) 0 measured in
       let ms f = 1e3 *. mean (List.map f measured) in
       let ticks = sum (fun r -> r.ticks) and wall = ms (fun r -> r.wall)
       and tick = ms (fun r -> r.tick) and drain = ms (fun r -> r.drain) in
       result ~shape ~strategy:(Printf.sprintf "sessions_%d" n)
         ~extra:
           [ ("base_rows", num base); ("units", num total_units);
             ("ticks", num ticks /. num (List.length measured));
             ("units_per_tick", num (sum (fun r -> r.units)) /. num (max 1 ticks));
             ("wall_ms", wall); ("tick_ms", tick); ("drain_ms", drain);
             ("other_ms", wall -. tick -. drain) ]
         (List.for_all (fun r -> r.converged) measured)
         (List.map (fun r -> r.wall) measured))
    [ 1; 4; 16 ]

(* --- the bulk UPDATE benchmark: one statement over every row ---

   An all-rows UPDATE on a keyed table with a 2-value secondary index on
   [g], at the refresh base size and at ten times it: [set_v] assigns a
   column no index covers, [flip_g] moves every row between the index's
   two keys, and each runs once more inside a unit that is rolled back.
   A row records the slot vector's length before the first statement and
   the largest length seen after one. Gated: after each statement every
   PK and secondary lookup equals a filtered scan, and [set_v] leaves the
   slot count where it was. *)

let bulk_update_rows () =
  let base, _ = refresh_sizes () in
  let setup n =
    let db = Database.create () in
    exec_all db
      [ "CREATE TABLE s(id INTEGER PRIMARY KEY, g INTEGER, v INTEGER)";
        "CREATE INDEX s_g ON s(g)" ];
    let tbl = Catalog.find_table (Database.catalog db) "s" in
    Table.insert_many tbl
      (List.init n (fun i -> [| Value.Int i; Value.Int (i mod 2); Value.Int i |]));
    (db, tbl)
  in
  let lookups_agree (tbl : Table.t) =
    let scanned = ref [] in
    Table.iter_slots (fun slot row -> scanned := (slot, row) :: !scanned) tbl;
    let scanned = List.rev !scanned in
    let ix = Option.get (Table.find_secondary tbl "s_g") in
    List.for_all
      (fun g ->
         Table.probe tbl ~index:(Some ix) [| Value.Int g |]
         = List.filter (fun (_, (r : Row.t)) -> r.(1) = Value.Int g) scanned)
      [ 0; 1 ]
    && List.for_all
         (fun ((_, (r : Row.t)) as hit) -> Table.probe tbl ~index:None [| r.(0) |] = [ hit ])
         scanned
  in
  let row n (name, sql) rolled_back =
    let db, tbl = setup n in
    let exception Abort in
    let statement () =
      if rolled_back then (
        try Database.atomically db (fun () -> ignore (Database.exec db sql); raise Abort)
        with Abort -> ())
      else ignore (Database.exec db sql)
    in
    let slots () = Vec.length tbl.Table.slots in
    let before = slots () in
    let peak = ref 0 and agree = ref true in
    let times =
      runs (fun () ->
          let t = time_unit statement in
          peak := max !peak (slots ());
          agree := !agree && lookups_agree tbl;
          t)
    in
    let kept = name <> "set_v" || !peak = before in
    result ~shape:"bulk_update"
      ~strategy:
        (Printf.sprintf "%s%s_%d" name (if rolled_back then "_rollback" else "") n)
      ~extra:
        [ ("rows", num n); ("slots_before", num before);
          ("slots_after", num !peak) ]
      (kept && !agree) times
  in
  List.concat_map
    (fun n ->
       List.concat_map
         (fun stmt -> [ row n stmt false; row n stmt true ])
         [ ("set_v", "UPDATE s SET v = v + 1"); ("flip_g", "UPDATE s SET g = 1 - g") ])
    [ base; 10 * base ]

(* --- art_build (E2a): three ways to build an ART over n integer keys ---

   Per-row inserts, one bulk build from sorted input, and 16 per-chunk
   bulk builds merged into the first: the paper's "build small indexes
   for each chunk and merge them". The engine itself builds a PK index
   in one sorted pass ([Table.ensure_pk] → [Art.of_sorted]); only this
   family and test_art.ml reach [Art.merge]. The check: each tree lists
   exactly the input bindings in key order, so the bulk and merged trees
   list the same bindings as the per-row tree. *)

let art_build_rows () =
  let chunks = 16 in
  let insert_each bindings =
    let t = Art.create () in
    Array.iter (fun (k, v) -> Art.insert t k v) bindings;
    t
  in
  let chunked_merge bindings =
    let n = Array.length bindings in
    let size = (n + chunks - 1) / chunks in
    let part c =
      let lo = min n (c * size) in
      Art.of_sorted (Array.sub bindings lo (min size (n - lo)))
    in
    let first = part 0 in
    for c = 1 to chunks - 1 do
      Art.merge ~combine:(fun _ v -> v) first (part c)
    done;
    first
  in
  List.concat_map
    (fun n ->
       let bindings =
         Array.init n (fun i -> (Value.encode_key [| Value.Int i |], i))
       in
       List.map
         (fun (name, build, extra) ->
            let tree = ref (Art.create ()) in
            let times = runs (fun () -> time_unit (fun () -> tree := build bindings)) in
            result ~shape:"art_build" ~strategy:(Printf.sprintf "%s_%d" name n)
              ~extra:(("keys", num n) :: extra)
              (Art.to_list !tree = Array.to_list bindings)
              times)
         [ ("insert_each", insert_each, []);
           ("bulk_sorted", Art.of_sorted, []);
           ("chunked_merge", chunked_merge, [ ("chunks", num chunks) ]) ])
    (by_scale ~small:[ 10_000; 50_000 ] ~medium:[ 10_000; 100_000; 400_000 ]
       ~full:[ 10_000; 100_000; 1_000_000 ])

(* --- upsert_index (E2b): upserts with and without the ART primary key ---

   A batch of upserts into a keyed [base]-row table: through the PK's
   ART ([INSERT OR REPLACE]), and into the same table without a key by
   DELETE (a scan) then INSERT. Each run applies the same batch. The
   check: both tables end with the same rows. *)

let upsert_index_rows () =
  let base, batch =
    by_scale ~small:(20_000, 100) ~medium:(100_000, 200) ~full:(400_000, 1_000)
  in
  let run key upsert =
    let db = Database.create () in
    ignore (Database.exec db (Printf.sprintf "CREATE TABLE v(k INTEGER%s, s INTEGER)" key));
    Table.insert_many
      (Catalog.find_table (Database.catalog db) "v")
      (List.init base (fun i -> [| Value.Int i; Value.Int (i * 3) |]));
    let times =
      runs (fun () ->
          time_unit (fun () ->
              for i = 0 to batch - 1 do
                exec_all db (upsert (i * 97 mod base) i)
              done))
    in
    (times, sorted_rows (Database.query db "SELECT k, s FROM v"))
  in
  let indexed =
    run " PRIMARY KEY" (fun k s ->
        [ Printf.sprintf "INSERT OR REPLACE INTO v VALUES (%d, %d)" k s ])
  and unindexed =
    run "" (fun k s ->
        [ Printf.sprintf "DELETE FROM v WHERE k = %d" k;
          Printf.sprintf "INSERT INTO v VALUES (%d, %d)" k s ])
  in
  List.map
    (fun (name, (times, _)) ->
       result ~shape:"upsert_index" ~strategy:(Printf.sprintf "%s_%d" name base)
         ~extra:
           [ ("base_rows", num base); ("batch_rows", num batch);
             ("us_per_row", 1e6 *. median times /. num batch) ]
         (snd indexed = snd unindexed) times)
    [ ("indexed", indexed); ("unindexed", unindexed) ]

(* --- htap_fresh_answer (E3): the demo's 4-way comparison ---

   The same seeded transactions run against four deployments: one
   embedded engine maintaining the view (pure OLAP + IVM), an OLTP
   engine recomputing the query (pure OLTP), the paper's pipeline
   shipping deltas to a maintained view (cross-system + IVM), and the
   pipeline shipping the whole base tables to recompute (cross-system,
   ship-all). Each run applies one transaction batch, then asks for a
   fresh analytical answer; a row times the answer. The check: in every
   run at least three of the four deployments return this deployment's
   rows, so all four agree or the one that does not is named. The view
   is read by its named columns: SELECT * would also return its hidden
   __ivm_* state. *)

let htap_rows () =
  let module Pipeline = Openivm_htap.Pipeline in
  let module Oltp = Openivm_htap.Oltp in
  let module Txgen = Openivm_htap.Txgen in
  let seed_rows, batch_rows =
    by_scale ~small:(10_000, 200) ~medium:(50_000, 500) ~full:(200_000, 1_000)
  in
  (* the OLTP side indexes the transaction key, as any OLTP system would *)
  let schema_sql =
    Datagen.groups_ddl ^ "; CREATE INDEX idx_groups_key ON groups(group_index);"
  in
  let view_sql = "CREATE MATERIALIZED VIEW query_groups AS " ^ sum_count_query in
  let fresh = "SELECT group_index, total_value, n FROM query_groups" in
  (* seed through [exec], then [ready ()] returns the answer function;
     each run: (batch seconds, answer seconds, the answer's rows) *)
  let rounds exec ready =
    let tx = Txgen.create ~seed:4242 () in
    List.iter (fun sql -> ignore (exec sql)) (Txgen.seed_rows tx seed_rows);
    let answer = ready () in
    runs (fun () ->
        let batch = Txgen.batch tx batch_rows in
        let t_tx = time_unit (fun () -> List.iter (fun sql -> ignore (exec sql)) batch) in
        let rows = ref [] in
        let t_q = time_unit (fun () -> rows := sorted_rows (answer ())) in
        (t_tx, t_q, !rows))
  in
  let cross ~with_ivm () =
    let p = Pipeline.create ~schema_sql ~view_sql () in
    rounds (Pipeline.exec_oltp p) (fun () ->
        ignore (Pipeline.sync p);
        Openivm.Runner.force_refresh (Pipeline.view p);
        if with_ivm then fun () -> Pipeline.query p fresh
        else fun () -> Pipeline.query_without_ivm p)
  in
  let measured =
    List.map
      (fun (name, deploy) -> (name, deploy ()))
      [ ("pure_olap_ivm",
         fun () ->
           let db = Database.create () in
           ignore (Database.exec_script db schema_sql);
           rounds (Database.exec db) (fun () ->
               let v = Openivm.Runner.install db view_sql in
               fun () -> Openivm.Runner.query v fresh));
        ("pure_oltp_recompute",
         fun () ->
           let oltp = Oltp.create () in
           ignore (Database.exec_script (Oltp.db oltp) schema_sql);
           rounds (Oltp.exec oltp) (fun () () -> Oltp.query oltp sum_count_query));
        ("cross_system_ivm", cross ~with_ivm:true);
        ("cross_system_ship_all", cross ~with_ivm:false) ]
  in
  let answers = List.map (fun (_, rs) -> List.map (fun (_, _, a) -> a) rs) measured in
  List.map
    (fun (name, rs) ->
       let agreed i (_, _, a) =
         List.length (List.filter (fun other -> List.nth other i = a) answers) >= 3
       in
       result ~shape:"htap_fresh_answer" ~strategy:name
         ~extra:
           [ ("seed_rows", num seed_rows); ("batch_rows", num batch_rows);
             ("tx_batch_ms", 1e3 *. mean (List.map (fun (t, _, _) -> t) rs)) ]
         (List.for_all Fun.id (List.mapi agreed rs))
         (List.map (fun (_, t, _) -> t) rs))
    measured

(* --- refresh_granularity (E4b, E4c): eager vs batched lazy refresh ---

   [stmts] single-row inserts into a [base]-row table under the SUM/COUNT
   view, refreshed eagerly per statement ([eager]), or lazily once k
   statements are pending ([lazy_every_k], k = 1, 10, 100, 1000) and
   once more at the end, as a read would. Extras: µs per statement and
   the mean number of delta rows pending after a statement (the price in
   recency). The check: after each run the stored view equals a
   recompute with no further refresh. *)

let granularity_rows () =
  let base, stmts =
    by_scale ~small:(20_000, 200) ~medium:(50_000, 1_000) ~full:(200_000, 1_000)
  in
  let mode name refresh every =
    let db = Database.create () in
    ignore (Database.exec db Datagen.groups_ddl);
    Datagen.populate_groups ~domain:1000 db (Datagen.create ()) ~rows:base;
    let v =
      Openivm.Runner.install ~flags:{ Openivm.Flags.default with refresh } db
        ("CREATE MATERIALIZED VIEW bench_v AS " ^ sum_count_query)
    in
    let pending = ref 0 and fresh = ref true in
    let times =
      runs (fun () ->
          pending := 0;
          let t =
            time_unit (fun () ->
                for i = 0 to stmts - 1 do
                  if i > 0 && i mod every = 0 then Openivm.Runner.refresh v;
                  ignore
                    (Database.exec db
                       (Printf.sprintf "INSERT INTO groups VALUES ('%s', %d)"
                          (Datagen.group_key (i mod 1000)) i));
                  pending := !pending + Openivm.Runner.pending_deltas v
                done;
                Openivm.Runner.refresh v)
          in
          fresh :=
            !fresh
            && sorted_rows
                 (Database.query db "SELECT group_index, total_value, n FROM bench_v")
               = Openivm.Runner.recompute_rows v;
          t)
    in
    result ~shape:"refresh_granularity" ~strategy:name
      ~extra:
        [ ("base_rows", num base); ("statements", num stmts);
          ("us_per_stmt", 1e6 *. median times /. num stmts);
          ("mean_pending_rows", num !pending /. num stmts) ]
      !fresh times
  in
  mode "eager" Openivm.Flags.Eager max_int
  :: List.map
       (fun k -> mode (Printf.sprintf "lazy_every_%d" k) Openivm.Flags.Lazy k)
       [ 1; 10; 100; 1000 ]

(* --- compile (E5): compiler latency per view class ---

   A run compiles the view [per_run] times; a row is the time of one
   compilation and counts the statements the output holds (DDL,
   metadata, initial load, propagation script). The check: the view
   installs from that output on a small database and equals a recompute
   after one delta. *)

let compile_rows () =
  let per_run = 200 in
  let tables () =
    let db = Database.create () in
    exec_all db [ Datagen.groups_ddl; Datagen.sales_ddl; Datagen.customers_ddl ];
    db
  in
  let catalog = Database.catalog (tables ()) in
  List.map
    (fun (name, query) ->
       let sql = "CREATE MATERIALIZED VIEW v AS " ^ query in
       let times =
         runs (fun () ->
             time_unit (fun () ->
                 for _ = 1 to per_run do
                   ignore (Openivm.Compiler.compile catalog sql)
                 done)
             /. num per_run)
       in
       let db = tables () in
       let gen = Datagen.create () in
       Datagen.populate_groups db gen ~rows:200;
       Datagen.populate_customers db gen ~customers:20;
       Datagen.populate_sales ~customers:20 db gen ~rows:200;
       let v = Openivm.Runner.install db sql in
       let c = v.Openivm.Runner.compiled in
       Datagen.apply_groups_delta db (Datagen.groups_delta_rows gen ~rows:20);
       exec_all db
         [ "INSERT INTO sales VALUES (900, 3, 'item001', 50), (901, 7, 'item002', 70)";
           "DELETE FROM sales WHERE cust = 1" ];
       result ~shape:"compile" ~strategy:name
         ~extra:
           [ ("compiles_per_run", num per_run);
             ("statements",
              num
                (List.length c.Openivm.Compiler.ddl
                 + List.length c.Openivm.Compiler.metadata_dml
                 + 1
                 + List.length (Openivm.Propagate.all_statements c.Openivm.Compiler.script))) ]
         (Openivm.Runner.visible_rows v = Openivm.Runner.recompute_rows v)
         times)
    [ ("projection", "SELECT group_index, group_value FROM groups");
      ("filter", "SELECT group_index FROM groups WHERE group_value > 10");
      ("sum_count_group", sum_count_query);
      ("min_max_group",
       "SELECT group_index, MIN(group_value) AS lo, MAX(group_value) AS hi \
        FROM groups GROUP BY group_index");
      ("global_agg", "SELECT SUM(group_value) AS s FROM groups");
      ("join_agg",
       "SELECT customers.region, SUM(sales.amount) AS total FROM sales JOIN \
        customers ON sales.cust = customers.cust GROUP BY customers.region") ]

(* --- one writer, one printer, one gate --- *)

let number x = Printf.sprintf "%.6g" x

let print_row r =
  Printf.printf "%s/%s %s%s\n%!" r.r_shape r.r_strategy (pp_duration r.r_median)
    (String.concat ""
       (List.map (fun (k, x) -> Printf.sprintf " %s=%s" k (number x)) r.r_extra))

let scale_name () = by_scale ~small:"small" ~medium:"medium" ~full:"full"

let refresh_json results =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"refresh\",\n";
  Printf.bprintf b "  \"scale\": %S,\n" (scale_name ());
  Printf.bprintf b "  \"host\": {\"domains\": %d, \"ocaml\": %S, \"os\": %S},\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version Sys.os_type;
  Printf.bprintf b "  \"reps\": %d,\n" (max 1 !reps);
  Buffer.add_string b "  \"warmup_reps\": 1,\n";
  Buffer.add_string b "  \"results\": [\n";
  List.iteri
    (fun i r ->
       Printf.bprintf b
         "    {\"shape\": %S, \"strategy\": %S, \"median_seconds\": \
          %.9f, \"min_seconds\": %.9f, \"max_seconds\": %.9f, \
          \"converged\": %b%s}%s\n"
         r.r_shape r.r_strategy r.r_median r.r_min r.r_max r.r_converged
         (String.concat ""
            (List.map
               (fun (k, x) -> Printf.sprintf ", \"%s\": %s" k (number x))
               r.r_extra))
         (if i = List.length results - 1 then "" else ","))
    results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let argv = Sys.argv in
  let i = ref 1 in
  while !i < Array.length argv do
    (match argv.(!i) with
     | "--small" -> scale := `Small
     | "--full" -> scale := `Full
     | "--reps" when !i + 1 < Array.length argv ->
       incr i;
       reps := int_of_string argv.(!i)
     | "--out" when !i + 1 < Array.length argv ->
       incr i;
       out := argv.(!i)
     | arg ->
       Printf.eprintf
         "unknown option %s (use --small/--full, --reps N, --out FILE)\n" arg;
       exit 2);
    incr i
  done;
  Printf.printf
    "OpenIVM benchmark harness (scale: %s)\n\
     Substrate: Minidb engine — shapes, not absolute numbers, are the \
     reproduction target.\n\n"
    (scale_name ());
  let results =
    List.concat_map
      (fun family ->
         let rows = family () in
         List.iter print_row rows;
         rows)
      [ shape_rows; recovery_rows; backfill_rows;
        (fun () -> multi_session_rows Openivm.Flags.Lazy);
        (fun () -> multi_session_rows Openivm.Flags.Eager);
        bulk_update_rows; scaling_rows; art_build_rows; upsert_index_rows;
        htap_rows; granularity_rows; compile_rows ]
  in
  let emitted = List.sort_uniq compare (List.map (fun r -> r.r_shape) results) in
  let failures =
    List.filter_map
      (fun r ->
         if r.r_converged then None
         else Some (Printf.sprintf "%s/%s failed its check" r.r_shape r.r_strategy))
      results
    @ List.filter_map
        (fun f -> if List.mem f emitted then None else Some ("no row of family " ^ f))
        Families.all
    @ List.filter_map
        (fun f ->
           if List.mem f Families.all then None
           else Some ("family " ^ f ^ " is not listed in bench/families.ml"))
        emitted
  in
  if failures <> [] then begin
    List.iter (Printf.eprintf "BENCH GATE: %s\n") failures;
    prerr_endline "BENCH GATE: no result file written";
    exit 1
  end;
  Out_channel.with_open_bin !out (fun oc ->
      output_string oc (refresh_json results));
  Printf.printf "wrote %s (%d rows)\n" !out (List.length results)
