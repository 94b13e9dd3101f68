(** The extension module: OpenIVM inside the engine (paper Figure 2).

    [install] executes the compiled DDL, performs the initial load, stores
    the propagation script (in the metadata tables and optionally on disk),
    and registers capture hooks on the base tables — the embedded
    equivalent of DuckDB's optimizer-rule DML interception. Under [Eager]
    refresh every base-table change propagates immediately; under [Lazy]
    (the demo's choice) deltas accumulate until the view is queried or
    [refresh] is called. *)

module Ast = Openivm_sql.Ast
open Openivm_engine

type view = {
  compiled : Compiler.t;
  db : Database.t;
  deltas : (string * Table.t) list;
      (** each base table's delta table, resolved once at install *)
  mutable refresh_count : int;
  mutable refresh_time : float;   (** total seconds spent propagating *)
  mutable capture_enabled : bool;
  mutable upstreams : view list;
      (** maintained views this view reads (cascade DAG parents) *)
  mutable downstreams : view list;
      (** maintained views reading this view (cascade DAG children) *)
  mutable in_refresh : bool;
      (** propagation in flight — re-entrant refreshes become no-ops and
          eager downstream refreshes wait for the post-refresh pass *)
}

let view_name v = v.compiled.Compiler.shape.Shape.view_name

(** 0 for views over base tables only; 1 + the deepest upstream level
    otherwise. Attached to refresh spans so profiles attribute time per
    DAG level. *)
let rec dag_level v =
  match v.upstreams with
  | [] -> 0
  | ups -> 1 + List.fold_left (fun acc u -> max acc (dag_level u)) 0 ups

let exec_stmts db stmts =
  List.iter (fun stmt -> ignore (Database.exec_stmt db stmt)) stmts

(** The delta rows the view has not folded yet: the rows of its delta
    tables. The undo journal reverts those rows, so a rolled-back unit
    reverts this count with them. *)
let pending_deltas v =
  List.fold_left (fun n (_, delta) -> n + Table.row_count delta) 0 v.deltas

(* --- delta capture --- *)

(** Append changed rows into delta_T with the boolean multiplicity. Runs
    with hooks disabled so IVM's own writes never re-trigger capture.
    When the base is itself a maintained view, its backing rows carry
    hidden IVM state after the visible prefix — the delta table is
    declared over the visible columns only, so project the row down to
    the delta table's width. *)
let capture v (base_table : string) (change : Trigger.change) =
  if v.capture_enabled then begin
    let delta = List.assoc base_table v.deltas in
    let width = Table.arity delta - 1 in
    Trigger.without_hooks (Database.triggers v.db) (fun () ->
        let emit mult row =
          let row =
            if Array.length row = width then row else Array.sub row 0 width
          in
          Table.insert delta (Array.append row [| Value.Bool mult |])
        in
        List.iter (emit false) change.Trigger.deleted;
        List.iter (emit true) change.Trigger.inserted)
  end

(* --- refresh --- *)

module Span = Openivm_obs.Span
module Metrics = Openivm_obs.Metrics

let m_refresh_total strategy =
  Metrics.counter "openivm_refresh_total"
    ~help:"propagation-script runs per combine strategy"
    ~labels:[ ("strategy", strategy) ]

let m_refresh_seconds strategy =
  Metrics.histogram "openivm_refresh_seconds"
    ~help:"refresh latency per combine strategy"
    ~labels:[ ("strategy", strategy) ]

let m_delta_rows_folded =
  Metrics.counter "openivm_delta_rows_folded_total"
    ~help:"captured delta rows consumed by refreshes"

let m_consolidated_rows =
  Metrics.counter "openivm_consolidated_rows_total"
    ~help:"delta rows cancelled or merged by the Z-set consolidation pass"

(* --- Z-set delta consolidation --- *)

(** Coalesce each pending delta table to its net Z-set: sum the signed
    multiplicities per distinct row and rewrite the table as |weight|
    copies per surviving row. +/- pairs cancel outright, so a hot base
    table — or a swap-strategy upstream view that rewrote itself
    wholesale — feeds propagation a net delta instead of raw churn. *)
let consolidate_delta_table (delta : Table.t) : int =
  let before = Table.row_count delta in
  if before < 2 then 0
  else begin
    let width = Table.arity delta - 1 in
    let weights : int Row.Tbl.t = Row.Tbl.create 64 in
    let order = ref [] in
    Table.iter_rows
      (fun row ->
         let prefix = Array.sub row 0 width in
         let sign =
           match row.(width) with Value.Bool false -> -1 | _ -> 1
         in
         (match Row.Tbl.find_opt weights prefix with
          | Some w -> Row.Tbl.replace weights prefix (w + sign)
          | None ->
            Row.Tbl.add weights prefix sign;
            order := prefix :: !order))
      delta;
    let after =
      List.fold_left
        (fun acc prefix -> acc + abs (Row.Tbl.find weights prefix))
        0 !order
    in
    if after >= before then 0
    else begin
      ignore (Table.truncate delta);
      List.iter
        (fun prefix ->
           let w = Row.Tbl.find weights prefix in
           let row = Array.append prefix [| Value.Bool (w > 0) |] in
           for _ = 1 to abs w do Table.insert delta row done)
        (List.rev !order);
      before - after
    end
  end

let consolidate v =
  (* fewer than two pending rows can neither cancel nor merge; a Full
     plan never reads its deltas (cleanup just discards them), so
     consolidating first would be pure overhead *)
  if v.compiled.Compiler.flags.Flags.consolidate_deltas
     && v.compiled.Compiler.script.Propagate.kind <> Propagate.Full
     && pending_deltas v > 1
  then
    Span.with_span "cascade.consolidate"
      ~attrs:[ ("view", Span.Str (view_name v)) ]
      (fun sp ->
         let before = pending_deltas v in
         let removed =
           Trigger.without_hooks (Database.triggers v.db) (fun () ->
               List.fold_left
                 (fun acc (_, delta) -> acc + consolidate_delta_table delta)
                 0 v.deltas)
         in
         if removed > 0 then Metrics.add m_consolidated_rows removed;
         if sp != Span.none then begin
           Span.set_int sp "rows_before" before;
           Span.set_int sp "rows_after" (before - removed)
         end)

(** One propagation step (paper §2 steps 1–4) under its own span, with
    statement count and the engine's row counters attributed to it. *)
let run_step v name stmts =
  if stmts <> [] then
    Span.with_span ("propagate." ^ name) (fun sp ->
        let p = Database.profile v.db in
        let w0 = p.Database.rows_written and r0 = p.Database.rows_read in
        exec_stmts v.db stmts;
        if sp != Span.none then begin
          Span.set_int sp "statements" (List.length stmts);
          Span.set_int sp "rows_written" (p.Database.rows_written - w0);
          Span.set_int sp "rows_read" (p.Database.rows_read - r0)
        end)

module Clock = Openivm_obs.Clock

(** Fill statements whose FROM references an empty delta table are dead:
    every fill term is linear in each delta it reads, so one empty input
    nullifies the term and skipping it saves a planned statement. *)
let live_fill_stmts v =
  let fill = v.compiled.Compiler.script.Propagate.fill in
  let empty_deltas =
    List.filter_map
      (fun (base, delta) ->
         if Table.row_count delta = 0 then
           Some (Compiler.delta_table v.compiled base)
         else None)
      v.deltas
  in
  if empty_deltas = [] then fill
  else
    List.filter
      (fun stmt ->
         match Propagate.insert_select_parts stmt with
         | None -> true
         | Some (_, q) ->
           not
             (List.exists
                (fun t -> List.mem t empty_deltas)
                (Ast.select_tables q)))
      fill

(** Run [f] as compiler-generated SQL: its bulk INSERT ... SELECT
    statements into empty keyed tables are GROUP BY outputs (or copies of
    one, via a stage table) keyed by the group columns, so the PK-duplicate
    check in {!Table.insert_many} is provably redundant and skipped. *)
let with_bulk_distinct_hint db f =
  let saved = db.Database.bulk_distinct_hint in
  db.Database.bulk_distinct_hint <- true;
  Fun.protect ~finally:(fun () -> db.Database.bulk_distinct_hint <- saved) f

(** Propagate this view's pending deltas, cascade-aware:

    - upstream maintained views refresh first (topological pull), so the
      fill step joins against current upstream contents;
    - the steps run with trigger hooks {e enabled} — unlike a leaf
      refresh of old, the writes to V's backing table are exactly ΔV, and
      downstream views capture them like any base-table delta (the DBSP
      composition point);
    - a Z-set consolidation pass first cancels +/- pairs and merges
      duplicate delta rows ({!Flags.consolidate_deltas});
    - eager downstream views refresh in a post-pass once this refresh is
      complete (never mid-flight — [in_refresh] gates re-entrancy).

    Capture never re-triggers itself: no hooks are registered on delta,
    stage or metadata tables, and {!capture}'s own inserts run under
    [without_hooks]. *)
let rec force_refresh_local v =
  let t0 = Clock.now () in
  let script = v.compiled.Compiler.script in
  let strategy =
    Flags.strategy_to_string v.compiled.Compiler.flags.Flags.strategy
  in
  Span.with_span "refresh"
    ~attrs:
      [ ("view", Span.Str (view_name v));
        ("strategy", Span.Str strategy);
        ("plan", Span.Str (Propagate.kind_to_string script.Propagate.kind));
        ("pending_deltas", Span.Int (pending_deltas v));
        ("dag_level", Span.Int (dag_level v)) ]
    (fun _ ->
       v.in_refresh <- true;
       Fun.protect
         ~finally:(fun () -> v.in_refresh <- false)
         (fun () ->
            with_bulk_distinct_hint v.db @@ fun () ->
            consolidate v;
            let folded = pending_deltas v in
            run_step v "fill" (live_fill_stmts v);
            run_step v "combine" script.Propagate.combine;
            run_step v "prune" script.Propagate.prune;
            run_step v "cleanup" script.Propagate.cleanup;
            Metrics.incr (m_refresh_total strategy);
            Metrics.add m_delta_rows_folded folded;
            v.refresh_count <- v.refresh_count + 1;
            let dt = Clock.now () -. t0 in
            Metrics.observe (m_refresh_seconds strategy) dt;
            v.refresh_time <- v.refresh_time +. dt;
            (* the steps above fed ΔV to downstream delta tables; fold it
               into eager dependents now that V is consistent (we stay
               marked in_refresh so their upstream pull skips us) *)
            match v.downstreams with
            | [] -> ()
            | ds ->
              Span.with_span "cascade.downstream"
                ~attrs:[ ("view", Span.Str (view_name v)) ]
                (fun _ ->
                   List.iter
                     (fun d ->
                        if d.compiled.Compiler.flags.Flags.refresh
                           = Flags.Eager
                        then refresh d)
                     ds)))

and refresh_upstreams v =
  match v.upstreams with
  | [] -> ()
  | ups ->
    Span.with_span "cascade.upstream"
      ~attrs:[ ("view", Span.Str (view_name v)) ]
      (fun _ -> List.iter refresh ups)

and refresh v =
  if not v.in_refresh then begin
    refresh_upstreams v;
    if pending_deltas v > 0 then force_refresh_local v
  end

let force_refresh v =
  if not v.in_refresh then begin
    refresh_upstreams v;
    force_refresh_local v
  end

(** Deferred eager refresh: runs after the outermost trigger dispatch so
    a view over both a base table and an upstream view sees all of a
    statement's deltas at once. Skipped while an upstream is mid-refresh
    — that upstream's post-pass picks us up. *)
let eager_refresh v =
  if not (List.exists (fun u -> u.in_refresh) v.upstreams) then refresh v

(** Rebuild the view from the base tables as they stand now: discard all
    pending deltas, truncate the view's backing table, and rerun the
    initial load. The recovery path of last resort — equivalent to
    dropping and re-creating the view, but keeping triggers, metadata and
    compiled scripts in place. *)
let rec reinitialize v =
  let catalog = Database.catalog v.db in
  with_bulk_distinct_hint v.db @@ fun () ->
  Trigger.without_hooks (Database.triggers v.db) (fun () ->
      ignore (Table.truncate (Catalog.find_table catalog (view_name v)));
      List.iter (fun (_, delta) -> ignore (Table.truncate delta)) v.deltas;
      exec_stmts v.db [ v.compiled.Compiler.initial_load ]);
  (* the rebuild ran hook-free, so dependents saw none of it: rebuild
     them too, in DAG order (each reads its freshly rebuilt upstream) *)
  List.iter reinitialize v.downstreams

(** Query the view after folding whatever it has pending: a lazy view's
    deltas, an upstream's, or rows a bridge landed in its delta tables.
    An eager view over base tables has nothing pending, so for it the
    refresh returns at once. *)
let query v (sql : string) : Database.query_result =
  refresh v;
  Database.query v.db sql

let contents ?(order_by = "") v : Database.query_result =
  let suffix = if order_by = "" then "" else " ORDER BY " ^ order_by in
  query v (Printf.sprintf "SELECT * FROM %s%s" (view_name v) suffix)

(* --- the differential-testing hooks --- *)

(** The view's visible contents as sorted row strings. Hidden bookkeeping
    columns are stripped; flat (non-aggregate) views materialize in
    weighted form, so their rows are expanded by the hidden row count to
    recover bag semantics. The oracle's left-hand side. *)
let visible_rows (v : view) : string list =
  let shape = v.compiled.Compiler.shape in
  let visible = Shape.visible_names shape in
  let flat = not (Shape.has_aggregates shape) in
  let cols = if flat then visible @ [ Shape.count_column ] else visible in
  let r =
    query v
      (Printf.sprintf "SELECT %s FROM %s" (String.concat ", " cols)
         (view_name v))
  in
  let rows =
    if flat then
      List.concat_map
        (fun (row : Row.t) ->
           let n = Array.length row - 1 in
           let weight = match row.(n) with Value.Int w -> w | _ -> 1 in
           let visible_part = Array.sub row 0 n in
           List.init (max 0 weight) (fun _ -> Row.to_string visible_part))
        r.Database.rows
    else List.map Row.to_string r.Database.rows
  in
  List.sort String.compare rows

(** Full recomputation of the defining query against the base tables as
    they stand now, as sorted row strings — the oracle's right-hand side.
    [visible_rows v = recompute_rows v] is the IVM correctness invariant
    (paper §2, DBSP Z-set semantics). *)
let recompute_rows (v : view) : string list =
  let q = v.compiled.Compiler.shape.Shape.query in
  let sql = Openivm_sql.Pretty.select_to_sql Openivm_sql.Dialect.minidb q in
  List.sort String.compare
    (List.map Row.to_string (Database.query v.db sql).Database.rows)

(* --- installation --- *)

let store_scripts_on_disk (compiled : Compiler.t) =
  match compiled.Compiler.flags.Flags.script_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path =
      Filename.concat dir (compiled.Compiler.shape.Shape.view_name ^ ".sql")
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Compiler.full_sql compiled))

(** Installation modes for the durable store:
    - [`Immediate] (default) — DDL, metadata, initial load: the historical
      single-shot install.
    - [`Deferred] — DDL and metadata, but no initial load: the staged
      backfill fills the view chunk by chunk afterwards
      ({!backfill_chunk}).
    - [`Attach] — neither DDL nor load: the backing, delta and metadata
      tables already exist (a checkpoint-restored database); just compile,
      register and re-arm capture.

    [compile] produces the view's compiled form: from SQL text for
    {!install}, from an already-parsed query for {!exec_ext}. *)
let install_with ~registry ~load (db : Database.t) compile : view =
  let compiled =
    Span.with_span "install" (fun sp ->
        let compiled = Span.with_span "compile" (fun _ -> compile ()) in
        Span.set_str sp "view" compiled.Compiler.shape.Shape.view_name;
        (match load with
         | `Attach ->
           (* tables were restored from the checkpoint; metadata DDL is
              IF NOT EXISTS and so safe (and needed when attaching to a
              database snapshotted before a metadata table existed) *)
           exec_stmts db compiled.Compiler.metadata_ddl
         | `Immediate | `Deferred ->
           Span.with_span "setup_ddl" (fun _ ->
               exec_stmts db compiled.Compiler.ddl;
               exec_stmts db compiled.Compiler.metadata_ddl;
               exec_stmts db compiled.Compiler.metadata_dml));
        (match load with
         | `Immediate ->
           (* initial load must not be captured as a delta *)
           Span.with_span "initial_load" (fun _ ->
               with_bulk_distinct_hint db (fun () ->
                   Trigger.without_hooks (Database.triggers db) (fun () ->
                       exec_stmts db [ compiled.Compiler.initial_load ])))
         | `Deferred | `Attach -> ());
        compiled)
  in
  store_scripts_on_disk compiled;
  let shape = compiled.Compiler.shape in
  Catalog.register_mat_view (Database.catalog db)
    { Catalog.mat_name = shape.Shape.view_name;
      mat_visible = Shape.visible_names shape;
      mat_flat = not (Shape.has_aggregates shape);
      mat_depends_on = Compiler.base_tables compiled };
  let deltas =
    List.map
      (fun base ->
         ( base,
           Catalog.find_table (Database.catalog db)
             (Compiler.delta_table compiled base) ))
      (Compiler.base_tables compiled)
  in
  let v =
    { compiled; db; deltas; refresh_count = 0;
      refresh_time = 0.0; capture_enabled = true;
      upstreams = []; downstreams = []; in_refresh = false }
  in
  (* wire the cascade DAG: sources that are maintained views become
     upstream/downstream links when the caller hands us their handles *)
  let ups =
    List.filter_map
      (fun name ->
         List.find_opt (fun u -> String.equal (view_name u) name) registry)
      (Compiler.upstream_views compiled)
  in
  v.upstreams <- ups;
  List.iter (fun u -> u.downstreams <- u.downstreams @ [ v ]) ups;
  List.iter
    (fun base ->
       Trigger.register (Database.triggers db) ~table:base
         ~name:(Printf.sprintf "openivm_%s_%s" (view_name v) base)
         (fun change ->
            capture v base change;
            match compiled.Compiler.flags.Flags.refresh with
            | Flags.Eager ->
              Trigger.defer (Database.triggers db) (fun () -> eager_refresh v)
            | Flags.Lazy -> ()))
    (Compiler.base_tables compiled);
  v

let install ?(flags = Flags.default) ?(registry = []) ?(load = `Immediate)
    (db : Database.t) (sql : string) : view =
  install_with ~registry ~load db (fun () ->
      Compiler.compile ~flags (Database.catalog db) sql)

let install_select ?(flags = Flags.default) ?(registry = []) (db : Database.t)
    ~view_name (query : Ast.select) : view =
  install_with ~registry ~load:`Immediate db (fun () ->
      Compiler.compile_select ~flags (Database.catalog db) ~view_name query)

(* --- staged backfill (the durable store's resumable initial load) --- *)

let m_backfill_chunks =
  Metrics.counter "openivm_backfill_chunks_total"
    ~help:"backfill chunks applied (staged initial materialization)"

(** Only a plain single-base-table source can be backfilled in chunks:
    slices of the base table flow through the delta pipeline exactly like
    captured changes, and linear/swap/rederive strategies all converge on
    partial inputs. Joins need both sides at once, and view-over-view
    sources must read a complete upstream — those load in one piece. *)
let backfill_chunkable v =
  match v.compiled.Compiler.shape.Shape.source with
  | Shape.Single { Shape.from_view = false; _ } -> true
  | Shape.Single _ | Shape.Joined _ -> false

(** Number of chunks a [`Deferred] install of [v] needs at [chunk_rows]
    rows per chunk (always 1 for non-chunkable shapes). *)
let backfill_total_chunks v ~chunk_rows =
  if not (backfill_chunkable v) then 1
  else begin
    let base = List.hd (Compiler.base_tables v.compiled) in
    let rows =
      Table.row_count (Catalog.find_table (Database.catalog v.db) base)
    in
    max 1 ((rows + chunk_rows - 1) / chunk_rows)
  end

(** Apply backfill chunk [index] (0-based) of a [`Deferred] install:
    insert the chunk's slice of the base table into the delta table with
    positive multiplicity and propagate. Chunk order and boundaries are
    deterministic for a fixed base table (slot order), so replaying the
    same chunk indexes over the same base state is idempotent-by-
    construction: recovery re-derives the identical slices. Returns the
    number of base rows folded in. *)
let backfill_chunk v ~chunk_rows ~index =
  Span.with_span "backfill.chunk"
    ~attrs:
      [ ("view", Span.Str (view_name v)); ("chunk", Span.Int index) ]
    (fun _ ->
       Metrics.incr m_backfill_chunks;
       if not (backfill_chunkable v) then begin
         (* single whole-shot chunk: the ordinary initial load *)
         with_bulk_distinct_hint v.db (fun () ->
             Trigger.without_hooks (Database.triggers v.db) (fun () ->
                 exec_stmts v.db [ v.compiled.Compiler.initial_load ]));
         0
       end
       else begin
         let base, delta = List.hd v.deltas in
         let base_tbl = Catalog.find_table (Database.catalog v.db) base in
         let width = Table.arity delta - 1 in
         let rows = Table.to_rows base_tbl in
         let lo = index * chunk_rows in
         let chunk =
           List.filteri (fun i _ -> i >= lo && i < lo + chunk_rows) rows
         in
         Trigger.without_hooks (Database.triggers v.db) (fun () ->
             List.iter
               (fun row ->
                  let row =
                    if Array.length row = width then row
                    else Array.sub row 0 width
                  in
                  Table.insert delta (Array.append row [| Value.Bool true |]))
               chunk);
         force_refresh_local v;
         List.length chunk
       end)

(** IVM202 unless no maintained view reads [name], as a base table or as
    an upstream view. *)
let refuse_drop_if_read catalog name =
  match Catalog.mat_dependents catalog name with
  | [] -> ()
  | dependents ->
    let d = Openivm_sql.Diagnostic.cascade_dependents ~name ~dependents () in
    Error.fail "%s: %s" d.Openivm_sql.Diagnostic.code
      d.Openivm_sql.Diagnostic.message

let uninstall v =
  let db = v.db in
  let catalog = Database.catalog db in
  refuse_drop_if_read catalog (view_name v);
  v.capture_enabled <- false;
  List.iter
    (fun u ->
       u.downstreams <- List.filter (fun d -> not (d == v)) u.downstreams)
    v.upstreams;
  v.upstreams <- [];
  Catalog.unregister_mat_view catalog (view_name v);
  List.iter
    (fun base ->
       Trigger.unregister (Database.triggers db)
         ~name:(Printf.sprintf "openivm_%s_%s" (view_name v) base))
    (Compiler.base_tables v.compiled);
  exec_stmts db (Metadata.unregister (view_name v));
  let drop name =
    ignore
      (Database.exec_stmt db
         (Ast.Drop { kind = `Table; name; if_exists = true }))
  in
  drop (view_name v);
  drop (Compiler.delta_view v.compiled);
  List.iter
    (fun b -> drop (Compiler.delta_table v.compiled b))
    (Compiler.base_tables v.compiled)

(* --- the extension entry point --- *)

(** The loaded extension: a database plus the registry of views it
    maintains (paper Figure 2). *)
type extension = {
  ext_db : Database.t;
  ext_flags : Flags.t;
  mutable ext_views : view list;
}

let load ?(flags = Flags.default) (db : Database.t) : extension =
  { ext_db = db; ext_flags = flags; ext_views = [] }

let find_view ext name =
  List.find_opt (fun v -> String.equal (view_name v) name) ext.ext_views

(** Tick-batched refresh: fold every maintained view's pending deltas in
    one pass, upstreams before downstreams so each propagation runs at
    most once per tick — the serving layer's refresh entry point. *)
let refresh_tick ?(only = fun _ -> true) (ext : extension) : int =
  let views =
    List.stable_sort
      (fun a b -> compare (dag_level a) (dag_level b))
      ext.ext_views
  in
  List.fold_left
    (fun ran v ->
       if only v then begin
         let before = v.refresh_count in
         refresh v;
         if v.refresh_count > before then ran + 1 else ran
       end
       else ran)
    0 views

(** Refresh every maintained view a query touches — the engine-side
    counterpart of the paper's "implicitly calling a table function,
    adding a dummy node to the plan of the original query". A view with
    nothing pending returns at once. *)
let refresh_for_query ext (q : Ast.select) =
  let touched = Ast.select_tables q in
  List.iter
    (fun v -> if List.mem (view_name v) touched then refresh v)
    ext.ext_views

(** Execute a parsed statement with the OpenIVM extension active: the
    fall-back parser path of the paper, and the one place that decides
    which statements the extension intercepts — [CREATE MATERIALIZED
    VIEW] is compiled from the query it holds; SELECTs over maintained
    views refresh them first; everything else goes to the engine
    untouched, whose DML is all-or-nothing. *)
let exec_ext (ext : extension) (stmt : Ast.stmt) :
  [ `Result of Database.exec_result | `Installed of view ] =
  match stmt with
  | Ast.Create_view { view; materialized = true; query } ->
    let v =
      install_select ~flags:ext.ext_flags ~registry:ext.ext_views ext.ext_db
        ~view_name:view query
    in
    ext.ext_views <- v :: ext.ext_views;
    `Installed v
  | Ast.Select_stmt q ->
    refresh_for_query ext q;
    `Result (Database.exec_stmt ext.ext_db stmt)
  | Ast.Drop { kind = `Table; name; _ } when find_view ext name <> None ->
    (match find_view ext name with
     | Some v ->
       uninstall v;
       ext.ext_views <-
         List.filter (fun w -> not (String.equal (view_name w) name)) ext.ext_views;
       `Result (Database.Ok_msg (Printf.sprintf "dropped materialized view %s" name))
     | None -> assert false)
  | Ast.Drop { kind = `Table; name; _ } ->
    (* dropping a base table would leave its views reading a table that
       no longer exists, or one recreated under the same name whose rows
       they never saw *)
    refuse_drop_if_read (Database.catalog ext.ext_db) name;
    `Result (Database.exec_stmt ext.ext_db stmt)
  | Ast.Insert { table; _ } | Ast.Update { table; _ } | Ast.Delete { table; _ }
  | Ast.Truncate table
    when find_view ext table <> None ->
    (* direct DML against a maintained backing table would desynchronize
       the view (and silently corrupt everything downstream of it) *)
    let d = Openivm_sql.Diagnostic.cascade_dml_on_view ~view:table () in
    Error.fail "%s: %s" d.Openivm_sql.Diagnostic.code
      d.Openivm_sql.Diagnostic.message
  | _ -> `Result (Database.exec_stmt ext.ext_db stmt)
