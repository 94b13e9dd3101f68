(** The Minidb façade: a catalog plus trigger registry behind a
    SQL-statement interface. This plays the role DuckDB plays in the paper
    — the stock engine the IVM compiler wraps and whose SQL it emits — and,
    in a second configuration, the role of the PostgreSQL OLTP side.

    Profiling counters record per-statement-kind execution counts and
    wall-clock time; the benchmark harness reads them to report the cost
    split between delta capture, propagation and query answering. *)

type profile = {
  mutable statements : int;
  mutable select_time : float;
  mutable dml_time : float;
  mutable ddl_time : float;
  mutable rows_read : int;
  mutable rows_written : int;
}

type t = {
  name : string;
  catalog : Catalog.t;
  triggers : Trigger.t;
  profile : profile;
  mutable optimizer_enabled : bool;
  (* per-statement artificial latency, used by the HTAP bridge to model a
     remote round trip; 0.0 for an embedded engine *)
  mutable statement_latency : float;
  (* a vestige nothing reads: every plan runs on [Exec.run] *)
  mutable exec_engine : Exec.engine;
  (* set while running compiler-generated propagation SQL: bulk inserts
     into empty keyed tables are GROUP BY outputs, so their PK-duplicate
     check can be skipped (see Table.insert_many) *)
  mutable bulk_distinct_hint : bool;
  journal : Table.journal;
}

type query_result = {
  schema : Schema.t;
  rows : Row.t list;
}

type exec_result =
  | Rows of query_result
  | Affected of int
  | Ok_msg of string

let create ?(name = "minidb") () = {
  name;
  catalog = Catalog.create ();
  triggers = Trigger.create ();
  profile = {
    statements = 0; select_time = 0.0; dml_time = 0.0; ddl_time = 0.0;
    rows_read = 0; rows_written = 0;
  };
  optimizer_enabled = true;
  statement_latency = 0.0;
  exec_engine = Exec.Row;
  bulk_distinct_hint = false;
  journal = Table.create_journal ();
}

let catalog t = t.catalog
let triggers t = t.triggers
let profile t = t.profile

let reset_profile t =
  t.profile.statements <- 0;
  t.profile.select_time <- 0.0;
  t.profile.dml_time <- 0.0;
  t.profile.ddl_time <- 0.0;
  t.profile.rows_read <- 0;
  t.profile.rows_written <- 0

let set_statement_latency t seconds = t.statement_latency <- seconds

let simulate_latency t =
  if t.statement_latency > 0.0 then begin
    (* busy-wait: sleep syscalls have too coarse a floor for microsecond
       round-trip modelling *)
    let deadline = Unix.gettimeofday () +. t.statement_latency in
    while Unix.gettimeofday () < deadline do () done
  end

(* --- observability mirrors of the profile counters: always-on direct
   field increments, readable through Openivm_obs.Report --- *)

let m_rows_read =
  Openivm_obs.Metrics.counter "minidb_rows_read_total"
    ~help:"rows returned by top-level SELECTs"

let m_rows_written =
  Openivm_obs.Metrics.counter "minidb_rows_written_total"
    ~help:"rows affected by INSERT/UPDATE/DELETE"

let m_stmts kind =
  Openivm_obs.Metrics.counter "minidb_statements_total"
    ~help:"statements executed per kind" ~labels:[ ("kind", kind) ]

let m_stmts_select = m_stmts "select"
let m_stmts_dml = m_stmts "dml"
let m_stmts_ddl = m_stmts "ddl"

(* --- planning --- *)

let plan_select t (s : Sql.Ast.select) : Plan.t =
  let plan = Planner.plan t.catalog s in
  if t.optimizer_enabled then Optimizer.optimize t.catalog plan else plan

let run_select t (s : Sql.Ast.select) : query_result =
  let plan = plan_select t s in
  let r = Exec.run t.catalog plan in
  let n = List.length r.Exec.rows in
  t.profile.rows_read <- t.profile.rows_read + n;
  Openivm_obs.Metrics.add m_rows_read n;
  { schema = r.Exec.schema; rows = r.Exec.rows }

(* --- DDL --- *)

let schema_of_columns table (columns : Sql.Ast.column_def list) : Schema.t =
  List.map
    (fun c ->
       Schema.column ~table
         ~not_null:(c.Sql.Ast.col_not_null || c.Sql.Ast.col_primary_key)
         c.Sql.Ast.col_name c.Sql.Ast.col_type)
    columns

let create_table t ~table ~columns ~primary_key ~if_not_exists =
  if if_not_exists && Catalog.table_exists t.catalog table then
    Ok_msg (Printf.sprintf "table %s already exists" table)
  else begin
    let schema = schema_of_columns table columns in
    let pk_positions =
      Array.of_list
        (List.map
           (fun name ->
              let i, _ = Schema.find schema ~qualifier:None ~name in
              i)
           primary_key)
    in
    Catalog.add_table t.catalog
      (Table.create ~journal:t.journal ~name:table ~schema
         ~primary_key:pk_positions);
    Ok_msg (Printf.sprintf "created table %s" table)
  end

(* --- statement dispatch --- *)

let rec exec_stmt t (stmt : Sql.Ast.stmt) : exec_result =
  simulate_latency t;
  t.profile.statements <- t.profile.statements + 1;
  let timed slot f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    (match slot with
     | `Select ->
       t.profile.select_time <- t.profile.select_time +. dt;
       Openivm_obs.Metrics.incr m_stmts_select
     | `Dml ->
       t.profile.dml_time <- t.profile.dml_time +. dt;
       Openivm_obs.Metrics.incr m_stmts_dml
     | `Ddl ->
       t.profile.ddl_time <- t.profile.ddl_time +. dt;
       Openivm_obs.Metrics.incr m_stmts_ddl);
    r
  in
  match stmt with
  | Sql.Ast.Select_stmt s ->
    timed `Select (fun () -> Rows (run_select t s))
  | Sql.Ast.Create_table { table; columns; primary_key; if_not_exists } ->
    timed `Ddl (fun () ->
        create_table t ~table ~columns ~primary_key ~if_not_exists)
  | Sql.Ast.Create_view { view; materialized; query } ->
    if materialized then
      Error.fail
        "CREATE MATERIALIZED VIEW requires the OpenIVM extension (use \
         Openivm.Runner.install)"
    else
      timed `Ddl (fun () ->
          (* validate by planning *)
          ignore (plan_select t query);
          Catalog.add_view t.catalog
            { Catalog.view_name = view; query;
              sql = Sql.Pretty.select_to_sql Sql.Dialect.minidb query };
          Ok_msg (Printf.sprintf "created view %s" view))
  | Sql.Ast.Create_index { index; table; columns; unique } ->
    timed `Ddl (fun () ->
        let tbl = Catalog.find_table t.catalog table in
        let key_positions =
          Array.of_list
            (List.map
               (fun name ->
                  let i, _ = Schema.find tbl.Table.schema ~qualifier:None ~name in
                  i)
               columns)
        in
        Catalog.register_index t.catalog ~index_name:index ~table_name:table;
        ignore (Table.create_index tbl ~index_name:index ~key_positions ~unique);
        Ok_msg (Printf.sprintf "created index %s" index))
  | Sql.Ast.Insert { table; columns; source; on_conflict } ->
    timed `Dml (fun () ->
        let o =
          Dml.exec_insert ~distinct_hint:t.bulk_distinct_hint t.catalog
            t.triggers ~table ~columns ~source ~on_conflict
        in
        t.profile.rows_written <- t.profile.rows_written + o.Dml.affected;
        Openivm_obs.Metrics.add m_rows_written o.Dml.affected;
        Affected o.Dml.affected)
  | Sql.Ast.Update { table; assignments; where } ->
    timed `Dml (fun () ->
        let o = Dml.exec_update t.catalog t.triggers ~table ~assignments ~where in
        t.profile.rows_written <- t.profile.rows_written + o.Dml.affected;
        Openivm_obs.Metrics.add m_rows_written o.Dml.affected;
        Affected o.Dml.affected)
  | Sql.Ast.Delete { table; where } ->
    timed `Dml (fun () ->
        let o = Dml.exec_delete t.catalog t.triggers ~table ~where in
        t.profile.rows_written <- t.profile.rows_written + o.Dml.affected;
        Openivm_obs.Metrics.add m_rows_written o.Dml.affected;
        Affected o.Dml.affected)
  | Sql.Ast.Truncate table ->
    timed `Dml (fun () ->
        let o = Dml.exec_truncate t.catalog t.triggers ~table in
        Affected o.Dml.affected)
  | Sql.Ast.Drop { kind; name; if_exists } ->
    timed `Ddl (fun () ->
        (match kind with
         | `Table -> Catalog.drop_table t.catalog name ~if_exists
         | `View -> Catalog.drop_view t.catalog name ~if_exists
         | `Index -> Catalog.drop_index t.catalog ~index_name:name ~if_exists);
        Ok_msg (Printf.sprintf "dropped %s" name))
  | Sql.Ast.Explain inner ->
    (match inner with
     | Sql.Ast.Select_stmt s ->
       let plan = plan_select t s in
       Ok_msg (Plan.to_string plan)
     | _ -> exec_stmt t inner)
  | Sql.Ast.Begin_txn -> Ok_msg "BEGIN"
  | Sql.Ast.Commit_txn -> Ok_msg "COMMIT"
  | Sql.Ast.Rollback_txn ->
    Error.fail
      "ROLLBACK is not supported here: each embedded statement commits on \
       its own (transactions need a server session)"

(* --- units --- *)

let atomically t f =
  let sp = Table.savepoint t.journal in
  match f () with
  | r ->
    Table.release t.journal sp;
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Table.rollback_to t.journal sp;
    (* the failed statement's queued refreshes must not fire later over
       the reverted state *)
    Trigger.clear_deferred t.triggers;
    Printexc.raise_with_backtrace e bt

(* --- string entry points --- *)

let exec t (sql : string) : exec_result =
  exec_stmt t (Sql.Parser.parse_statement sql)

let exec_script t (sql : string) : exec_result list =
  List.map (exec_stmt t) (Sql.Parser.parse_script sql)

(** Run a SELECT and return its rows; raises on non-SELECT. *)
let query t (sql : string) : query_result =
  match exec t sql with
  | Rows r -> r
  | Affected _ | Ok_msg _ -> Error.fail "query: statement did not return rows"

(** First column of the first row — for scalar queries in tests/benches. *)
let query_scalar t (sql : string) : Value.t =
  match (query t sql).rows with
  | row :: _ when Array.length row > 0 -> row.(0)
  | _ -> Value.Null

let query_int t sql =
  match query_scalar t sql with
  | Value.Int i -> i
  | Value.Null -> 0
  | v -> Error.fail "expected integer result, got %s" (Value.to_string v)

(** Render a result like the DuckDB shell box output (simplified). *)
let render_result (r : query_result) : string =
  let headers = Schema.names r.schema in
  let cells = List.map (fun row -> Array.to_list (Array.map Value.to_string row)) r.rows in
  let table = headers :: cells in
  let ncols = List.length headers in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
    table;
  let line =
    "+" ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths)) ^ "+"
  in
  let render_row cells =
    "|"
    ^ String.concat "|"
        (List.mapi
           (fun i cell -> Printf.sprintf " %-*s " widths.(i) cell)
           cells)
    ^ "|"
  in
  String.concat "\n"
    ([ line; render_row headers; line ]
     @ List.map render_row cells
     @ [ line; Printf.sprintf "%d row(s)" (List.length r.rows) ])
