(** The OpenIVM SQL-to-SQL compiler (public API).

    Input: a catalog (for base-table schemas) and a view definition —
    either a [CREATE MATERIALIZED VIEW name AS ...] statement or a name +
    SELECT. Output: every SQL artifact of paper §2 — delta-table DDL, the
    backing table for V, intermediate tables and indexes, metadata
    registration, the initial load, the four-step propagation script, and
    the PostgreSQL capture-trigger boilerplate for cross-system use.

    Compilation runs the view query through the engine's parser → planner
    → optimizer (the role DuckDB plays in the paper) and applies the
    DBSP-style rewrite as templates over the analyzed shape; the logical
    plan itself is recorded in the metadata. *)

module Ast = Openivm_sql.Ast
module Dialect = Openivm_sql.Dialect
module Pretty = Openivm_sql.Pretty
open Openivm_engine

type t = {
  flags : Flags.t;
  shape : Shape.t;
  view_sql : string;            (** normalized view definition *)
  logical_plan : Plan.t;        (** optimized plan of the view query *)
  ddl : Ast.stmt list;          (** delta tables, V, ΔV, stage, indexes *)
  metadata_ddl : Ast.stmt list;
  metadata_dml : Ast.stmt list;
  initial_load : Ast.stmt;
  script : Propagate.script;
  trigger_sql : (string * string) list;
}

exception Unsupported_view of string

(** The rejection as a coded diagnostic: "IVM007: joins of more than ...".
    [Sema.lint_view] reports the same codes with spans; the exception path
    keeps the string payload for existing callers. *)
let unsupported (d : Openivm_sql.Diagnostic.t) =
  raise
    (Unsupported_view
       (Printf.sprintf "%s: %s" d.Openivm_sql.Diagnostic.code
          d.Openivm_sql.Diagnostic.message))

let delta_table t base =
  Ddl_gen.delta_table_name t.flags ~view:t.shape.Shape.view_name base
let delta_view t = Ddl_gen.delta_view_name t.flags t.shape.Shape.view_name
let base_tables t =
  List.map (fun (b : Shape.table_ref) -> b.Shape.table)
    (Shape.base_tables t.shape)

(** The sources that are themselves maintained materialized views — the
    upstream edges of the cascade DAG. *)
let upstream_views t =
  List.filter_map
    (fun (b : Shape.table_ref) ->
       if b.Shape.from_view then Some b.Shape.table else None)
    (Shape.base_tables t.shape)

let multiplicity_column t = t.flags.Flags.multiplicity_column

(* --- emission helpers --- *)

let stmt_sql t (stmt : Ast.stmt) : string =
  let keys = List.map snd (Shape.group_cols t.shape) in
  Pretty.stmt_to_sql ~upsert_keys:keys t.flags.Flags.dialect stmt

let script_steps t : (string * string) list =
  let s = t.script in
  let block purpose stmts =
    List.map (fun st -> (purpose, stmt_sql t st)) stmts
  in
  block "fill_delta_view" s.Propagate.fill
  @ block "combine" s.Propagate.combine
  @ block "prune" s.Propagate.prune
  @ block "cleanup" s.Propagate.cleanup

(** The complete propagation script as one SQL string (what gets stored on
    disk, paper §2: "We store the SQL scripts that propagate the contents
    of the delta tables ... on the disk"). *)
let propagation_sql t : string =
  String.concat ""
    (List.map (fun (_, sql) -> sql ^ ";\n") (script_steps t))

let setup_sql t : string =
  String.concat ""
    (List.map (fun stmt -> stmt_sql t stmt ^ ";\n")
       (t.ddl @ t.metadata_ddl @ t.metadata_dml @ [ t.initial_load ]))

let full_sql t : string =
  String.concat "\n"
    [ "-- OpenIVM compiled output for view " ^ t.shape.Shape.view_name;
      "-- dialect: " ^ t.flags.Flags.dialect.Dialect.name;
      "-- strategy: " ^ Flags.strategy_to_string t.flags.Flags.strategy;
      "-- query class: "
      ^ Openivm_sql.Analysis.class_to_string t.shape.Shape.klass;
      "";
      "-- === setup (DDL + metadata + initial load) ===";
      setup_sql t;
      "-- === propagation (run per refresh) ===";
      propagation_sql t;
      "-- === cross-system capture triggers (PostgreSQL side) ===";
      String.concat "\n"
        (List.map (fun (_, sql) -> sql) t.trigger_sql) ]

(* --- compilation --- *)

let compile_select ?(flags = Flags.default) (catalog : Catalog.t)
    ~(view_name : string) (query : Ast.select) : t =
  let shape =
    match Shape.analyze_diag catalog ~view_name query with
    | Ok shape -> shape
    | Error d -> unsupported d
  in
  let depends_on =
    List.map (fun (b : Shape.table_ref) -> b.Shape.table)
      (Shape.base_tables shape)
  in
  (match Catalog.mat_cycle catalog ~name:view_name ~depends_on with
   | Some path ->
     unsupported
       (Openivm_sql.Diagnostic.cascade_cycle ~view:view_name ~path ())
   | None -> ());
  (* plan through the engine (parser/planner/optimizer reuse, Figure 1) *)
  let logical_plan =
    Optimizer.optimize catalog (Planner.plan catalog query)
  in
  let view_sql = Pretty.select_to_sql flags.Flags.dialect query in
  let script = Propagate.script flags shape in
  let t0 =
    { flags; shape; view_sql; logical_plan;
      ddl = Ddl_gen.all flags shape;
      metadata_ddl = Metadata.ddl;
      metadata_dml = [];
      initial_load = Propagate.initial_load flags shape;
      script;
      trigger_sql = Trigger_gen.all flags shape }
  in
  let metadata_dml =
    Metadata.register flags shape ~view_sql ~depends_on
      ~logical_plan:(Plan.to_string logical_plan)
      ~scripts:(script_steps t0)
  in
  { t0 with metadata_dml }

(** Compile a [CREATE MATERIALIZED VIEW v AS SELECT ...] statement. *)
let compile ?flags (catalog : Catalog.t) (sql : string) : t =
  match Openivm_sql.Parser.parse_statement sql with
  | Ast.Create_view { view; materialized = true; query } ->
    compile_select ?flags catalog ~view_name:view query
  | Ast.Create_view { materialized = false; _ } ->
    unsupported (Openivm_sql.Diagnostic.not_materialized ())
  | _ -> unsupported (Openivm_sql.Diagnostic.not_a_view ())
