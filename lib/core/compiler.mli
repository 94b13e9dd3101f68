(** The OpenIVM SQL-to-SQL compiler (public API).

    [compile] takes a catalog (for base-table schemas) and a
    [CREATE MATERIALIZED VIEW] statement and produces every SQL artifact of
    paper §2: delta-table DDL, the backing table for V with its hidden
    bookkeeping columns, intermediate tables and indexes, metadata
    registration, the initial load, the four-step propagation script, and
    PostgreSQL capture-trigger boilerplate for cross-system deployments.
    Use {!Runner} to install the result into a live engine. *)

module Ast = Openivm_sql.Ast
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
  trigger_sql : (string * string) list;  (** per base table *)
}

exception Unsupported_view of string

val compile : ?flags:Flags.t -> Catalog.t -> string -> t
(** Compile a [CREATE MATERIALIZED VIEW name AS SELECT ...] statement.
    Raises {!Unsupported_view} with a reason for queries outside the
    supported classes. *)

val compile_select :
  ?flags:Flags.t -> Catalog.t -> view_name:string -> Ast.select -> t

val delta_table : t -> string -> string
(** Name of the delta capture table for a base table. *)

val delta_view : t -> string
(** Name of the ΔV table. *)

val base_tables : t -> string list

val upstream_views : t -> string list
(** The subset of {!base_tables} that are maintained materialized views —
    the upstream edges of the cascade DAG. *)

val multiplicity_column : t -> string

val stmt_sql : t -> Ast.stmt -> string
(** Emit one statement in the compiled dialect (upsert keys supplied). *)

val script_steps : t -> (string * string) list
(** The propagation script as (purpose, SQL) pairs, in execution order. *)

val propagation_sql : t -> string
(** The full propagation script as SQL text — what the paper stores on
    disk for later inspection. *)

val setup_sql : t -> string
(** DDL + metadata + initial load as SQL text. *)

val full_sql : t -> string
(** Complete annotated compiler output (setup, propagation, triggers). *)
