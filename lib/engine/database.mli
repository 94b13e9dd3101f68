(** The Minidb façade: a catalog plus trigger registry behind a SQL
    interface — the stock-engine role DuckDB plays in the paper, and (in a
    second instance, with per-statement latency) the PostgreSQL role. *)

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
  mutable statement_latency : float;
  mutable exec_engine : Exec.engine;
      (** A vestige nothing reads: every SELECT and INSERT..SELECT plan runs
          on the row interpreter ({!Exec.run}). It stays only because
          [perfbench/gate.ml] still assigns it; remove it together with
          {!Exec.engine} once that line goes. *)
  mutable bulk_distinct_hint : bool;
      (** Set while running compiler-generated propagation SQL, whose bulk
          inserts into empty keyed tables are GROUP BY outputs: forwards
          [distinct_keys] to {!Table.insert_many}. *)
  journal : Table.journal;
      (** the undo journal every table of this database records into *)
}

type query_result = {
  schema : Schema.t;
  rows : Row.t list;
}

type exec_result =
  | Rows of query_result
  | Affected of int
  | Ok_msg of string

val create : ?name:string -> unit -> t

val catalog : t -> Catalog.t
val triggers : t -> Trigger.t
val profile : t -> profile
val reset_profile : t -> unit

val set_statement_latency : t -> float -> unit
(** Artificial per-statement latency in seconds, modelling a client/server
    round trip (0 for an embedded engine). *)

val plan_select : t -> Sql.Ast.select -> Plan.t
(** Parse-tree to (optimized) logical plan, without executing. *)

val run_select : t -> Sql.Ast.select -> query_result

val exec_stmt : t -> Sql.Ast.stmt -> exec_result
val exec : t -> string -> exec_result
val exec_script : t -> string -> exec_result list

val atomically : t -> (unit -> 'a) -> 'a
(** Run [f] as one all-or-nothing unit. If [f] raises, every table
    mutation it made is reverted through the undo journal (PK and
    secondary indexes included), deferred trigger callbacks are
    discarded, and the exception is re-raised. The cost is the size of
    [f]'s own change, not of the tables it touched. A nested call acts as
    a savepoint: its failure reverts only what ran inside it. Catalog
    changes (CREATE/DROP) are not reverted. *)

val query : t -> string -> query_result
(** Run a SELECT; raises {!Error.Sql_error} if the statement is not one. *)

val query_scalar : t -> string -> Value.t
(** First column of the first row, [Null] if empty. *)

val query_int : t -> string -> int

val render_result : query_result -> string
(** Boxed table rendering, shell-style. *)
