(** INSERT / UPDATE / DELETE execution with trigger firing. UPDATE and
    DELETE collect their target rows once, through {!Table.probe} when
    {!Optimizer.pinned_index} finds an index their WHERE clause pins, else
    by a scan; then DELETE tombstones each slot ({!Table.delete_slot}) and
    UPDATE overwrites it in place ({!Table.overwrite_slot}). *)

type outcome = {
  affected : int;
  change : Trigger.change option;
}

val exec_insert :
  ?distinct_hint:bool ->
  Catalog.t -> Trigger.t -> table:string -> columns:string list ->
  source:Sql.Ast.insert_source -> on_conflict:Sql.Ast.conflict_action ->
  outcome
(** [distinct_hint] (default false) forwards to {!Table.insert_many}'s
    [distinct_keys]. [INSERT OR REPLACE] replaces only the row holding
    the new row's primary key, and fails on a UNIQUE secondary conflict;
    [ON CONFLICT DO NOTHING] skips a row with either conflict. *)

val exec_delete :
  Catalog.t -> Trigger.t -> table:string -> where:Sql.Ast.expr option -> outcome

val exec_update :
  Catalog.t -> Trigger.t -> table:string ->
  assignments:(string * Sql.Ast.expr) list -> where:Sql.Ast.expr option ->
  outcome
(** Raises {!Error.Sql_error} when [assignments] name a column twice, as
    PostgreSQL does. *)

val exec_truncate : Catalog.t -> Trigger.t -> table:string -> outcome
