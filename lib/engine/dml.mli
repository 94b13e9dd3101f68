(** INSERT / UPDATE / DELETE execution with trigger firing and an index
    fast-path for point updates/deletes whose predicates pin a PK or
    secondary index. *)

type outcome = {
  affected : int;
  change : Trigger.change option;
}

val coerce_to_schema : Schema.t -> Row.t -> Row.t
(** Arity check, NOT NULL enforcement, and type coercion. *)

val candidate_slots : Table.t -> Sql.Ast.expr option -> int list option
(** Slots an index narrows a WHERE clause to (a superset of the matches),
    or [None] when no index applies. *)

val exec_insert :
  ?distinct_hint:bool ->
  Catalog.t -> Trigger.t -> table:string -> columns:string list ->
  source:Sql.Ast.insert_source -> on_conflict:Sql.Ast.conflict_action ->
  outcome
(** [distinct_hint] (default false) forwards to {!Table.insert_many}'s
    [distinct_keys]. *)

val exec_delete :
  Catalog.t -> Trigger.t -> table:string -> where:Sql.Ast.expr option -> outcome

val exec_update :
  Catalog.t -> Trigger.t -> table:string ->
  assignments:(string * Sql.Ast.expr) list -> where:Sql.Ast.expr option ->
  outcome

val exec_truncate : Catalog.t -> Trigger.t -> table:string -> outcome
