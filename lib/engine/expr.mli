(** Scalar expression compilation and evaluation with SQL three-valued
    logic (NULL propagation through arithmetic and comparisons, Kleene
    AND/OR). *)

type compiled = Row.t -> Value.t

val compile :
  ?subquery:(Sql.Ast.select -> Value.t list) ->
  Schema.t ->
  Sql.Ast.expr ->
  compiled
(** Resolve column references against the schema once; the returned closure
    evaluates per row. [subquery] resolves uncorrelated [IN (SELECT ...)]
    subqueries to their first column — the subquery is evaluated once, at
    compile time. Aggregates are rejected (they belong to the Aggregate
    operator). *)

val eval_const : Sql.Ast.expr -> Value.t
(** Evaluate a closed expression (no column references). *)

val is_true : Value.t -> bool
(** WHERE-clause truth: NULL counts as false. *)

val resolves : Schema.t -> Sql.Ast.expr -> bool
(** True when every column reference resolves in the schema (and the
    expression contains no stars or aggregates). *)

val cast_value : Sql.Ast.typ -> Value.t -> Value.t
val scalar_function : string -> Value.t list -> Value.t

val infer_type : Schema.t -> Sql.Ast.expr -> Sql.Ast.typ
(** Best-effort static type, used by the IVM DDL generator. *)
