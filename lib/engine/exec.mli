(** Physical execution of logical plans (materialized, operator at a
    time): hash joins for extractable equality keys (including the
    NULL-safe equalities the IVM combine emits), nested loops otherwise,
    hash aggregation, index scans. *)

type result = {
  schema : Schema.t;
  rows : Row.t list;
}

(** The one interpreter there is. Nothing chooses on this type; it stays
    only as long as [Database.exec_engine] does. *)
type engine = Row

val run : Catalog.t -> Plan.t -> result

val compile_expr : Catalog.t -> Schema.t -> Sql.Ast.expr -> Expr.compiled
(** {!Expr.compile} wired to this catalog's subquery resolver. *)
