(** Static analysis over the SQL AST: query classification and column
    reference collection, used by the IVM rewriter to pick a propagation
    template. *)

type rejection =
  | Cte
  | Set_operation
  | Distinct
  | Limit_offset
  | No_from
  | Derived_table
  | Too_many_tables of int  (** actual base-table count *)
(** Why a view definition falls outside the supported classes; each
    constructor maps to one stable diagnostic code. *)

type query_class =
  | Projection        (** single table, no WHERE, no aggregation *)
  | Filter            (** single table with a WHERE clause *)
  | Group_aggregate   (** GROUP BY + aggregates, or global aggregates *)
  | Join_flat         (** two-table join, no aggregation *)
  | Join_aggregate    (** two-table join under aggregation *)
  | Unsupported of rejection

val max_join_tables : int

val rejection_to_string : rejection -> string
val class_to_string : query_class -> string

val classify : Ast.select -> query_class
(** Classify a view-defining query against the supported IVM classes. *)

val count_base_tables : Ast.from_clause -> int option
(** Number of base tables under a FROM clause; [None] when it contains a
    derived table. *)

val expr_columns :
  (string option * string) list -> Ast.expr -> (string option * string) list
(** Prepend the column references of an expression, as
    [(qualifier, name)] pairs. Subquery scopes are not entered. *)

val projection_name : int -> Ast.expr * string option -> string
(** Output name of projection [i]: the explicit alias, a bare column's
    name, the aggregate's name, or a synthesized [colN]. *)

val output_names : Ast.select -> string list

val duplicate_name : string list -> string option
(** First name that appears more than once, if any. *)

val is_constant : Ast.expr -> bool
(** True when the expression references no columns and is deterministic
    (safe to constant-fold). Functions fold only when the {!Funcs}
    registry marks them implemented and deterministic. *)
