(** Rule-based logical optimizer: constant folding, trivial-filter
    elimination/annihilation, filter splitting and pushdown (through
    Project, to join sides), cross-product-to-join upgrade, projection
    collapsing, and index-scan selection for fully pinned PK/secondary
    keys. The OpenIVM rewrite runs as templates over the analyzed view
    shape after these (paper §2: "as a final step in the optimization"). *)

val fold_constants : Sql.Ast.expr -> Sql.Ast.expr

val conjuncts : Sql.Ast.expr -> Sql.Ast.expr list
(** Top-level AND-conjuncts. *)

val conjoin : Sql.Ast.expr list -> Sql.Ast.expr
(** [conjoin []] is [TRUE]. *)

val pinned_index :
  Table.t -> Schema.t -> Sql.Ast.expr list ->
  (Table.index option * (Sql.Ast.expr * Sql.Ast.expr) list) option
(** The one index choice of queries and DML. Given conjuncts over
    [schema] (the table's, possibly requalified): the index each of whose
    key columns a [col = const] conjunct pins, the primary key ([None])
    first, else the first such secondary index; and per key column, in
    key order, the constant and the conjunct it comes from. *)

val optimize : Catalog.t -> Plan.t -> Plan.t
