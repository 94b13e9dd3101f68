(** Abstract syntax for the SQL fragment handled by OpenIVM.

    The fragment is deliberately the one a compiled IVM script needs:
    SELECT with CTEs, joins, grouping and aggregates; CREATE TABLE /
    (MATERIALIZED) VIEW / INDEX; INSERT (incl. OR REPLACE) from VALUES or a
    query; UPDATE; DELETE; DROP; EXPLAIN. *)

type typ =
  | T_int
  | T_float
  | T_text
  | T_bool
  | T_date

type lit =
  | L_null
  | L_int of int
  | L_float of float
  | L_string of string
  | L_bool of bool

type unop =
  | Neg
  | Not

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or
  | Concat

type agg =
  | Sum
  | Count
  | Min
  | Max
  | Avg

type set_op =
  | Union
  | Union_all
  | Except
  | Intersect

type expr =
  | Lit of lit
  | Column of string option * string  (** optional qualifier, column name *)
  | Star                              (** bare star in projections / COUNT *)
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Func of string * expr list        (** scalar function call, name lower-cased *)
  | Aggregate of agg * bool * expr option
      (** aggregate, DISTINCT flag, argument; [None] encodes COUNT star *)
  | Case of (expr * expr) list * expr option
  | Cast of expr * typ
  | In_list of expr * expr list * bool  (** expr, list, negated *)
  | In_select of expr * select * bool
      (** uncorrelated IN (SELECT ...); negated = NOT IN *)
  | Between of expr * expr * expr * bool
  | Is_null of expr * bool            (** negated = IS NOT NULL *)
  | Like of expr * expr * bool

and order_item = { order_expr : expr; descending : bool }

and select = {
  ctes : (string * select) list;
  distinct : bool;
  projections : (expr * string option) list;  (** expression, optional alias *)
  from : from_clause option;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : order_item list;
  limit : int option;
  offset : int option;
  set_operation : (set_op * select) option;
}

and from_clause =
  | Table_ref of string * string option      (** table name, alias *)
  | Subquery of select * string              (** derived table, alias *)
  | Join of from_clause * join_kind * from_clause * expr option

and join_kind =
  | Inner
  | Left_outer
  | Right_outer
  | Full_outer
  | Cross

type column_def = {
  col_name : string;
  col_type : typ;
  col_not_null : bool;
  col_primary_key : bool;
}

type insert_source =
  | Values of expr list list
  | Query of select

type conflict_action =
  | No_conflict_clause
  | Or_replace          (** DuckDB: INSERT OR REPLACE *)
  | Do_nothing          (** ON CONFLICT DO NOTHING *)

type stmt =
  | Select_stmt of select
  | Create_table of {
      table : string;
      columns : column_def list;
      primary_key : string list;   (** table-level PK, may be empty *)
      if_not_exists : bool;
    }
  | Create_view of {
      view : string;
      materialized : bool;
      query : select;
    }
  | Create_index of {
      index : string;
      table : string;
      columns : string list;
      unique : bool;
    }
  | Insert of {
      table : string;
      columns : string list;       (** empty = table order *)
      source : insert_source;
      on_conflict : conflict_action;
    }
  | Update of {
      table : string;
      assignments : (string * expr) list;
      where : expr option;
    }
  | Delete of {
      table : string;
      where : expr option;
    }
  | Drop of {
      kind : [ `Table | `View | `Index ];
      name : string;
      if_exists : bool;
    }
  | Truncate of string
  | Explain of stmt
  | Begin_txn
  | Commit_txn
  | Rollback_txn

let empty_select = {
  ctes = [];
  distinct = false;
  projections = [];
  from = None;
  where = None;
  group_by = [];
  having = None;
  order_by = [];
  limit = None;
  offset = None;
  set_operation = None;
}

let typ_to_string = function
  | T_int -> "INTEGER"
  | T_float -> "DOUBLE"
  | T_text -> "VARCHAR"
  | T_bool -> "BOOLEAN"
  | T_date -> "DATE"

let agg_name = function
  | Sum -> "sum"
  | Count -> "count"
  | Min -> "min"
  | Max -> "max"
  | Avg -> "avg"

(* Structural helpers used across the compiler. *)

let rec expr_contains_aggregate = function
  | Aggregate _ -> true
  | Lit _ | Column _ | Star -> false
  | Unary (_, e) | Cast (e, _) | Is_null (e, _) -> expr_contains_aggregate e
  | Binary (_, a, b) | Like (a, b, _) ->
    expr_contains_aggregate a || expr_contains_aggregate b
  | Func (_, args) -> List.exists expr_contains_aggregate args
  | Case (branches, default) ->
    List.exists
      (fun (c, v) -> expr_contains_aggregate c || expr_contains_aggregate v)
      branches
    || (match default with Some e -> expr_contains_aggregate e | None -> false)
  | In_list (e, es, _) -> List.exists expr_contains_aggregate (e :: es)
  | In_select (e, _, _) -> expr_contains_aggregate e
  | Between (e, lo, hi, _) ->
    List.exists expr_contains_aggregate [ e; lo; hi ]

let select_has_aggregate (s : select) =
  s.group_by <> []
  || List.exists (fun (e, _) -> expr_contains_aggregate e) s.projections
  || (match s.having with Some e -> expr_contains_aggregate e | None -> false)

(** Collect the aggregates of an expression, left to right. *)
let rec collect_aggregates acc = function
  | Aggregate (a, d, arg) as node -> (a, d, arg, node) :: acc
  | Lit _ | Column _ | Star -> acc
  | Unary (_, e) | Cast (e, _) | Is_null (e, _) -> collect_aggregates acc e
  | Binary (_, a, b) | Like (a, b, _) ->
    collect_aggregates (collect_aggregates acc a) b
  | Func (_, args) -> List.fold_left collect_aggregates acc args
  | Case (branches, default) ->
    let acc =
      List.fold_left
        (fun acc (c, v) -> collect_aggregates (collect_aggregates acc c) v)
        acc branches
    in
    (match default with Some e -> collect_aggregates acc e | None -> acc)
  | In_list (e, es, _) -> List.fold_left collect_aggregates acc (e :: es)
  | In_select (e, _, _) -> collect_aggregates acc e
  | Between (e, lo, hi, _) ->
    List.fold_left collect_aggregates acc [ e; lo; hi ]

(** All base-table names referenced by a FROM clause (including CTE names —
    the caller decides how to resolve those). *)
let rec from_tables = function
  | Table_ref (t, _) -> [ t ]
  | Subquery (s, _) -> select_tables s
  | Join (l, _, r, _) -> from_tables l @ from_tables r

and select_tables (s : select) =
  let own = match s.from with Some f -> from_tables f | None -> [] in
  let cte_tables = List.concat_map (fun (_, q) -> select_tables q) s.ctes in
  let set_tables =
    match s.set_operation with
    | Some (_, rhs) -> select_tables rhs
    | None -> []
  in
  cte_tables @ own @ set_tables

let rec map_expr f e =
  let e' =
    match e with
    | Lit _ | Column _ | Star -> e
    | Unary (op, a) -> Unary (op, map_expr f a)
    | Binary (op, a, b) -> Binary (op, map_expr f a, map_expr f b)
    | Func (name, args) -> Func (name, List.map (map_expr f) args)
    | Aggregate (a, d, arg) -> Aggregate (a, d, Option.map (map_expr f) arg)
    | Case (branches, default) ->
      Case
        ( List.map (fun (c, v) -> (map_expr f c, map_expr f v)) branches,
          Option.map (map_expr f) default )
    | Cast (a, t) -> Cast (map_expr f a, t)
    | In_list (a, es, neg) -> In_list (map_expr f a, List.map (map_expr f) es, neg)
    | In_select (a, q, neg) -> In_select (map_expr f a, q, neg)
    | Between (a, lo, hi, neg) ->
      Between (map_expr f a, map_expr f lo, map_expr f hi, neg)
    | Is_null (a, neg) -> Is_null (map_expr f a, neg)
    | Like (a, b, neg) -> Like (map_expr f a, map_expr f b, neg)
  in
  f e'
