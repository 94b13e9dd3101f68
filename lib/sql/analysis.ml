(** Static analysis over the SQL AST: query classification and column
    reference collection. Used by the IVM rewriter to decide which
    propagation template applies. *)

(** Why a view definition falls outside the supported IVM classes. Each
    constructor maps to one stable diagnostic code (see {!Diagnostic}). *)
type rejection =
  | Cte
  | Set_operation
  | Distinct
  | Limit_offset
  | No_from
  | Derived_table
  | Too_many_tables of int  (** actual base-table count *)

(** Query shape classification, mirroring the paper's supported classes. *)
type query_class =
  | Projection        (** SELECT cols FROM t [WHERE ...] — no aggregation *)
  | Filter            (** like Projection but with a WHERE clause *)
  | Group_aggregate   (** GROUP BY + aggregates (or global aggregates) *)
  | Join_flat         (** two-table join, no aggregation *)
  | Join_aggregate    (** two-table join under GROUP BY + aggregates *)
  | Unsupported of rejection

let max_join_tables = 4

let rejection_to_string = function
  | Cte -> "CTE in view definition"
  | Set_operation -> "set operation in view definition"
  | Distinct -> "DISTINCT in view definition"
  | Limit_offset -> "LIMIT in view definition"
  | No_from -> "view without FROM clause"
  | Derived_table -> "derived table in view definition"
  | Too_many_tables _ ->
    Printf.sprintf "more than %d base tables" max_join_tables

let class_to_string = function
  | Projection -> "projection"
  | Filter -> "filter"
  | Group_aggregate -> "group_aggregate"
  | Join_flat -> "join"
  | Join_aggregate -> "join_aggregate"
  | Unsupported reason -> "unsupported: " ^ rejection_to_string reason

(** Number of base tables under a FROM clause; [None] when it contains a
    derived table (out of scope for IVM). *)
let rec count_base_tables = function
  | Ast.Table_ref _ -> Some 1
  | Ast.Subquery _ -> None
  | Ast.Join (l, _, r, _) ->
    (match count_base_tables l, count_base_tables r with
     | Some a, Some b -> Some (a + b)
     | _ -> None)

let classify (s : Ast.select) : query_class =
  if s.ctes <> [] then Unsupported Cte
  else if s.set_operation <> None then Unsupported Set_operation
  else if s.distinct then Unsupported Distinct
  else if s.limit <> None || s.offset <> None then Unsupported Limit_offset
  else
    match s.from with
    | None -> Unsupported No_from
    | Some f ->
      let aggregated = Ast.select_has_aggregate s in
      (match count_base_tables f with
       | None -> Unsupported Derived_table
       | Some 1 ->
         if aggregated then Group_aggregate
         else if s.where <> None then Filter
         else Projection
       | Some tables when tables <= max_join_tables ->
         if aggregated then Join_aggregate else Join_flat
       | Some tables -> Unsupported (Too_many_tables tables))

(** Column references of an expression, as (qualifier option, name) pairs. *)
let rec expr_columns acc = function
  | Ast.Column (q, c) -> (q, c) :: acc
  | Ast.Lit _ | Ast.Star -> acc
  | Ast.Unary (_, e) | Ast.Cast (e, _) | Ast.Is_null (e, _) -> expr_columns acc e
  | Ast.Binary (_, a, b) | Ast.Like (a, b, _) ->
    expr_columns (expr_columns acc a) b
  | Ast.Func (_, args) -> List.fold_left expr_columns acc args
  | Ast.Aggregate (_, _, arg) ->
    (match arg with Some e -> expr_columns acc e | None -> acc)
  | Ast.Case (branches, default) ->
    let acc =
      List.fold_left
        (fun acc (c, v) -> expr_columns (expr_columns acc c) v)
        acc branches
    in
    (match default with Some e -> expr_columns acc e | None -> acc)
  | Ast.In_list (e, es, _) -> List.fold_left expr_columns acc (e :: es)
  | Ast.In_select (e, _, _) ->
    (* the subquery is a separate (uncorrelated) scope *)
    expr_columns acc e
  | Ast.Between (e, lo, hi, _) -> List.fold_left expr_columns acc [ e; lo; hi ]

(** The output column name of projection [i]: explicit alias, else a bare
    column name, else a synthesized [colN] name. Aggregates without alias
    get the aggregate name. *)
let projection_name i (e, alias) =
  match alias with
  | Some a -> a
  | None ->
    (match e with
     | Ast.Column (_, c) when c <> "*" -> c
     | Ast.Aggregate (agg, _, _) -> Ast.agg_name agg
     | _ -> Printf.sprintf "col%d" i)

let output_names (s : Ast.select) =
  List.mapi projection_name s.projections

(** First name that appears more than once, if any. Shared by the binder
    (coded diagnostic with a span) and [Shape.analyze] (hard rejection). *)
let duplicate_name (names : string list) : string option =
  let sorted = List.sort String.compare names in
  let rec dup = function
    | a :: (b :: _ as rest) -> if String.equal a b then Some a else dup rest
    | _ -> None
  in
  dup sorted

(** True when the expression is deterministic and references no columns
    (safe to constant-fold). Function calls fold only when the function is
    in the {!Funcs} registry — implemented by the engine and deterministic. *)
let rec is_constant = function
  | Ast.Lit _ -> true
  | Ast.Column _ | Ast.Star | Ast.Aggregate _ -> false
  | Ast.Unary (_, e) | Ast.Cast (e, _) | Ast.Is_null (e, _) -> is_constant e
  | Ast.Binary (_, a, b) | Ast.Like (a, b, _) -> is_constant a && is_constant b
  | Ast.Func (name, args) ->
    Funcs.is_foldable name && List.for_all is_constant args
  | Ast.Case (branches, default) ->
    List.for_all (fun (c, v) -> is_constant c && is_constant v) branches
    && (match default with Some e -> is_constant e | None -> true)
  | Ast.In_list (e, es, _) -> List.for_all is_constant (e :: es)
  | Ast.In_select _ -> false
  | Ast.Between (e, lo, hi, _) -> List.for_all is_constant [ e; lo; hi ]
