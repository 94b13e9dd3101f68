(** Rule-based logical optimizer.

    Rules (applied to fixpoint, bounded):
    - constant folding inside expressions;
    - trivial filter elimination (WHERE TRUE) and annihilation (WHERE FALSE);
    - filter splitting and pushdown through Project, below Join (to the side
      a conjunct references), and into both branches of set operations;
    - projection collapsing (Project over Project when the outer references
      only pass-through columns);
    - cross products with an equality filter on top become inner joins.

    The OpenIVM compiler runs its incremental rewrite as "a final step in
    the optimization" (paper §2); [Openivm.Rewrite] plugs in after these. *)

let try_fold (e : Sql.Ast.expr) : Sql.Ast.expr =
  if Openivm_sql.Analysis.is_constant e then
    match e with
    | Sql.Ast.Lit _ -> e
    | _ ->
      (try
         match Expr.eval_const e with
         | Value.Null -> Sql.Ast.Lit Sql.Ast.L_null
         | Value.Bool b -> Sql.Ast.Lit (Sql.Ast.L_bool b)
         | Value.Int i -> Sql.Ast.Lit (Sql.Ast.L_int i)
         | Value.Float f -> Sql.Ast.Lit (Sql.Ast.L_float f)
         | Value.Str s -> Sql.Ast.Lit (Sql.Ast.L_string s)
         | Value.Date _ -> e (* no date literal in the AST; keep the cast *)
       with Error.Sql_error _ -> e)
  else e

(* [map_expr] rebuilds bottom-up, so one pass folds nested constants. *)
let fold_constants (e : Sql.Ast.expr) : Sql.Ast.expr =
  Sql.Ast.map_expr try_fold e

(** Split a predicate into its top-level conjuncts. *)
let rec conjuncts = function
  | Sql.Ast.Binary (Sql.Ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Sql.Ast.Lit (Sql.Ast.L_bool true)
  | e :: rest ->
    List.fold_left (fun acc c -> Sql.Ast.Binary (Sql.Ast.And, acc, c)) e rest

(** Can every column reference in [e] be resolved against [schema]? *)
let refers_only_to schema (e : Sql.Ast.expr) =
  let cols = Openivm_sql.Analysis.expr_columns [] e in
  List.for_all
    (fun (qualifier, name) ->
       name = "*"
       ||
       match Schema.find_opt schema ~qualifier ~name with
       | Some _ -> true
       | None -> false
       | exception Error.Sql_error _ -> false)
    cols

(** Substitute projection outputs into an expression: rewrite references to
    a Project's output columns by the defining expressions, enabling
    pushdown through Project. Returns None if some reference cannot be
    inlined. *)
let substitute_projection (projections : (Sql.Ast.expr * string) list)
    ~(binding : string option) (e : Sql.Ast.expr) : Sql.Ast.expr option =
  let exception Give_up in
  let resolve qualifier name =
    let qualifier_matches =
      match qualifier, binding with
      | None, _ -> true
      | Some q, Some b -> String.equal q b
      | Some _, None -> false
    in
    if not qualifier_matches then raise Give_up;
    match List.find_opt (fun (_, n) -> String.equal n name) projections with
    | Some (def, _) -> def
    | None -> raise Give_up
  in
  let rec go e =
    match e with
    | Sql.Ast.Column (q, name) when name <> "*" -> resolve q name
    | Sql.Ast.Column _ | Sql.Ast.Star -> raise Give_up
    | Sql.Ast.Lit _ -> e
    | Sql.Ast.Unary (op, a) -> Sql.Ast.Unary (op, go a)
    | Sql.Ast.Binary (op, a, b) -> Sql.Ast.Binary (op, go a, go b)
    | Sql.Ast.Func (n, args) -> Sql.Ast.Func (n, List.map go args)
    | Sql.Ast.Aggregate _ -> raise Give_up
    | Sql.Ast.Case (branches, default) ->
      Sql.Ast.Case
        (List.map (fun (c, v) -> (go c, go v)) branches, Option.map go default)
    | Sql.Ast.Cast (a, t) -> Sql.Ast.Cast (go a, t)
    | Sql.Ast.In_list (a, es, neg) -> Sql.Ast.In_list (go a, List.map go es, neg)
    | Sql.Ast.In_select (a, q, neg) -> Sql.Ast.In_select (go a, q, neg)
    | Sql.Ast.Between (a, lo, hi, neg) ->
      Sql.Ast.Between (go a, go lo, go hi, neg)
    | Sql.Ast.Is_null (a, neg) -> Sql.Ast.Is_null (go a, neg)
    | Sql.Ast.Like (a, b, neg) -> Sql.Ast.Like (go a, go b, neg)
  in
  try Some (go e) with Give_up -> None

let is_true_lit = function Sql.Ast.Lit (Sql.Ast.L_bool true) -> true | _ -> false
let is_false_lit = function
  | Sql.Ast.Lit (Sql.Ast.L_bool false) | Sql.Ast.Lit Sql.Ast.L_null -> true
  | _ -> false

type context = {
  lookup : string -> Schema.t;
  table_of : string -> Table.t;
}

let pinned_index (tbl : Table.t) (schema : Schema.t) (cs : Sql.Ast.expr list) :
  (Table.index option * (Sql.Ast.expr * Sql.Ast.expr) list) option =
  (* pinned columns: position -> (const expr, conjunct) *)
  let pinned = Hashtbl.create 8 in
  List.iter
    (fun c ->
       match c with
       | Sql.Ast.Binary (Sql.Ast.Eq, a, b) ->
         let try_pin col const =
           match col with
           | Sql.Ast.Column (qualifier, name) when name <> "*" ->
             if Openivm_sql.Analysis.is_constant const then begin
               match Schema.find_opt schema ~qualifier ~name with
               | Some (i, _) ->
                 if not (Hashtbl.mem pinned i) then
                   Hashtbl.replace pinned i (const, c)
               | None -> ()
               | exception Error.Sql_error _ -> ()
             end
           | _ -> ()
         in
         try_pin a b;
         try_pin b a
       | _ -> ())
    cs;
  let covers positions =
    Array.length positions > 0 && Array.for_all (Hashtbl.mem pinned) positions
  in
  let pin index positions =
    Some (index, List.map (Hashtbl.find pinned) (Array.to_list positions))
  in
  if covers tbl.Table.primary_key then pin None tbl.Table.primary_key
  else
    List.find_map
      (fun ix ->
         if covers ix.Table.key_positions then pin (Some ix) ix.Table.key_positions
         else None)
      tbl.Table.secondary

(** Replace a scan by an index scan when {!pinned_index} finds an index;
    the conjuncts it did not use stay above. *)
let try_index_scan ctx ~table ~binding (cs : Sql.Ast.expr list) :
  (Plan.t * Sql.Ast.expr list) option =
  let tbl = ctx.table_of table in
  match pinned_index tbl (Schema.requalify tbl.Table.schema binding) cs with
  | None -> None
  | Some (index, pins) ->
    let index_name =
      match index with None -> "" | Some ix -> ix.Table.index_name
    in
    let used = List.map snd pins in
    let leftover = List.filter (fun c -> not (List.memq c used)) cs in
    Some
      ( Plan.Index_scan { table; binding; index_name; key_exprs = List.map fst pins },
        leftover )

let rec rewrite ctx (plan : Plan.t) : Plan.t =
  let plan = Plan.map_children (rewrite ctx) plan in
  match plan with
  | Plan.Filter { input; predicate } ->
    let predicate = fold_constants predicate in
    if is_true_lit predicate then input
    else if is_false_lit predicate then
      Plan.Materialized
        { schema = Plan.schema_of ~lookup:ctx.lookup input;
          rows = [];
          label = "empty" }
    else begin
      let cs =
        List.filter (fun c -> not (is_true_lit c)) (conjuncts predicate)
      in
      if cs = [] then input
      else if List.exists is_false_lit cs then
        Plan.Materialized
          { schema = Plan.schema_of ~lookup:ctx.lookup input;
            rows = [];
            label = "empty" }
      else push_filter ctx input cs
    end
  | Plan.Project { input = Plan.Project inner; projections; binding }
    when inner.binding = None || binding = None ->
    (* collapse Project(Project) when all outer exprs inline *)
    let substituted =
      List.map
        (fun (e, name) ->
           ( substitute_projection inner.projections ~binding:inner.binding e,
             name ))
        projections
    in
    if List.for_all (fun (e, _) -> e <> None) substituted then
      Plan.Project
        { input = inner.input;
          projections =
            List.map (fun (e, name) -> (Option.get e, name)) substituted;
          binding }
    else plan
  | Plan.Join { left; right; kind = Sql.Ast.Cross; condition = None } ->
    Plan.Join { left; right; kind = Sql.Ast.Cross; condition = None }
  | other -> other

(** Push a list of conjuncts down through [input] as far as possible;
    whatever cannot sink stays in a Filter on top. *)
and push_filter ctx (input : Plan.t) (cs : Sql.Ast.expr list) : Plan.t =
  match input with
  | Plan.Filter { input = deeper; predicate } ->
    push_filter ctx deeper (cs @ conjuncts predicate)
  | Plan.Scan { table; binding } ->
    (match try_index_scan ctx ~table ~binding cs with
     | Some (scan, []) -> scan
     | Some (scan, leftover) ->
       Plan.Filter { input = scan; predicate = conjoin leftover }
     | None -> Plan.Filter { input; predicate = conjoin cs })
  | Plan.Project { input = deeper; projections; binding } ->
    let sinkable, stuck =
      List.partition_map
        (fun c ->
           match substitute_projection projections ~binding c with
           | Some c' -> Either.Left c'
           | None -> Either.Right c)
        cs
    in
    let deeper' =
      if sinkable = [] then deeper else push_filter ctx deeper sinkable
    in
    let projected = Plan.Project { input = deeper'; projections; binding } in
    if stuck = [] then projected
    else Plan.Filter { input = projected; predicate = conjoin stuck }
  | Plan.Join { left; right; kind; condition }
    when kind = Sql.Ast.Inner || kind = Sql.Ast.Cross ->
    let ls = Plan.schema_of ~lookup:ctx.lookup left in
    let rs = Plan.schema_of ~lookup:ctx.lookup right in
    let to_left, rest =
      List.partition (fun c -> refers_only_to ls c) cs
    in
    let to_right, stuck = List.partition (fun c -> refers_only_to rs c) rest in
    let left' =
      if to_left = [] then left else push_filter ctx left to_left
    in
    let right' =
      if to_right = [] then right else push_filter ctx right to_right
    in
    (* an equality conjunct spanning both sides upgrades a cross product *)
    let join_conds, still_stuck =
      if kind = Sql.Ast.Cross then
        List.partition
          (fun c ->
             match c with
             | Sql.Ast.Binary (Sql.Ast.Eq, a, b) ->
               (refers_only_to ls a && refers_only_to rs b)
               || (refers_only_to rs a && refers_only_to ls b)
             | _ -> false)
          stuck
      else ([], stuck)
    in
    let kind', condition' =
      if join_conds <> [] then
        ( Sql.Ast.Inner,
          Some
            (match condition with
             | Some c -> conjoin (c :: join_conds)
             | None -> conjoin join_conds) )
      else (kind, condition)
    in
    let joined =
      Plan.Join { left = left'; right = right'; kind = kind'; condition = condition' }
    in
    if still_stuck = [] then joined
    else Plan.Filter { input = joined; predicate = conjoin still_stuck }
  (* note: pushing through set operations would need positional (not
     name-based) rewriting, since the branches' output names differ; the
     rule is omitted *)
  | other -> Plan.Filter { input = other; predicate = conjoin cs }

let optimize (catalog : Catalog.t) (plan : Plan.t) : Plan.t =
  let ctx =
    { lookup = (fun t -> (Catalog.find_table catalog t).Table.schema);
      table_of = Catalog.find_table catalog }
  in
  (* two passes reach a fixpoint for the rule set above on realistic plans *)
  rewrite ctx (rewrite ctx plan)
