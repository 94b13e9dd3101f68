(** Propagation-script generation — the four post-processing steps of
    paper §2:

      (1) insertion into ΔV of the tuples resulting from querying ΔT;
      (2) insertion or update in V of the newly-inserted tuples in ΔV;
      (3) deletion of the invalid rows in V;
      (4) deletion from ΔT and ΔV after applying the changes.

    Step 1 is the DBSP rewrite materialized as SQL: linear operators run
    unchanged over the delta; a join expands into the three-join form
      Δ(A ⋈ B) = ΔA ⋈ B  +  A ⋈ ΔB  −  ΔA ⋈ ΔB
    (the minus shows up as a flipped multiplicity because the base tables
    already contain this batch's changes). Step 2's shape depends on the
    chosen combine strategy (see [Flags]). *)

module Ast = Openivm_sql.Ast
open Sqlgen

type plan_kind =
  | Linear          (** grouped/flat, LEFT JOIN + upsert *)
  | Regroup         (** stage := regroup(V UNION ALL signed ΔV), swap *)
  | Outer_merge     (** stage := V FULL JOIN signed ΔV, swap *)
  | Global_linear   (** global aggregate via the stage table *)
  | Rederive        (** delete + recompute affected groups *)
  | Full            (** recompute the whole view (baseline) *)

let kind_to_string = function
  | Linear -> "linear"
  | Regroup -> "regroup"
  | Outer_merge -> "outer_merge"
  | Global_linear -> "global_linear"
  | Rederive -> "rederive"
  | Full -> "full"

(* MIN/MAX are not invertible at all; SUM/AVG over float arguments are
   not invertible *numerically* (retracting a previously added float
   leaves last-bit residue that a full recompute never shows). Both
   classes must rederive affected groups rather than update running
   state in place. *)
let non_invertible (shape : Shape.t) : bool =
  Shape.has_min_max shape || Shape.has_float_sum shape

let plan_kind (flags : Flags.t) (shape : Shape.t) : plan_kind =
  match flags.Flags.strategy with
  | Flags.Full_recompute -> Full
  | Flags.Rederive_affected ->
    if Shape.is_global shape then Full else Rederive
  | Flags.Union_regroup ->
    if non_invertible shape then
      if Shape.is_global shape then Full else Rederive
    else if flags.Flags.paper_compat then
      (* paper-compat has no stage/state columns; fall back to Listing 2 *)
      if Shape.is_global shape then Full else Linear
    else Regroup
  | Flags.Outer_join_merge ->
    if non_invertible shape then
      if Shape.is_global shape then Full else Rederive
    else if flags.Flags.paper_compat then
      if Shape.is_global shape then Full else Linear
    else if Shape.is_global shape then Global_linear
    else Outer_merge
  | Flags.Upsert_linear ->
    if non_invertible shape then
      if Shape.is_global shape then Full else Rederive
    else if Shape.is_global shape then Global_linear
    else Linear

(* --- shared pieces --- *)

let mult_col (flags : Flags.t) = flags.Flags.multiplicity_column

let delta_of flags (shape : Shape.t) name =
  Ddl_gen.delta_table_name flags ~view:shape.Shape.view_name name
let delta_view flags shape = Ddl_gen.delta_view_name flags shape.Shape.view_name

(** Names of delta_V's state columns (everything between the group columns
    and the multiplicity column). *)
let state_column_names (flags : Flags.t) (shape : Shape.t) : string list =
  List.concat_map
    (fun (a : Shape.aggregate_item) ->
       if flags.Flags.paper_compat then [ a.Shape.visible_name ]
       else
         match a.Shape.agg with
         | Ast.Sum | Ast.Avg ->
           [ Option.get a.Shape.sum_state; Option.get a.Shape.nn_state ]
         | Ast.Count | Ast.Min | Ast.Max -> [ a.Shape.visible_name ])
    (Shape.aggregates shape)
  @ if flags.Flags.paper_compat then [] else [ Shape.count_column ]

(** The view table's column list, for explicit INSERT targets. *)
let view_columns (flags : Flags.t) (shape : Shape.t) : string list =
  List.map (fun c -> c.Ast.col_name) (Ddl_gen.view_table_columns flags shape)

(** Partial-state projections computed over a delta source (step 1),
    without the multiplicity column. *)
let partial_projections (flags : Flags.t) (shape : Shape.t) :
  (Ast.expr * string option) list =
  let groups =
    List.filter_map
      (function
        | Shape.Group_col { expr; name; _ } -> Some (proj expr name)
        | Shape.Agg_col _ -> None)
      shape.Shape.columns
  in
  let partials =
    List.concat_map
      (fun (a : Shape.aggregate_item) ->
         if flags.Flags.paper_compat then
           [ proj (Ast.Aggregate (a.Shape.agg, false, a.Shape.arg)) a.Shape.visible_name ]
         else
           match a.Shape.agg, a.Shape.arg with
           | (Ast.Sum | Ast.Avg), Some arg ->
             [ proj (sum_agg arg) (Option.get a.Shape.sum_state);
               proj (count_agg arg) (Option.get a.Shape.nn_state) ]
           | Ast.Count, Some arg -> [ proj (count_agg arg) a.Shape.visible_name ]
           | Ast.Count, None -> [ proj count_star a.Shape.visible_name ]
           | (Ast.Min | Ast.Max), _ ->
             [ proj (Ast.Aggregate (a.Shape.agg, false, a.Shape.arg)) a.Shape.visible_name ]
           | (Ast.Sum | Ast.Avg), None -> assert false)
      (Shape.aggregates shape)
  in
  let counter =
    if flags.Flags.paper_compat then [] else [ proj count_star Shape.count_column ]
  in
  groups @ partials @ counter

(* --- step 1: fill delta_V from delta_T --- *)

(** One INSERT INTO delta_V ... SELECT over a delta source. [from] is the
    FROM clause with the delta substitution applied; [mult_expr] is the
    multiplicity of the produced rows. *)
(* all ON conditions of the source, to be conjoined into WHERE clauses *)
let join_condition (shape : Shape.t) : Ast.expr option =
  match shape.Shape.source with
  | Shape.Single _ -> None
  | Shape.Joined { condition; _ } -> condition

let conjoin_opt (parts : Ast.expr option list) : Ast.expr option =
  match List.filter_map (fun x -> x) parts with
  | [] -> None
  | e :: rest -> Some (List.fold_left and_ e rest)

(* the view's full row predicate: join conditions AND the WHERE clause *)
let source_where ?extra (shape : Shape.t) : Ast.expr option =
  conjoin_opt [ join_condition shape; shape.Shape.where; extra ]

let fill_statement (flags : Flags.t) (shape : Shape.t) ~from ~mult_expr : Ast.stmt =
  let m = mult_col flags in
  let projections = partial_projections flags shape @ [ proj mult_expr m ] in
  let group_keys = List.map fst (Shape.group_cols shape) in
  let grouped = Shape.has_aggregates shape || not flags.Flags.paper_compat in
  let where = source_where shape in
  let q =
    if grouped then
      select projections ~from ?where ~group_by:(group_keys @ [ mult_expr ])
    else select projections ~from ?where
  in
  insert_select (delta_view flags shape) q

(* left-deep cross-join chain; join conditions live in the WHERE clause
   and the engine's optimizer turns the product back into hash joins *)
let cross_chain (items : Ast.from_clause list) : Ast.from_clause =
  match items with
  | [] -> invalid_arg "cross_chain: no tables"
  | first :: rest ->
    List.fold_left (fun acc item -> Ast.Join (acc, Ast.Cross, item, None)) first rest

(** Step 1 over an N-way join: DBSP's inclusion–exclusion expands
    Δ(T1 ⋈ ... ⋈ TN) into 2^N − 1 terms, one per non-empty subset S of
    delta-substituted tables (the others read current state). Because the
    base tables already contain this batch, every term's weight works out
    to the plain product of the subset's delta weights times the
    inclusion–exclusion sign — which in the boolean encoding is simply the
    XOR of the subset's multiplicity columns, for every subset. *)
let fill_statements (flags : Flags.t) (shape : Shape.t) : Ast.stmt list =
  let m = mult_col flags in
  match shape.Shape.source with
  | Shape.Single base ->
    let from = table (delta_of flags shape base.Shape.table) ~alias:base.Shape.binding in
    [ fill_statement flags shape ~from ~mult_expr:(col m) ]
  | Shape.Joined { tables; condition } ->
    let refs = Array.of_list tables in
    let n = Array.length refs in
    (* which tables does a join conjunct touch? (by binding; unqualified
       columns resolve against the unique table that has them) *)
    let tables_of_conjunct c =
      List.filter_map
        (fun (qualifier, name) ->
           match qualifier with
           | Some q ->
             let rec find i =
               if i >= n then None
               else if String.equal refs.(i).Shape.binding q then Some i
               else find (i + 1)
             in
             find 0
           | None ->
             let rec find i =
               if i >= n then None
               else
                 match
                   Openivm_engine.Schema.find_opt refs.(i).Shape.schema
                     ~qualifier:None ~name
                 with
                 | Some _ -> Some i
                 | None -> find (i + 1)
                 | exception Openivm_engine.Error.Sql_error _ -> find (i + 1)
             in
             find 0)
        (Openivm_sql.Analysis.expr_columns [] c)
      |> List.sort_uniq compare
    in
    let edges =
      match condition with
      | None -> []
      | Some c -> List.map tables_of_conjunct (Openivm_engine.Optimizer.conjuncts c)
    in
    let connected chosen candidate =
      List.exists
        (fun touched ->
           List.mem candidate touched
           && List.exists (fun t -> t <> candidate && List.mem t chosen) touched)
        edges
    in
    let terms = ref [] in
    for mask = 1 to (1 lsl n) - 1 do
      (* join order: delta tables first (they are small), then base tables
         greedily by join-graph connectivity, so the compiled SQL executes
         as index nested loops off the deltas *)
      let deltas =
        List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id)
      in
      let bases =
        List.filter (fun i -> mask land (1 lsl i) = 0) (List.init n Fun.id)
      in
      let order = ref deltas in
      let remaining = ref bases in
      while !remaining <> [] do
        let next =
          match List.find_opt (fun i -> connected !order i) !remaining with
          | Some i -> i
          | None -> List.hd !remaining
        in
        order := !order @ [ next ];
        remaining := List.filter (fun i -> i <> next) !remaining
      done;
      let items =
        List.map
          (fun i ->
             let r = refs.(i) in
             if mask land (1 lsl i) <> 0 then
               table (delta_of flags shape r.Shape.table) ~alias:r.Shape.binding
             else table r.Shape.table ~alias:r.Shape.binding)
          !order
      in
      let mults =
        List.filter_map
          (fun i ->
             if mask land (1 lsl i) <> 0 then
               Some (col ~q:refs.(i).Shape.binding m)
             else None)
          (List.init n (fun i -> i))
      in
      let mult_expr =
        match mults with
        | [] -> assert false
        | e :: rest -> List.fold_left neq e rest  (* boolean XOR chain *)
      in
      terms :=
        fill_statement flags shape ~from:(cross_chain items) ~mult_expr
        :: !terms
    done;
    List.rev !terms

(* --- initial load --- *)

let original_from (shape : Shape.t) : Ast.from_clause =
  match shape.Shape.source with
  | Shape.Single base -> table base.Shape.table ~alias:base.Shape.binding
  | Shape.Joined { tables; _ } ->
    cross_chain
      (List.map
         (fun (r : Shape.table_ref) -> table r.Shape.table ~alias:r.Shape.binding)
         tables)

(** Projections recomputing the view's full contents (visible + state) from
    the base tables; used by the initial load, the Rederive recompute and
    the Full baseline. *)
let recompute_projections (flags : Flags.t) (shape : Shape.t) :
  (Ast.expr * string option) list =
  let visible =
    List.map
      (function
        | Shape.Group_col { expr; name; _ } -> proj expr name
        | Shape.Agg_col a ->
          proj (Ast.Aggregate (a.Shape.agg, false, a.Shape.arg)) a.Shape.visible_name)
      shape.Shape.columns
  in
  if flags.Flags.paper_compat then visible
  else begin
    let state =
      List.concat_map
        (fun (a : Shape.aggregate_item) ->
           match a.Shape.agg, a.Shape.arg with
           | (Ast.Sum | Ast.Avg), Some arg ->
             [ proj (Ast.Func ("coalesce", [ sum_agg arg; int_lit 0 ]))
                 (Option.get a.Shape.sum_state);
               proj (count_agg arg) (Option.get a.Shape.nn_state) ]
           | _ -> [])
        (Shape.aggregates shape)
    in
    visible @ state @ [ proj count_star Shape.count_column ]
  end

let recompute_select ?extra_where (flags : Flags.t) (shape : Shape.t) : Ast.select =
  let group_by =
    if Shape.has_aggregates shape then shape.Shape.query.Ast.group_by
    else if flags.Flags.paper_compat then []
    else List.map fst (Shape.group_cols shape)
  in
  let where = source_where ?extra:extra_where shape in
  select (recompute_projections flags shape) ~from:(original_from shape) ?where
    ~group_by

let initial_load (flags : Flags.t) (shape : Shape.t) : Ast.stmt =
  insert_select
    ~columns:(view_columns flags shape)
    shape.Shape.view_name
    (recompute_select flags shape)

(* --- step 2: combine delta_V into V --- *)

(** The signed-sum CTE collapsing delta_V across multiplicities:
    SELECT g..., SUM(CASE WHEN m THEN c ELSE -c END) AS c ... GROUP BY g. *)
let signed_cte (flags : Flags.t) (shape : Shape.t) : Ast.select =
  let m = col (mult_col flags) in
  let groups =
    List.map (fun (_, name) -> proj (col name) name) (Shape.group_cols shape)
  in
  let signed =
    List.map
      (fun c -> proj (signed_sum ~mult:m (col c)) c)
      (state_column_names flags shape)
  in
  select (groups @ signed)
    ~from:(table (delta_view flags shape))
    ~group_by:(List.map (fun (_, name) -> col name) (Shape.group_cols shape))

(** Combined-state expressions with [v] the view binding and [d] the delta
    binding. Returns the expressions for (visible columns in order, hidden
    state columns, group counter). *)
let combine_exprs (shape : Shape.t) ~v ~d =
  let comb name = add (coalesce0 (col ~q:v name)) (coalesce0 (col ~q:d name)) in
  let visible =
    List.map
      (function
        | Shape.Group_col { name; _ } -> proj (col ~q:d name) name
        | Shape.Agg_col a ->
          (match a.Shape.agg with
           | Ast.Count -> proj (comb a.Shape.visible_name) a.Shape.visible_name
           | Ast.Sum ->
             let s' = comb (Option.get a.Shape.sum_state) in
             let nn' = comb (Option.get a.Shape.nn_state) in
             proj (case_when (gt nn' (int_lit 0)) s' null_lit) a.Shape.visible_name
           | Ast.Avg ->
             let s' = comb (Option.get a.Shape.sum_state) in
             let nn' = comb (Option.get a.Shape.nn_state) in
             proj (case_when (gt nn' (int_lit 0)) (div s' nn') null_lit)
               a.Shape.visible_name
           | Ast.Min | Ast.Max ->
             (* unreachable: MIN/MAX routes to Rederive *)
             proj (col ~q:d a.Shape.visible_name) a.Shape.visible_name))
      shape.Shape.columns
  in
  let state =
    List.concat_map
      (fun (a : Shape.aggregate_item) ->
         match a.Shape.agg with
         | Ast.Sum | Ast.Avg ->
           let s = Option.get a.Shape.sum_state in
           let nn = Option.get a.Shape.nn_state in
           [ proj (comb s) s; proj (comb nn) nn ]
         | Ast.Count | Ast.Min | Ast.Max -> [])
      (Shape.aggregates shape)
  in
  let counter = [ proj (comb Shape.count_column) Shape.count_column ] in
  (visible, state, counter)

(** Step 2, Linear: upsert the combined groups. *)
let combine_linear (flags : Flags.t) (shape : Shape.t) : Ast.stmt list =
  let view = shape.Shape.view_name in
  let d = "__ivm_d" in
  let group_names = List.map snd (Shape.group_cols shape) in
  let join_cond =
    conjoin
      (List.map
         (fun name ->
            let veq = col ~q:view name and deq = col ~q:d name in
            if flags.Flags.paper_compat then eq veq deq else nullsafe_eq veq deq)
         group_names)
  in
  if flags.Flags.paper_compat then begin
    (* the Listing-2 shape: signed CTE over the visible aggregate columns,
       outer regrouping SUM, plain equality join. (Listing 2 projects the
       view-side key; we project the delta-side key so new groups keep
       their key — noted as a deliberate fix in DESIGN.md.) *)
    let cte_name = "ivm_cte" in
    let groups = List.map (fun name -> proj (col ~q:d name) name) group_names in
    let aggs =
      List.map
        (fun (a : Shape.aggregate_item) ->
           proj
             (sum_agg
                (add (coalesce0 (col ~q:view a.Shape.visible_name))
                   (col ~q:d a.Shape.visible_name)))
             a.Shape.visible_name)
        (Shape.aggregates shape)
    in
    let q =
      { (select (groups @ aggs)
           ~from:(left_join ~condition:join_cond
                    (table cte_name ~alias:d)
                    (table view))
           ~group_by:(List.map (fun name -> col ~q:d name) group_names))
        with Ast.ctes = [ (cte_name, signed_cte flags shape) ] }
    in
    [ insert_select ~on_conflict:Ast.Or_replace view q ]
  end
  else begin
    let visible, state, counter = combine_exprs shape ~v:view ~d in
    let q =
      { (select (visible @ state @ counter)
           ~from:(left_join ~condition:join_cond
                    (table "__ivm_delta" ~alias:d)
                    (table view)))
        with Ast.ctes = [ ("__ivm_delta", signed_cte flags shape) ] }
    in
    [ insert_select ~columns:(view_columns flags shape) ~on_conflict:Ast.Or_replace
        view q ]
  end

(** Step 2, Global_linear: combine through the stage table. *)
let combine_global (flags : Flags.t) (shape : Shape.t) : Ast.stmt list =
  let view = shape.Shape.view_name in
  let stage = Shape.stage_table shape in
  let d = "__ivm_d" in
  let visible, state, counter = combine_exprs shape ~v:view ~d in
  let q =
    select (visible @ state @ counter)
      ~from:
        (Ast.Join
           ( table view,
             Ast.Cross,
             Ast.Subquery (signed_cte flags shape, d),
             None ))
  in
  [ insert_select ~columns:(view_columns flags shape) stage q;
    delete view;
    insert_select view (select [ (Ast.Star, None) ] ~from:(table stage));
    delete stage ]

(** Step 2, Regroup: rebuild the whole view as
    regroup(V UNION ALL signed(ΔV)) through the stage table — the paper's
    "replacing the materialized table with a UNION and regrouping". *)
let combine_regroup (flags : Flags.t) (shape : Shape.t) : Ast.stmt list =
  let view = shape.Shape.view_name in
  let stage = Shape.stage_table shape in
  let u = "__ivm_u" in
  let m = col (mult_col flags) in
  let group_names = List.map snd (Shape.group_cols shape) in
  let state_names = state_column_names flags shape in
  (* arm 1: the current view contents (state columns as stored) *)
  let view_arm =
    select
      (List.map (fun name -> proj (col name) name) (group_names @ state_names))
      ~from:(table view)
  in
  (* arm 2: the delta, sign-applied per row *)
  let delta_arm =
    select
      (List.map (fun name -> proj (col name) name) group_names
       @ List.map
         (fun name -> proj (case_when m (col name) (neg (col name))) name)
         state_names)
      ~from:(table (delta_view flags shape))
  in
  let union_q = { view_arm with Ast.set_operation = Some (Ast.Union_all, delta_arm) } in
  (* outer regroup: SUM every state column, rederive the visible ones *)
  let s name = sum_agg (col ~q:u name) in
  let visible =
    List.map
      (function
        | Shape.Group_col { name; _ } -> proj (col ~q:u name) name
        | Shape.Agg_col a ->
          (match a.Shape.agg with
           | Ast.Count -> proj (s a.Shape.visible_name) a.Shape.visible_name
           | Ast.Sum ->
             let s' = s (Option.get a.Shape.sum_state) in
             let nn' = s (Option.get a.Shape.nn_state) in
             proj (case_when (gt nn' (int_lit 0)) s' null_lit) a.Shape.visible_name
           | Ast.Avg ->
             let s' = s (Option.get a.Shape.sum_state) in
             let nn' = s (Option.get a.Shape.nn_state) in
             proj (case_when (gt nn' (int_lit 0)) (div s' nn') null_lit)
               a.Shape.visible_name
           | Ast.Min | Ast.Max ->
             (* unreachable: MIN/MAX routes to Rederive *)
             proj (col ~q:u a.Shape.visible_name) a.Shape.visible_name))
      shape.Shape.columns
  in
  let state =
    List.concat_map
      (fun (a : Shape.aggregate_item) ->
         match a.Shape.agg with
         | Ast.Sum | Ast.Avg ->
           let ssum = Option.get a.Shape.sum_state in
           let nn = Option.get a.Shape.nn_state in
           [ proj (s ssum) ssum; proj (s nn) nn ]
         | Ast.Count | Ast.Min | Ast.Max -> [])
      (Shape.aggregates shape)
  in
  let counter = [ proj (s Shape.count_column) Shape.count_column ] in
  let regroup =
    { (select (visible @ state @ counter)
         ~from:(Ast.Subquery (union_q, u))
         ~group_by:(List.map (fun name -> col ~q:u name) group_names))
      with
      Ast.having =
        (* drop emptied groups here instead of a prune step; a global
           aggregate keeps its single row *)
        (if Shape.is_global shape then None
         else Some (gt (sum_agg (col ~q:u Shape.count_column)) (int_lit 0))) }
  in
  [ insert_select ~columns:(view_columns flags shape) stage regroup;
    delete view;
    insert_select view (select [ (Ast.Star, None) ] ~from:(table stage));
    delete stage ]

(** Step 2, Outer_merge: stage := V FULL JOIN signed(ΔV) with coalesced
    combination, then swap — the paper's "through a full-outer-join". *)
let combine_outer_merge (flags : Flags.t) (shape : Shape.t) : Ast.stmt list =
  let view = shape.Shape.view_name in
  let stage = Shape.stage_table shape in
  let d = "__ivm_d" in
  let group_names = List.map snd (Shape.group_cols shape) in
  let join_cond =
    conjoin
      (List.map
         (fun name -> nullsafe_eq (col ~q:view name) (col ~q:d name))
         group_names)
  in
  (* which side is present? the signed CTE's count is never NULL, and a
     view row's count is never NULL either *)
  let d_present = Ast.Is_null (col ~q:d Shape.count_column, true) in
  let v_present = Ast.Is_null (col ~q:view Shape.count_column, true) in
  let comb name = add (coalesce0 (col ~q:view name)) (coalesce0 (col ~q:d name)) in
  let visible =
    List.map
      (function
        | Shape.Group_col { name; _ } ->
          (* NULL group keys are legitimate values: pick the side that is
             actually present instead of coalescing the key itself *)
          proj (case_when d_present (col ~q:d name) (col ~q:view name)) name
        | Shape.Agg_col a ->
          (match a.Shape.agg with
           | Ast.Count -> proj (comb a.Shape.visible_name) a.Shape.visible_name
           | Ast.Sum ->
             let s' = comb (Option.get a.Shape.sum_state) in
             let nn' = comb (Option.get a.Shape.nn_state) in
             proj (case_when (gt nn' (int_lit 0)) s' null_lit) a.Shape.visible_name
           | Ast.Avg ->
             let s' = comb (Option.get a.Shape.sum_state) in
             let nn' = comb (Option.get a.Shape.nn_state) in
             proj (case_when (gt nn' (int_lit 0)) (div s' nn') null_lit)
               a.Shape.visible_name
           | Ast.Min | Ast.Max ->
             proj (col ~q:d a.Shape.visible_name) a.Shape.visible_name))
      shape.Shape.columns
  in
  let state =
    List.concat_map
      (fun (a : Shape.aggregate_item) ->
         match a.Shape.agg with
         | Ast.Sum | Ast.Avg ->
           let ssum = Option.get a.Shape.sum_state in
           let nn = Option.get a.Shape.nn_state in
           [ proj (comb ssum) ssum; proj (comb nn) nn ]
         | Ast.Count | Ast.Min | Ast.Max -> [])
      (Shape.aggregates shape)
  in
  let counter = [ proj (comb Shape.count_column) Shape.count_column ] in
  let q =
    { (select (visible @ state @ counter)
         ~from:
           (Ast.Join
              ( table view,
                Ast.Full_outer,
                Ast.Table_ref ("__ivm_delta", Some d),
                Some join_cond ))
         ~where:
           (* keep groups that remain non-empty; rows missing on the delta
              side kept as-is, rows missing on the view side are new *)
           (and_ (or_ d_present v_present)
              (gt (comb Shape.count_column) (int_lit 0))))
      with Ast.ctes = [ ("__ivm_delta", signed_cte flags shape) ] }
  in
  [ insert_select ~columns:(view_columns flags shape) stage q;
    delete view;
    insert_select view (select [ (Ast.Star, None) ] ~from:(table stage));
    delete stage ]

(** Tuple key expression for multi-column affected-group membership:
    COALESCE(CAST(k AS VARCHAR), marker) || sep || ... *)
let tuple_key (exprs : Ast.expr list) : Ast.expr =
  let piece e =
    Ast.Func
      ("coalesce", [ Ast.Cast (e, Ast.T_text); str_lit Shape.null_marker ])
  in
  match exprs with
  | [] -> invalid_arg "tuple_key: no key columns"
  | [ e ] -> piece e
  | e :: rest ->
    List.fold_left
      (fun acc x -> concat (concat acc (str_lit Shape.key_separator)) (piece x))
      (piece e) rest

(** Step 2, Rederive: drop affected groups, recompute them from base. *)
let combine_rederive (flags : Flags.t) (shape : Shape.t) : Ast.stmt list =
  let view = shape.Shape.view_name in
  let dv = delta_view flags shape in
  let group_names = List.map snd (Shape.group_cols shape) in
  let affected_keys =
    select [ (tuple_key (List.map (fun n -> col n) group_names), None) ]
      ~from:(table dv)
  in
  let in_affected key_exprs =
    Ast.In_select (tuple_key key_exprs, affected_keys, false)
  in
  let delete_affected =
    delete view ~where:(in_affected (List.map (fun n -> col n) group_names))
  in
  let recompute =
    insert_select
      ~columns:(view_columns flags shape)
      view
      (recompute_select flags shape
         ~extra_where:(in_affected (List.map fst (Shape.group_cols shape))))
  in
  [ delete_affected; recompute ]

(** Step 2, Full: the non-incremental baseline. *)
let combine_full (flags : Flags.t) (shape : Shape.t) : Ast.stmt list =
  [ delete shape.Shape.view_name;
    insert_select
      ~columns:(view_columns flags shape)
      shape.Shape.view_name
      (recompute_select flags shape) ]

(* --- step 3: prune invalid rows --- *)

let prune (flags : Flags.t) (shape : Shape.t) (kind : plan_kind) : Ast.stmt list =
  match kind with
  | Rederive | Full -> []  (* recomputation never leaves stale rows *)
  | Regroup -> []          (* emptied groups drop in the regroup's HAVING *)
  | Outer_merge -> []      (* emptied groups drop in the merge's WHERE *)
  | Global_linear -> []    (* a global aggregate always keeps its one row *)
  | Linear ->
    if flags.Flags.paper_compat then begin
      (* the demo's simplification: delete when the (first) aggregate hits
         zero — "DELETE FROM query_groups WHERE total_value = 0" *)
      match Shape.aggregates shape with
      | a :: _ ->
        [ delete shape.Shape.view_name
            ~where:(eq (col a.Shape.visible_name) (int_lit 0)) ]
      | [] -> []
    end
    else
      [ delete shape.Shape.view_name
          ~where:(le (col Shape.count_column) (int_lit 0)) ]

(* --- step 4: cleanup --- *)

let cleanup (flags : Flags.t) (shape : Shape.t) : Ast.stmt list =
  delete (delta_view flags shape)
  :: List.map
    (fun (b : Shape.table_ref) -> delete (delta_of flags shape b.Shape.table))
    (Shape.base_tables shape)

(* --- assembled script --- *)

type script = {
  kind : plan_kind;
  fill : Ast.stmt list;
  combine : Ast.stmt list;
  prune : Ast.stmt list;
  cleanup : Ast.stmt list;
}

let script (flags : Flags.t) (shape : Shape.t) : script =
  let kind = plan_kind flags shape in
  let fill =
    match kind with
    | Full -> []  (* the baseline reads the base tables directly *)
    | Linear | Regroup | Outer_merge | Global_linear | Rederive ->
      fill_statements flags shape
  in
  let combine =
    match kind with
    | Linear -> combine_linear flags shape
    | Regroup -> combine_regroup flags shape
    | Outer_merge -> combine_outer_merge flags shape
    | Global_linear -> combine_global flags shape
    | Rederive -> combine_rederive flags shape
    | Full -> combine_full flags shape
  in
  { kind; fill; combine; prune = prune flags shape kind;
    cleanup = cleanup flags shape }

let all_statements (s : script) : Ast.stmt list =
  s.fill @ s.combine @ s.prune @ s.cleanup

(** The (target, query) of a plain positional [INSERT INTO t SELECT ...] —
    the shape shared by every fill statement and by the stage-filling
    statement of the swap strategies. The runner reads a fill term's
    source tables through it to prune terms over empty deltas. *)
let insert_select_parts : Ast.stmt -> (string * Ast.select) option = function
  | Ast.Insert
      { table; source = Ast.Query q; on_conflict = Ast.No_conflict_clause; _ }
    -> Some (table, q)
  | _ -> None
