(** Physical execution of logical plans (materialized, operator at a time).

    Joins with extractable equality conjuncts run as hash joins; the rest
    fall back to nested loops. Aggregation is hash-based. The executor is
    deliberately simple — the reproduction's claims are about *relative*
    costs (incremental vs full recomputation on the same engine), which a
    uniform execution model preserves. *)

type result = {
  schema : Schema.t;
  rows : Row.t list;
}

(* The one interpreter there is. Nothing chooses on this type; it stays
   only as long as [Database.exec_engine] does. *)
type engine = Row

let lookup_of catalog table = (Catalog.find_table catalog table).Table.schema

(* --- aggregate accumulators --- *)

type agg_state =
  | Count_st of int ref
  | Sum_st of { mutable sum_int : int; mutable sum_float : float;
                mutable float_mode : bool; mutable saw : bool }
  | Extremum_st of { is_min : bool; mutable cur : Value.t }
  | Avg_st of { mutable sum_int : int; mutable sum_float : float;
                mutable float_mode : bool; mutable n : int }
      (** like [Sum_st]: integer inputs accumulate exactly and round once
          at the final division (DuckDB's large-int AVG semantics and the
          IVM path's hidden SUM/COUNT state both do the same); a float
          accumulator would round on every addition *)

let make_state (agg : Sql.Ast.agg) : agg_state =
  match agg with
  | Sql.Ast.Count -> Count_st (ref 0)
  | Sql.Ast.Sum ->
    Sum_st { sum_int = 0; sum_float = 0.0; float_mode = false; saw = false }
  | Sql.Ast.Min -> Extremum_st { is_min = true; cur = Value.Null }
  | Sql.Ast.Max -> Extremum_st { is_min = false; cur = Value.Null }
  | Sql.Ast.Avg ->
    Avg_st { sum_int = 0; sum_float = 0.0; float_mode = false; n = 0 }

let update_state st (v : Value.t option) =
  (* [None] argument = COUNT star (count the row regardless) *)
  match st, v with
  | Count_st n, None -> incr n
  | Count_st n, Some v -> if not (Value.is_null v) then incr n
  | Sum_st s, Some v ->
    (match v with
     | Value.Null -> ()
     | Value.Int i ->
       s.saw <- true;
       if s.float_mode then s.sum_float <- s.sum_float +. float_of_int i
       else s.sum_int <- s.sum_int + i
     | Value.Float f ->
       s.saw <- true;
       if not s.float_mode then begin
         s.float_mode <- true;
         s.sum_float <- float_of_int s.sum_int
       end;
       s.sum_float <- s.sum_float +. f
     | _ -> Error.fail "SUM over non-numeric value %s" (Value.to_string v))
  | Extremum_st e, Some v ->
    if not (Value.is_null v) then
      if Value.is_null e.cur then e.cur <- v
      else
        let c = Value.compare v e.cur in
        if (e.is_min && c < 0) || ((not e.is_min) && c > 0) then e.cur <- v
  | Avg_st a, Some v ->
    (match v with
     | Value.Null -> ()
     | Value.Int i ->
       a.n <- a.n + 1;
       if a.float_mode then a.sum_float <- a.sum_float +. float_of_int i
       else a.sum_int <- a.sum_int + i
     | Value.Float f ->
       a.n <- a.n + 1;
       if not a.float_mode then begin
         a.float_mode <- true;
         a.sum_float <- float_of_int a.sum_int
       end;
       a.sum_float <- a.sum_float +. f
     | _ -> Error.fail "AVG over non-numeric value %s" (Value.to_string v))
  | (Sum_st _ | Extremum_st _ | Avg_st _), None ->
    Error.fail "only COUNT accepts *"

let finalize_state = function
  | Count_st n -> Value.Int !n
  | Sum_st s ->
    if not s.saw then Value.Null
    else if s.float_mode then Value.Float s.sum_float
    else Value.Int s.sum_int
  | Extremum_st e -> e.cur
  | Avg_st a ->
    if a.n = 0 then Value.Null
    else
      let total =
        if a.float_mode then a.sum_float else float_of_int a.sum_int
      in
      Value.Float (total /. float_of_int a.n)

(* --- join support --- *)

(** A join hash key: left expression, right expression, and whether the
    equality is NULL-safe (NULL matches NULL), as produced by the IVM
    combine step's [a = b OR (a IS NULL AND b IS NULL)] condition. *)
type join_key = {
  left_expr : Sql.Ast.expr;
  right_expr : Sql.Ast.expr;
  nullsafe : bool;
}

(** Split an ON condition into hash keys plus residual conjuncts. *)
let split_join_condition ls rs condition =
  match condition with
  | None -> ([], [])
  | Some c ->
    let refers schema e =
      let cols = Openivm_sql.Analysis.expr_columns [] e in
      cols <> []
      && List.for_all
        (fun (qualifier, name) ->
           match Schema.find_opt schema ~qualifier ~name with
           | Some _ -> true
           | None -> false
           | exception Error.Sql_error _ -> false)
        cols
    in
    let as_key ~nullsafe a b =
      if refers ls a && refers rs b then
        Some { left_expr = a; right_expr = b; nullsafe }
      else if refers rs a && refers ls b then
        Some { left_expr = b; right_expr = a; nullsafe }
      else None
    in
    List.fold_left
      (fun (keys, residual) conjunct ->
         match conjunct with
         | Sql.Ast.Binary (Sql.Ast.Eq, a, b) ->
           (match as_key ~nullsafe:false a b with
            | Some k -> (k :: keys, residual)
            | None -> (keys, conjunct :: residual))
         | Sql.Ast.Binary
             ( Sql.Ast.Or,
               Sql.Ast.Binary (Sql.Ast.Eq, a, b),
               Sql.Ast.Binary
                 ( Sql.Ast.And,
                   Sql.Ast.Is_null (a', false),
                   Sql.Ast.Is_null (b', false) ) )
           when (a = a' && b = b') || (a = b' && b = a') ->
           (* NULL-safe equality *)
           (match as_key ~nullsafe:true a b with
            | Some k -> (k :: keys, residual)
            | None -> (keys, conjunct :: residual))
         | other -> (keys, other :: residual))
      ([], [])
      (Optimizer.conjuncts c)
    |> fun (keys, residual) -> (List.rev keys, List.rev residual)

let null_row n : Row.t = Array.make n Value.Null

(* --- operator-level row counters (collected only while tracing is on:
   the [List.length] per node is not free on the hot path) --- *)

let op_rows op =
  Openivm_obs.Metrics.counter "minidb_operator_rows_total"
    ~help:"rows emitted per physical operator" ~labels:[ ("op", op) ]

let rows_scan = op_rows "scan"
let rows_index_scan = op_rows "index_scan"
let rows_materialized = op_rows "materialized"
let rows_filter = op_rows "filter"
let rows_project = op_rows "project"
let rows_join = op_rows "join"
let rows_aggregate = op_rows "aggregate"
let rows_distinct = op_rows "distinct"
let rows_sort = op_rows "sort"
let rows_limit = op_rows "limit"
let rows_setop = op_rows "set_op"

let op_counter : Plan.t -> _ = function
  | Plan.Scan _ -> rows_scan
  | Plan.Index_scan _ -> rows_index_scan
  | Plan.Materialized _ -> rows_materialized
  | Plan.Filter _ -> rows_filter
  | Plan.Project _ -> rows_project
  | Plan.Join _ -> rows_join
  | Plan.Aggregate _ -> rows_aggregate
  | Plan.Distinct _ -> rows_distinct
  | Plan.Sort _ -> rows_sort
  | Plan.Limit _ -> rows_limit
  | Plan.Set_op _ -> rows_setop

(* --- main interpreter --- *)

let rec run (catalog : Catalog.t) (plan : Plan.t) : result =
  let r = exec_node catalog plan in
  if Openivm_obs.Span.enabled () then
    Openivm_obs.Metrics.add (op_counter plan) (List.length r.rows);
  r

and exec_node (catalog : Catalog.t) (plan : Plan.t) : result =
  let lookup = lookup_of catalog in
  let schema = Plan.schema_of ~lookup plan in
  match plan with
  | Plan.Scan { table; _ } ->
    { schema; rows = Table.to_rows (Catalog.find_table catalog table) }
  | Plan.Index_scan { table; index_name; key_exprs; _ } ->
    let tbl = Catalog.find_table catalog table in
    let key =
      Value.encode_key
        (Array.of_list
           (List.map (fun e -> compile_expr catalog [] e [||]) key_exprs))
    in
    let rows =
      if index_name = "" then Option.to_list (Table.pk_lookup tbl key)
      else
        match Table.find_secondary tbl index_name with
        | Some ix -> Table.index_lookup tbl ix key
        | None -> Error.fail "index %S vanished from table %S" index_name table
    in
    { schema; rows }
  | Plan.Materialized { rows; _ } -> { schema; rows }
  | Plan.Filter { input; predicate } ->
    let inner = run catalog input in
    let pred = compile_expr catalog inner.schema predicate in
    { schema = inner.schema;
      rows = List.filter (fun r -> Expr.is_true (pred r)) inner.rows }
  | Plan.Project { input; projections; _ } ->
    let inner = run catalog input in
    let compiled =
      List.map (fun (e, _) -> compile_expr catalog inner.schema e) projections
    in
    { schema;
      rows = List.map (fun r -> Array.of_list (List.map (fun c -> c r) compiled)) inner.rows }
  | Plan.Join { left; right; kind; condition } ->
    run_join catalog schema left right kind condition
  | Plan.Aggregate { input; group_exprs; aggs } ->
    run_aggregate catalog schema input group_exprs aggs
  | Plan.Distinct input ->
    let inner = run catalog input in
    let seen = Row.Tbl.create 64 in
    let rows =
      List.filter
        (fun r ->
           if Row.Tbl.mem seen r then false
           else begin Row.Tbl.add seen r (); true end)
        inner.rows
    in
    { schema = inner.schema; rows }
  | Plan.Sort { input; keys } ->
    let inner = run catalog input in
    let compiled =
      List.map (fun (e, desc) -> (compile_expr catalog inner.schema e, desc)) keys
    in
    let cmp a b =
      let rec go = function
        | [] -> 0
        | (key, desc) :: rest ->
          let c = Value.compare (key a) (key b) in
          if c <> 0 then if desc then -c else c else go rest
      in
      go compiled
    in
    { schema = inner.schema; rows = List.stable_sort cmp inner.rows }
  | Plan.Limit { input; limit; offset } ->
    let inner = run catalog input in
    let rows = inner.rows in
    let rows =
      match offset with
      | Some n ->
        let rec drop k = function
          | rest when k = 0 -> rest
          | [] -> []
          | _ :: rest -> drop (k - 1) rest
        in
        drop n rows
      | None -> rows
    in
    let rows =
      match limit with
      | Some n ->
        let rec take k = function
          | _ when k = 0 -> []
          | [] -> []
          | x :: rest -> x :: take (k - 1) rest
        in
        take n rows
      | None -> rows
    in
    { schema = inner.schema; rows }
  | Plan.Set_op { op; left; right } ->
    let l = run catalog left and r = run catalog right in
    if Schema.arity l.schema <> Schema.arity r.schema then
      Error.fail "set operation arms have different arities (%d vs %d)"
        (Schema.arity l.schema) (Schema.arity r.schema);
    let distinct rows =
      let seen = Row.Tbl.create 64 in
      List.filter
        (fun row ->
           if Row.Tbl.mem seen row then false
           else begin Row.Tbl.add seen row (); true end)
        rows
    in
    let rows =
      match op with
      | Sql.Ast.Union_all -> l.rows @ r.rows
      | Sql.Ast.Union -> distinct (l.rows @ r.rows)
      | Sql.Ast.Except ->
        let rset = Row.Tbl.create 64 in
        List.iter (fun row -> Row.Tbl.replace rset row ()) r.rows;
        distinct (List.filter (fun row -> not (Row.Tbl.mem rset row)) l.rows)
      | Sql.Ast.Intersect ->
        let rset = Row.Tbl.create 64 in
        List.iter (fun row -> Row.Tbl.replace rset row ()) r.rows;
        distinct (List.filter (fun row -> Row.Tbl.mem rset row) l.rows)
    in
    { schema = l.schema; rows }

(* evaluate an uncorrelated subquery to its first column, for IN (SELECT) *)
and subquery_values catalog (q : Sql.Ast.select) : Value.t list =
  let plan = Optimizer.optimize catalog (Planner.plan catalog q) in
  List.filter_map
    (fun row -> if Array.length row > 0 then Some row.(0) else None)
    (run catalog plan).rows

and compile_expr catalog schema e =
  Expr.compile ~subquery:(subquery_values catalog) schema e

(* Each input runs at most once, and only when needed: the index
   nested-loop path never materializes the indexed side. *)
and run_join catalog schema left right kind condition : result =
  let l_run = lazy (run catalog left) and r_run = lazy (run catalog right) in
  let get_l () = Lazy.force l_run and get_r () = Lazy.force r_run in
  let lookup = lookup_of catalog in
  let ls = Plan.schema_of ~lookup left in
  let rs = Plan.schema_of ~lookup right in
  let joined_schema = Schema.join ls rs in
  let keys, residual = split_join_condition ls rs condition in
  let residual_pred =
    match residual with
    | [] -> fun (_ : Row.t) -> true
    | cs ->
      let p = compile_expr catalog joined_schema (Optimizer.conjoin cs) in
      fun row -> Expr.is_true (p row)
  in
  let larity = Schema.arity ls and rarity = Schema.arity rs in
  let strict = Array.of_list (List.map (fun k -> not k.nullsafe) keys) in
  (* SQL join semantics: NULL keys match nothing, except through the
     NULL-safe equality the IVM combine emits *)
  let has_null (k : Row.t) =
    let bad = ref false in
    Array.iteri
      (fun i v -> if strict.(i) && Value.is_null v then bad := true)
      k;
    !bad
  in
  let key_of compiled row : Row.t =
    Array.of_list (List.map (fun c -> c row) compiled)
  in
  let finish pairs unmatched_l unmatched_r =
    let rows =
      match kind with
      | Sql.Ast.Inner | Sql.Ast.Cross -> pairs
      | Sql.Ast.Left_outer ->
        pairs @ List.map (fun lrow -> Row.concat lrow (null_row rarity)) unmatched_l
      | Sql.Ast.Right_outer ->
        pairs @ List.map (fun rrow -> Row.concat (null_row larity) rrow) unmatched_r
      | Sql.Ast.Full_outer ->
        pairs
        @ List.map (fun lrow -> Row.concat lrow (null_row rarity)) unmatched_l
        @ List.map (fun rrow -> Row.concat (null_row larity) rrow) unmatched_r
    in
    { schema; rows }
  in
  (* --- index nested loop: when one side is a bare table scan whose join
     keys exactly cover an index (ART PK or secondary), probe the other
     side's rows into it instead of hashing the whole table — the paper's
     "ART ... can be used in the future to speed up joins". *)
  let index_target (plan : Plan.t) side_schema (side_expr : join_key -> Sql.Ast.expr) =
    match plan, keys with
    | Plan.Scan { table; _ }, _ :: _ ->
      let tbl = Catalog.find_table catalog table in
      let positions =
        try
          Some
            (Array.of_list
               (List.map
                  (fun k ->
                     match side_expr k with
                     | Sql.Ast.Column (qualifier, name) when name <> "*" ->
                       fst (Schema.find side_schema ~qualifier ~name)
                     | _ -> raise Exit)
                  keys))
        with Exit | Error.Sql_error _ -> None
      in
      (match positions with
       | None -> None
       | Some pos ->
         let same_set (a : int array) =
           Array.length a > 0
           && List.sort compare (Array.to_list a)
              = List.sort compare (Array.to_list pos)
         in
         (* order.(i) = index of the join key that supplies the i-th index
            column *)
         let order_for (index_positions : int array) =
           Array.map
             (fun p ->
                let rec find j =
                  if pos.(j) = p then j else find (j + 1)
                in
                find 0)
             index_positions
         in
         if same_set tbl.Table.primary_key then
           Some (tbl, `Pk, order_for tbl.Table.primary_key)
         else
           List.find_map
             (fun ix ->
                if same_set ix.Table.key_positions then
                  Some (tbl, `Secondary ix, order_for ix.Table.key_positions)
                else None)
             tbl.Table.secondary)
    | _ -> None
  in
  let inlj_lookup (tbl, which, order) (kvals : Row.t) : Row.t list =
    let key = Value.encode_key (Array.map (fun j -> kvals.(j)) order) in
    match which with
    | `Pk -> Option.to_list (Table.pk_lookup tbl key)
    | `Secondary ix -> Table.index_lookup tbl ix key
  in
  (* probe [probe_rows] into the indexed side; [combine] assembles the
     output row in left-to-right schema order *)
  let probe_into target probe_schema probe_exprs probe_rows ~combine =
    let compiled = List.map (compile_expr catalog probe_schema) probe_exprs in
    let pairs = ref [] in
    let unmatched = ref [] in
    List.iter
      (fun prow ->
         let k = key_of compiled prow in
         let matches =
           if has_null k then [] else inlj_lookup target k
         in
         let hit = ref false in
         List.iter
           (fun irow ->
              let row = combine prow irow in
              if residual_pred row then begin
                pairs := row :: !pairs;
                hit := true
              end)
           matches;
         if not !hit then unmatched := prow :: !unmatched)
      probe_rows;
    (List.rev !pairs, List.rev !unmatched)
  in
  let right_target =
    if kind = Sql.Ast.Inner || kind = Sql.Ast.Left_outer then
      index_target right rs (fun k -> k.right_expr)
    else None
  in
  let left_target =
    if kind = Sql.Ast.Inner || kind = Sql.Ast.Right_outer then
      index_target left ls (fun k -> k.left_expr)
    else None
  in
  let worthwhile probe_count (tbl, _, _) =
    probe_count * 2 < Table.row_count tbl
  in
  (* try the index paths first; fall back to a hash join *)
  let attempt_right () =
    match right_target with
    | None -> None
    | Some target ->
      let l = get_l () in
      if worthwhile (List.length l.rows) target then begin
        let pairs, unmatched_l =
          probe_into target ls (List.map (fun k -> k.left_expr) keys) l.rows
            ~combine:Row.concat
        in
        Some (finish pairs unmatched_l [])
      end
      else None
  in
  let attempt_left () =
    match left_target with
    | None -> None
    | Some target ->
      let r = get_r () in
      if worthwhile (List.length r.rows) target then begin
        let pairs, unmatched_r =
          probe_into target rs (List.map (fun k -> k.right_expr) keys) r.rows
            ~combine:(fun prow irow -> Row.concat irow prow)
        in
        Some (finish pairs [] unmatched_r)
      end
      else None
  in
  (match attempt_right () with
   | Some result -> result
   | None ->
     match attempt_left () with
     | Some result -> result
     | None ->
       (* hash join (or nested loop without keys), building on the smaller
          side *)
       let l = get_l () and r = get_r () in
       if keys = [] then begin
         let pairs = ref [] in
         let matched_left = Row.Tbl.create 64 in
         let matched_right = Row.Tbl.create 64 in
         List.iter
           (fun lrow ->
              List.iter
                (fun rrow ->
                   let row = Row.concat lrow rrow in
                   if residual_pred row then begin
                     pairs := row :: !pairs;
                     Row.Tbl.replace matched_left lrow ();
                     Row.Tbl.replace matched_right rrow ()
                   end)
                r.rows)
           l.rows;
         let unmatched side tbl =
           List.filter (fun row -> not (Row.Tbl.mem tbl row)) side
         in
         finish (List.rev !pairs)
           (unmatched l.rows matched_left)
           (unmatched r.rows matched_right)
       end
       else begin
         let lkeys = List.map (fun k -> compile_expr catalog ls k.left_expr) keys in
         let rkeys = List.map (fun k -> compile_expr catalog rs k.right_expr) keys in
         (* build the hash on the smaller input *)
         let swap = List.length l.rows < List.length r.rows in
         let build_rows, build_keys, probe_rows, probe_keys =
           if swap then (l.rows, lkeys, r.rows, rkeys)
           else (r.rows, rkeys, l.rows, lkeys)
         in
         let hash = Row.Tbl.create (List.length build_rows) in
         List.iter
           (fun brow ->
              let k = key_of build_keys brow in
              if not (has_null k) then
                Row.Tbl.replace hash k
                  (brow :: (try Row.Tbl.find hash k with Not_found -> [])))
           (List.rev build_rows);
         let pairs = ref [] in
         let matched_build = Row.Tbl.create 64 in
         let matched_probe = Row.Tbl.create 64 in
         List.iter
           (fun prow ->
              let k = key_of probe_keys prow in
              if not (has_null k) then
                match Row.Tbl.find_opt hash k with
                | Some brows ->
                  List.iter
                    (fun brow ->
                       let row =
                         if swap then Row.concat brow prow
                         else Row.concat prow brow
                       in
                       if residual_pred row then begin
                         pairs := row :: !pairs;
                         Row.Tbl.replace matched_build brow ();
                         Row.Tbl.replace matched_probe prow ()
                       end)
                    brows
                | None -> ())
           probe_rows;
         let unmatched side tbl =
           List.filter (fun row -> not (Row.Tbl.mem tbl row)) side
         in
         let unmatched_l, unmatched_r =
           if swap then
             (unmatched l.rows matched_build, unmatched r.rows matched_probe)
           else (unmatched l.rows matched_probe, unmatched r.rows matched_build)
         in
         finish (List.rev !pairs) unmatched_l unmatched_r
       end)

(* Hash aggregation; groups come out in first-seen order. *)
and run_aggregate catalog schema input group_exprs aggs : result =
  let inner = run catalog input in
  let group_compiled =
    List.map (fun (e, _) -> compile_expr catalog inner.schema e) group_exprs
  in
  let arg_compiled =
    List.map
      (fun spec -> Option.map (compile_expr catalog inner.schema) spec.Plan.arg)
      aggs
  in
  let groups : (Row.t * (agg_state * unit Row.Tbl.t option) list) Row.Tbl.t =
    Row.Tbl.create 64
  in
  let order = ref [] in
  let state_for key =
    match Row.Tbl.find_opt groups key with
    | Some (_, states) -> states
    | None ->
      let states =
        List.map
          (fun spec ->
             ( make_state spec.Plan.agg,
               if spec.Plan.distinct then Some (Row.Tbl.create 16) else None ))
          aggs
      in
      Row.Tbl.replace groups key (key, states);
      order := key :: !order;
      states
  in
  List.iter
    (fun row ->
       let key =
         Array.of_list (List.map (fun c -> c row) group_compiled)
       in
       let states = state_for key in
       List.iter2
         (fun (st, distinct_seen) carg ->
            let v = Option.map (fun c -> c row) carg in
            let skip =
              match distinct_seen, v with
              | Some seen, Some value ->
                let k = [| value |] in
                if Row.Tbl.mem seen k then true
                else begin Row.Tbl.add seen k (); false end
              | _ -> false
            in
            if not skip then update_state st v)
         states arg_compiled)
    inner.rows;
  (* global aggregate over empty input still yields one row *)
  if group_exprs = [] && !order = [] then ignore (state_for [||]);
  let rows =
    List.rev_map
      (fun key ->
         let _, states = Row.Tbl.find groups key in
         Array.append key
           (Array.of_list (List.map (fun (st, _) -> finalize_state st) states)))
      !order
  in
  { schema; rows }
