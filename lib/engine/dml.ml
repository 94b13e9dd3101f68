(** INSERT / UPDATE / DELETE execution, with trigger firing. *)

type outcome = {
  affected : int;
  change : Trigger.change option;
}

(** Per-table row coercion, with the schema array hoisted out so bulk
    inserts pay the list-to-array conversion once, not per row. Rows that
    already match the schema are returned as-is (no copy). *)
let coercer (schema : Schema.t) : Row.t -> Row.t =
  let cols = Array.of_list schema in
  let ncols = Array.length cols in
  let coerce_one i v =
    if Value.is_null v then begin
      if cols.(i).Schema.not_null then
        Error.fail "NULL violates NOT NULL on column %S" cols.(i).Schema.name;
      v
    end
    else
      match cols.(i).Schema.typ, v with
      | Sql.Ast.T_int, Value.Int _
      | Sql.Ast.T_float, Value.Float _
      | Sql.Ast.T_text, Value.Str _
      | Sql.Ast.T_bool, Value.Bool _
      | Sql.Ast.T_date, Value.Date _ -> v
      | Sql.Ast.T_float, Value.Int i -> Value.Float (float_of_int i)
      | Sql.Ast.T_date, Value.Str s -> Value.date_of_string s
      | t, _ -> Expr.cast_value t v
  in
  fun (row : Row.t) ->
    if Array.length row <> ncols then
      Error.fail "expected %d values, got %d" ncols (Array.length row);
    let out = ref row in
    for i = 0 to ncols - 1 do
      let v = row.(i) in
      let v' = coerce_one i v in
      if v' != v then begin
        if !out == row then out := Array.copy row;
        !out.(i) <- v'
      end
    done;
    !out

(** Plans with no compute — bare scans and column-only projections of one
    — read their rows straight out of the source on INSERT ... SELECT,
    which is the propagation swap's second statement. A projection that
    turns out to be the identity shares the source row arrays outright
    (rows are immutable payloads; in-place UPDATE copies first). Returns
    [None] for plans that need the executor; successful reads also carry
    the source schema so the caller can skip re-coercing rows that already
    passed an identically-typed table's coercion. *)
let rows_of_simple_plan (catalog : Catalog.t) (plan : Plan.t) :
  (Row.t list * Schema.t) option =
  let simple = function
    | Plan.Scan _ | Plan.Index_scan _ | Plan.Materialized _ -> true
    | _ -> false
  in
  match plan with
  | p when simple p ->
    let r = Exec.run catalog p in
    Some (r.Exec.rows, r.Exec.schema)
  | Plan.Project { input; projections; _ }
    when simple input
         && List.for_all
              (fun (e, _) ->
                 match e with
                 | Sql.Ast.Column (_, name) -> name <> "*"
                 | _ -> false)
              projections ->
    let r = Exec.run catalog input in
    let positions =
      List.map
        (fun (e, _) ->
           match e with
           | Sql.Ast.Column (qualifier, name) ->
             fst (Schema.find r.Exec.schema ~qualifier ~name)
           | _ -> assert false)
        projections
    in
    let width = Schema.arity r.Exec.schema in
    let identity =
      List.length positions = width
      && List.for_all2 ( = ) positions (List.init width Fun.id)
    in
    let src = Array.of_list r.Exec.schema in
    let out_schema = List.map (fun j -> src.(j)) positions in
    if identity then Some (r.Exec.rows, out_schema)
    else begin
      let idx = Array.of_list positions in
      Some
        ( List.map
            (fun (row : Row.t) -> Array.map (fun j -> row.(j)) idx)
            r.Exec.rows,
          out_schema )
    end
  | _ -> None

(** Rows for an INSERT: evaluate the source, then scatter the values into
    table column order (missing columns become NULL). *)
let insert_rows (catalog : Catalog.t) (table : Table.t) (columns : string list)
    (source : Sql.Ast.insert_source) : Row.t list =
  let schema = table.Table.schema in
  (* a column list that names every table column in order is the same as
     no column list — the propagation scripts always spell it out *)
  let columns =
    if
      List.compare_lengths columns schema = 0
      && List.for_all2
           (fun c (sc : Schema.column) -> String.equal c sc.Schema.name)
           columns schema
    then []
    else columns
  in
  let produced, src_schema =
    match source with
    | Sql.Ast.Values rows ->
      ( List.map
          (fun exprs -> Array.of_list (List.map Expr.eval_const exprs))
          rows,
        None )
    | Sql.Ast.Query q ->
      let plan = Optimizer.optimize catalog (Planner.plan catalog q) in
      (match rows_of_simple_plan catalog plan with
       | Some (rows, src) -> (rows, Some src)
       | None -> ((Exec.run catalog plan).Exec.rows, None))
  in
  (* rows lifted straight out of a table whose column types (and NOT NULL
     obligations) already match the target have nothing left to coerce —
     the propagation swap's stage-to-view copy takes this path *)
  let already_coerced =
    columns = []
    && (match src_schema with
        | Some src ->
          List.compare_lengths src schema = 0
          && List.for_all2
               (fun (s : Schema.column) (t : Schema.column) ->
                  s.Schema.typ = t.Schema.typ
                  && ((not t.Schema.not_null) || s.Schema.not_null))
               src schema
        | None -> false)
  in
  let placed =
    if columns = [] then produced
    else begin
      let positions =
        List.map
          (fun c ->
             let i, _ = Schema.find schema ~qualifier:None ~name:c in
             i)
          columns
      in
      let arity = Schema.arity schema in
      List.map
        (fun (row : Row.t) ->
           if Array.length row <> List.length positions then
             Error.fail "INSERT column list has %d columns but %d values supplied"
               (List.length positions) (Array.length row);
           let full = Array.make arity Value.Null in
           List.iteri (fun j pos -> full.(pos) <- row.(j)) positions;
           full)
        produced
    end
  in
  if already_coerced then placed else List.map (coercer schema) placed

let exec_insert ?(distinct_hint = false) catalog triggers ~table ~columns
    ~source ~on_conflict : outcome =
  let tbl = Catalog.find_table catalog table in
  let rows = insert_rows catalog tbl columns source in
  let change =
    match on_conflict with
    | Sql.Ast.No_conflict_clause ->
      (* bulk path: defers PK maintenance when the table starts empty *)
      Table.insert_many ~distinct_keys:distinct_hint tbl rows;
      { Trigger.table; inserted = rows; deleted = [] }
    | Sql.Ast.Or_replace ->
      (* in row order: a later row may replace an earlier one *)
      let deleted = List.filter_map (Table.upsert tbl) rows in
      { Trigger.table; inserted = rows; deleted }
    | Sql.Ast.Do_nothing ->
      { Trigger.table; inserted = List.filter (Table.insert_ignore tbl) rows;
        deleted = [] }
  in
  Trigger.fire triggers change;
  { affected = List.length change.Trigger.inserted; change = Some change }

(** The statement's target rows with their slots, in slot order: probed
    through the index {!Optimizer.pinned_index} picks, else scanned, and
    kept when the whole predicate holds. *)
let targets catalog (tbl : Table.t) (where : Sql.Ast.expr option) :
  (int * Row.t) list =
  let keep, pinned =
    match where with
    | None -> ((fun (_ : Row.t) -> true), None)
    | Some e ->
      let c = Exec.compile_expr catalog tbl.Table.schema e in
      ( (fun row -> Expr.is_true (c row)),
        Optimizer.pinned_index tbl tbl.Table.schema (Optimizer.conjuncts e) )
  in
  match pinned with
  | Some (index, pins) ->
    List.filter
      (fun (_, row) -> keep row)
      (Table.probe tbl ~index
         (Array.of_list (List.map (fun (k, _) -> Expr.eval_const k) pins)))
  | None ->
    let acc = ref [] in
    Table.iter_slots (fun slot row -> if keep row then acc := (slot, row) :: !acc) tbl;
    List.rev !acc

let exec_delete catalog triggers ~table ~where : outcome =
  let tbl = Catalog.find_table catalog table in
  match where with
  | None when not (Trigger.has_hooks triggers ~table) ->
    (* full unconditional delete with nobody listening: drop the rows
       without materializing them *)
    let n = Table.truncate tbl in
    { affected = n;
      change = Some { Trigger.table; inserted = []; deleted = [] } }
  | _ ->
    let deleted =
      List.filter_map
        (fun (slot, _) -> Table.delete_slot tbl slot)
        (targets catalog tbl where)
    in
    let change = { Trigger.table; inserted = []; deleted } in
    Trigger.fire triggers change;
    { affected = List.length deleted; change = Some change }

let exec_update catalog triggers ~table ~assignments ~where : outcome =
  let tbl = Catalog.find_table catalog table in
  let schema = tbl.Table.schema in
  let compiled =
    List.map
      (fun (col, e) ->
         let i, _ = Schema.find schema ~qualifier:None ~name:col in
         (i, Exec.compile_expr catalog schema e))
      assignments
  in
  let rec refuse_twice = function
    | [] -> ()
    | (i, _) :: rest ->
      if List.mem_assoc i rest then
        Error.fail "multiple assignments to same column %S"
          (List.nth schema i).Schema.name;
      refuse_twice rest
  in
  refuse_twice compiled;
  (* the updated row passes the same NOT NULL and type check as an
     inserted one *)
  let coerce = coercer schema in
  let transform (row : Row.t) : Row.t =
    let fresh = Array.copy row in
    List.iter (fun (i, c) -> fresh.(i) <- c row) compiled;
    coerce fresh
  in
  let changed =
    List.map
      (fun (slot, old) ->
         let fresh = transform old in
         Table.overwrite_slot tbl slot fresh;
         (old, fresh))
      (targets catalog tbl where)
  in
  let change =
    { Trigger.table;
      inserted = List.map snd changed;
      deleted = List.map fst changed }
  in
  Trigger.fire triggers change;
  { affected = List.length changed; change = Some change }

let exec_truncate catalog triggers ~table : outcome =
  let tbl = Catalog.find_table catalog table in
  let deleted = Table.to_rows tbl in
  let n = Table.truncate tbl in
  let change = { Trigger.table; inserted = []; deleted } in
  Trigger.fire triggers change;
  { affected = n; change = Some change }
