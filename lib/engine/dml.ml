(** INSERT / UPDATE / DELETE execution, with trigger firing. *)

(* read a slot's live row *)
let _openivm_engine_vec_get (tbl : Table.t) slot = Vec.get tbl.Table.slots slot

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

let coerce_to_schema (schema : Schema.t) (row : Row.t) : Row.t =
  coercer schema row

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
    | Sql.Ast.Or_replace | Sql.Ast.Do_nothing ->
      let inserted = ref [] in
      let deleted = ref [] in
      List.iter
        (fun row ->
           match on_conflict with
           | Sql.Ast.No_conflict_clause -> assert false
           | Sql.Ast.Or_replace ->
             (match Table.upsert tbl row with
              | Table.Inserted -> inserted := row :: !inserted
              | Table.Replaced old ->
                deleted := old :: !deleted;
                inserted := row :: !inserted)
           | Sql.Ast.Do_nothing ->
             if Table.insert_ignore tbl row then inserted := row :: !inserted)
        rows;
      { Trigger.table;
        inserted = List.rev !inserted;
        deleted = List.rev !deleted }
  in
  Trigger.fire triggers change;
  { affected = List.length change.Trigger.inserted; change = Some change }

(** Index fast-path for point UPDATE/DELETE: when conjuncts of [where] pin
    every column of the PK or of a secondary index with constants, return
    the candidate slots (a superset of the matching rows — the caller
    still applies the full predicate). *)
let candidate_slots (tbl : Table.t) (where : Sql.Ast.expr option) :
  int list option =
  match where with
  | None -> None
  | Some predicate ->
    let schema = tbl.Table.schema in
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
                     Hashtbl.replace pinned i const
                 | None -> ()
                 | exception Error.Sql_error _ -> ()
               end
             | _ -> ()
           in
           try_pin a b;
           try_pin b a
         | _ -> ())
      (Optimizer.conjuncts predicate);
    let key_for positions =
      Value.encode_key
        (Array.map (fun i -> Expr.eval_const (Hashtbl.find pinned i)) positions)
    in
    let fully_pinned positions =
      Array.length positions > 0
      && Array.for_all (fun i -> Hashtbl.mem pinned i) positions
    in
    if fully_pinned tbl.Table.primary_key then
      Some (Option.to_list (Table.pk_slot tbl (key_for tbl.Table.primary_key)))
    else
      List.find_map
        (fun ix ->
           if fully_pinned ix.Table.key_positions then
             Some (Table.index_slots tbl ix (key_for ix.Table.key_positions))
           else None)
        tbl.Table.secondary

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
  let pred =
    match where with
    | None -> fun (_ : Row.t) -> true
    | Some e ->
      let c = Exec.compile_expr catalog tbl.Table.schema e in
      fun row -> Expr.is_true (c row)
  in
  let deleted =
    match candidate_slots tbl where with
    | Some slots ->
      List.filter_map
        (fun slot ->
           match _openivm_engine_vec_get tbl slot with
           | Some row when pred row -> Table.delete_slot tbl slot
           | _ -> None)
        slots
    | None -> Table.delete_where tbl pred
  in
  let change = { Trigger.table; inserted = []; deleted } in
  Trigger.fire triggers change;
  { affected = List.length deleted; change = Some change }

let exec_update catalog triggers ~table ~assignments ~where : outcome =
  let tbl = Catalog.find_table catalog table in
  let schema = tbl.Table.schema in
  let pred =
    match where with
    | None -> fun (_ : Row.t) -> true
    | Some e ->
      let c = Exec.compile_expr catalog schema e in
      fun row -> Expr.is_true (c row)
  in
  let compiled =
    List.map
      (fun (col, e) ->
         let i, colinfo = Schema.find schema ~qualifier:None ~name:col in
         let c = Exec.compile_expr catalog schema e in
         (i, colinfo.Schema.typ, c))
      assignments
  in
  let transform (row : Row.t) : Row.t =
    let fresh = Array.copy row in
    List.iter
      (fun (i, typ, c) ->
         let v = c row in
         fresh.(i) <- (if Value.is_null v then v else Expr.cast_value typ v))
      compiled;
    fresh
  in
  let changed =
    match candidate_slots tbl where with
    | Some slots ->
      let targets =
        List.filter_map
          (fun slot ->
             match _openivm_engine_vec_get tbl slot with
             | Some row when pred row -> Some slot
             | _ -> None)
          slots
      in
      List.map
        (fun slot ->
           let old = Option.get (Table.delete_slot tbl slot) in
           let fresh = transform old in
           Table.insert tbl fresh;
           (old, fresh))
        targets
    | None -> Table.update_where tbl pred transform
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
