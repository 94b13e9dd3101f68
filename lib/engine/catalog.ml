(** The catalog: named tables, (non-materialized) view definitions, and the
    index namespace. Materialized views are plain tables plus rows in the
    OpenIVM metadata tables, exactly as in the paper ("we store materialized
    views as tables and save their additional properties in metadata
    tables"). *)

type view_def = {
  view_name : string;
  query : Sql.Ast.select;
  sql : string;
}

type mat_view = {
  mat_name : string;
  mat_visible : string list;     (** visible output columns, in order *)
  mat_flat : bool;               (** weighted flat view (hidden row count) *)
  mat_depends_on : string list;  (** base tables and upstream mat views *)
}

type t = {
  tables : (string, Table.t) Hashtbl.t;
  views : (string, view_def) Hashtbl.t;
  index_owner : (string, string) Hashtbl.t;  (** index name -> table name *)
  mat_views : (string, mat_view) Hashtbl.t;
      (** maintained materialized views, keyed by backing-table name *)
}

let create () = {
  tables = Hashtbl.create 16;
  views = Hashtbl.create 16;
  index_owner = Hashtbl.create 16;
  mat_views = Hashtbl.create 16;
}

let table_exists t name = Hashtbl.mem t.tables name
let view_exists t name = Hashtbl.mem t.views name

let find_table t name : Table.t =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> tbl
  | None -> Error.fail "table %S does not exist" name

let find_table_opt t name = Hashtbl.find_opt t.tables name
let find_view_opt t name = Hashtbl.find_opt t.views name

let add_table t (tbl : Table.t) =
  if table_exists t tbl.Table.name || view_exists t tbl.Table.name then
    Error.fail "catalog object %S already exists" tbl.Table.name;
  Hashtbl.replace t.tables tbl.Table.name tbl

let add_view t (v : view_def) =
  if table_exists t v.view_name || view_exists t v.view_name then
    Error.fail "catalog object %S already exists" v.view_name;
  Hashtbl.replace t.views v.view_name v

let drop_table t name ~if_exists =
  match Hashtbl.find_opt t.tables name with
  | Some tbl ->
    List.iter
      (fun ix -> Hashtbl.remove t.index_owner ix.Table.index_name)
      tbl.Table.secondary;
    Hashtbl.remove t.tables name
  | None -> if not if_exists then Error.fail "table %S does not exist" name

let drop_view t name ~if_exists =
  if Hashtbl.mem t.views name then Hashtbl.remove t.views name
  else if not if_exists then Error.fail "view %S does not exist" name

let register_index t ~index_name ~table_name =
  if Hashtbl.mem t.index_owner index_name then
    Error.fail "index %S already exists" index_name;
  Hashtbl.replace t.index_owner index_name table_name

let drop_index t ~index_name ~if_exists =
  match Hashtbl.find_opt t.index_owner index_name with
  | Some table_name ->
    Table.drop_index (find_table t table_name) ~index_name;
    Hashtbl.remove t.index_owner index_name
  | None -> if not if_exists then Error.fail "index %S does not exist" index_name

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []
  |> List.sort String.compare

let view_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.views []
  |> List.sort String.compare

(* --- the materialized-view dependency DAG (cascading IVM) --- *)

let find_mat_view t name = Hashtbl.find_opt t.mat_views name

let mat_view_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.mat_views []
  |> List.sort String.compare

(** Maintained views that read [name] directly (as a base table or as an
    upstream view). Sorted for determinism. *)
let mat_dependents t name =
  Hashtbl.fold
    (fun dep mv acc ->
       if List.exists (String.equal name) mv.mat_depends_on then dep :: acc
       else acc)
    t.mat_views []
  |> List.sort String.compare

(** Walk dependency edges from [name] through [depends_on]; return the
    cycle path (ending back at [name]) that registering [name] with those
    dependencies would create, if any. *)
let mat_cycle t ~name ~depends_on : string list option =
  let rec dfs path node =
    if String.equal node name then Some (List.rev (node :: path))
    else
      match find_mat_view t node with
      | None -> None
      | Some mv ->
        List.fold_left
          (fun acc dep ->
             match acc with Some _ -> acc | None -> dfs (node :: path) dep)
          None mv.mat_depends_on
  in
  List.fold_left
    (fun acc dep -> match acc with Some _ -> acc | None -> dfs [] dep)
    None depends_on
  |> Option.map (fun tail -> name :: tail)

let register_mat_view t (mv : mat_view) =
  (match mat_cycle t ~name:mv.mat_name ~depends_on:mv.mat_depends_on with
   | Some cycle ->
     Error.fail "materialized view %S would create a dependency cycle: %s"
       mv.mat_name (String.concat " -> " cycle)
   | None -> ());
  Hashtbl.replace t.mat_views mv.mat_name mv

let unregister_mat_view t name = Hashtbl.remove t.mat_views name
