(** Shared test helpers. *)

open Openivm_engine

let db_with (statements : string list) : Database.t =
  let db = Database.create () in
  List.iter (fun sql -> ignore (Database.exec db sql)) statements;
  db

let rows_of (r : Database.query_result) : string list =
  List.map Row.to_string r.Database.rows

(** Run a query and render rows as strings, sorted, for order-insensitive
    comparison. *)
let sorted_rows db sql : string list =
  List.sort String.compare (rows_of (Database.query db sql))

let check_rows ?(msg = "rows") db sql expected =
  Alcotest.(check (list string)) msg
    (List.sort String.compare expected)
    (sorted_rows db sql)

let check_scalar ?(msg = "scalar") db sql expected =
  Alcotest.(check string) msg expected
    (Value.to_string (Database.query_scalar db sql))

let exec db sql = ignore (Database.exec db sql)

(** The view's visible contents, sorted row strings (see
    {!Openivm.Runner.visible_rows}). *)
let view_visible (v : Openivm.Runner.view) : string list =
  Openivm.Runner.visible_rows v

(** Reference: rerun the defining query from scratch. *)
let view_reference (_db : Database.t) (v : Openivm.Runner.view) : string list =
  Openivm.Runner.recompute_rows v

let check_view_consistent ?(msg = "view = recompute") db v =
  Alcotest.(check (list string)) msg (view_reference db v) (view_visible v)

let tc name f = Alcotest.test_case name `Quick f

(** {!Openivm.Runner.exec_ext} on SQL text: parse, then execute. *)
let exec_ext ext sql =
  Openivm.Runner.exec_ext ext (Openivm_sql.Parser.parse_statement sql)

(** One statement of a scheduler unit, parsed from its text. *)
let unit_stmt sql = Openivm_sql.Parser.parse_statement sql
