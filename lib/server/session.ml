module Ast = Openivm_sql.Ast

type t = {
  sched : Scheduler.t;
  sid : int;
  s_tenant : string;
  mutable txn : string list option;  (* buffered statements, reversed *)
  mutable closed : bool;
}

type reply =
  | Affected of int
  | Rows of { cols : string list; rows : string list }
  | Msg of string
  | Queued of int
  | Overloaded of string
  | Failed of { code : string; message : string }

let create sched ~tenant =
  { sched; sid = Scheduler.open_session sched; s_tenant = tenant;
    txn = None; closed = false }

let id t = t.sid
let tenant t = t.s_tenant
let in_txn t = t.txn <> None

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.txn <- None;
    Scheduler.close_session t.sched
  end

let reply_of_outcome = function
  | `Overloaded reason -> Overloaded reason
  | `Outcome (Scheduler.Failed { code; message }) -> Failed { code; message }
  | `Outcome (Scheduler.Applied { affected; installed }) -> (
      match installed with
      | [] -> Affected affected
      | names -> Msg ("installed " ^ String.concat ", " names))

let submit_unit t stmts =
  reply_of_outcome
    (Scheduler.exec_unit t.sched ~session_id:t.sid ~tenant:t.s_tenant stmts)

let run_select t q =
  try
    let r = Scheduler.read t.sched q in
    Rows
      {
        cols = Openivm_engine.Schema.names r.Openivm_engine.Database.schema;
        rows = List.map Openivm_engine.Row.to_string r.rows;
      }
  with Openivm_engine.Error.Sql_error msg -> Failed { code = "SQL"; message = msg }

let exec t sql =
  if t.closed then Failed { code = "SESSION"; message = "session is closed" }
  else
    match (try Ok (Openivm_sql.Parser.parse_statement sql) with e -> Error e) with
    | Error (Openivm_sql.Parser.Error (msg, pos)) ->
        Failed { code = "PARSE"; message = Printf.sprintf "%s (at %d)" msg pos }
    | Error (Openivm_sql.Lexer.Error (msg, pos)) ->
        Failed { code = "LEX"; message = Printf.sprintf "%s (at %d)" msg pos }
    | Error e -> Failed { code = "PARSE"; message = Printexc.to_string e }
    | Ok stmt -> (
        match stmt with
        | Ast.Begin_txn -> (
            match t.txn with
            | Some _ ->
                Failed
                  { code = "TXN"; message = "already inside a transaction" }
            | None ->
                t.txn <- Some [];
                Msg "BEGIN")
        | Ast.Commit_txn -> (
            match t.txn with
            | None ->
                Failed { code = "TXN"; message = "no transaction in progress" }
            | Some [] ->
                t.txn <- None;
                Msg "COMMIT"
            | Some rev -> (
                match submit_unit t (List.rev rev) with
                | Overloaded _ as r ->
                    (* Buffer kept: the client may retry COMMIT once the
                       queue drains. *)
                    r
                | r ->
                    t.txn <- None;
                    r))
        | Ast.Rollback_txn -> (
            match t.txn with
            | None ->
                Failed { code = "TXN"; message = "no transaction in progress" }
            | Some _ ->
                t.txn <- None;
                Msg "ROLLBACK")
        | Ast.Select_stmt q -> run_select t q
        | Ast.Insert _ | Ast.Update _ | Ast.Delete _ | Ast.Truncate _ -> (
            match t.txn with
            | Some rev ->
                t.txn <- Some (sql :: rev);
                Queued (List.length rev + 1)
            | None -> submit_unit t [ sql ])
        | _ -> (
            (* DDL: single-statement units only, never buffered — the
               undo journal reverts rows, not catalog changes. *)
            match t.txn with
            | Some _ ->
                Failed
                  {
                    code = "TXN";
                    message = "DDL is not allowed inside a transaction";
                  }
            | None -> submit_unit t [ sql ]))
