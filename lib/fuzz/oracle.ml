(** The differential oracle: run a case through the real compiler /
    propagation / runner stack and check the two invariants the whole
    system rests on —

    - {b view ≡ full recompute} after every refresh, for every combine
      strategy and emitted dialect the case names (paper §2, DBSP Z-set
      semantics);
    - {b optimizer-on ≡ optimizer-off} and {b print → parse → execute}
      row-identity for every generated SELECT.

    The first violated check wins; its failure message embeds the exact
    reproducer command. *)

module Flags = Openivm.Flags
module Runner = Openivm.Runner
module Dialect = Openivm_sql.Dialect
module Exec = Openivm_engine.Exec
open Openivm_engine

type point =
  | Install            (** compiling / installing the view *)
  | Initial            (** consistency right after the initial load *)
  | Step of int        (** consistency after workload step [i] (0-based) *)
  | Query of int       (** optimizer / roundtrip check of query [i] *)
  | Durability         (** crash-replay convergence (the {!Durable} axis) *)

type failure = {
  case : Case.t;
  strategy : Flags.combine_strategy option;
  dialect : Dialect.t option;
  engine : Exec.engine option;
  point : point;
  message : string;    (** human-readable, ends with the reproducer *)
}

type outcome = {
  checks : int;               (** individual assertions that ran *)
  failure : failure option;   (** the first violation, if any *)
}

let point_to_string = function
  | Install -> "view install"
  | Initial -> "initial load"
  | Step i -> Printf.sprintf "workload step %d" i
  | Query i -> Printf.sprintf "query %d" i
  | Durability -> "durability (crash-replay)"

(* --- helpers --- *)

let exec_all db stmts =
  List.iter (fun s -> ignore (Database.exec db s)) stmts

let render_rows rows =
  let n = List.length rows in
  let shown = if n <= 12 then rows else List.filteri (fun i _ -> i < 12) rows in
  Printf.sprintf "[%s]%s"
    (String.concat " | " shown)
    (if n > 12 then Printf.sprintf " (+%d more)" (n - 12) else "")

let diff_message ~what ~expected ~got =
  Printf.sprintf "%s\n  expected: %s\n  got:      %s" what
    (render_rows expected) (render_rows got)

exception Check_failed of point * string

(* --- the view differential: one (strategy, dialect) configuration --- *)

let run_view_config (case : Case.t) strategy dialect engine :
  (int, point * string) result =
  match case.Case.views with
  | [] -> Ok 0
  | view_sqls ->
    let checks = ref 0 in
    let phase = ref Install in
    (try
       let db = Database.create () in
       db.Database.exec_engine <- engine;
       exec_all db case.Case.schema;
       exec_all db case.Case.setup;
       let flags = { Flags.default with strategy; dialect; exec_engine = engine } in
       (* install in order, each view registered as a potential upstream
          of the next — this is how cascade stacks come up in the wild *)
       let views =
         List.rev
           (List.fold_left
              (fun installed sql ->
                 Runner.install ~flags ~registry:(List.rev installed) db sql
                 :: installed)
              [] view_sqls)
       in
       (* refresh + check bottom-up: each level must equal a full
          recompute over the (already refreshed) level below it *)
       let check point =
         phase := point;
         List.iter
           (fun v ->
              incr checks;
              Runner.refresh v;
              (* the full recompute always runs on the row interpreter, so
                 vectorized propagation is judged against an independent
                 executor rather than against itself *)
              let expected =
                let saved = db.Database.exec_engine in
                db.Database.exec_engine <- Exec.Row;
                Fun.protect
                  ~finally:(fun () -> db.Database.exec_engine <- saved)
                  (fun () -> Runner.recompute_rows v)
              in
              let got = Runner.visible_rows v in
              if expected <> got then
                raise
                  (Check_failed
                     ( point,
                       diff_message
                         ~what:
                           (Printf.sprintf "view %s != full recompute"
                              (Runner.view_name v))
                         ~expected ~got )))
           views
       in
       check Initial;
       List.iteri
         (fun i stmt ->
            phase := Step i;
            ignore (Database.exec db stmt);
            check (Step i))
         case.Case.workload;
       Ok !checks
     with
     | Check_failed (p, m) -> Error (p, m)
     | e -> Error (!phase, Printexc.to_string e))

(* --- the query differential: optimizer and pretty/parse roundtrip --- *)

let sorted_rows db sql =
  List.sort String.compare
    (List.map Row.to_string (Database.query db sql).Database.rows)

let run_queries (case : Case.t) (engines : Exec.engine list) :
  (int, Exec.engine option * (point * string)) result =
  if case.Case.queries = [] then Ok 0
  else begin
    let checks = ref 0 in
    let phase = ref (Query 0) in
    let cur_engine = ref None in
    try
      let db = Database.create () in
      exec_all db case.Case.schema;
      exec_all db case.Case.setup;
      (* a view-less replay of the workload enriches the data set *)
      exec_all db case.Case.workload;
      List.iteri
        (fun i sql ->
           phase := Query i;
           let per_engine =
             List.map
               (fun engine ->
                  cur_engine := Some engine;
                  db.Database.exec_engine <- engine;
                  let optimized = sorted_rows db sql in
                  db.Database.optimizer_enabled <- false;
                  let plain =
                    Fun.protect
                      ~finally:(fun () -> db.Database.optimizer_enabled <- true)
                      (fun () -> sorted_rows db sql)
                  in
                  incr checks;
                  if plain <> optimized then
                    raise
                      (Check_failed
                         ( Query i,
                           diff_message
                             ~what:("optimizer changes results: " ^ sql)
                             ~expected:plain ~got:optimized ));
                  let reprinted =
                    Openivm_sql.Pretty.stmt_to_sql Dialect.minidb
                      (Openivm_sql.Parser.parse_statement sql)
                  in
                  incr checks;
                  let roundtrip = sorted_rows db reprinted in
                  if roundtrip <> optimized then
                    raise
                      (Check_failed
                         ( Query i,
                           diff_message
                             ~what:
                               (Printf.sprintf
                                  "print/parse roundtrip changes results: %s \
                                   -> %s"
                                  sql reprinted)
                             ~expected:optimized ~got:roundtrip ));
                  (engine, optimized))
               engines
           in
           (* the executor differential: every engine must produce the
              same bag of rows for the same SELECT *)
           match per_engine with
           | [] -> ()
           | (e0, rows0) :: rest ->
             List.iter
               (fun (e, rows) ->
                  cur_engine := Some e;
                  incr checks;
                  if rows <> rows0 then
                    raise
                      (Check_failed
                         ( Query i,
                           diff_message
                             ~what:
                               (Printf.sprintf
                                  "executors disagree (%s vs %s): %s"
                                  (Exec.engine_to_string e)
                                  (Exec.engine_to_string e0) sql)
                             ~expected:rows0 ~got:rows )))
               rest)
        case.Case.queries;
      Ok !checks
    with
    | Check_failed (p, m) -> Error (!cur_engine, (p, m))
    | e -> Error (!cur_engine, (!phase, Printexc.to_string e))
  end

(* --- the full matrix --- *)

let make_failure case ?strategy ?dialect ?engine (point, msg) =
  let engine_tag =
    match engine with
    | Some e -> Exec.engine_to_string e
    | None -> ""
  in
  let where =
    match strategy, dialect with
    | Some s, Some d ->
      Printf.sprintf "[%s/%s%s] " (Flags.strategy_to_string s) d.Dialect.name
        (if engine_tag = "" then "" else "/" ^ engine_tag)
    | _ -> if engine_tag = "" then "" else Printf.sprintf "[%s] " engine_tag
  in
  { case; strategy; dialect; engine; point;
    message =
      Printf.sprintf "%s%s: %s\n  reproduce: %s" where (point_to_string point)
        msg
        (Case.command ?strategy ?dialect ?engine case) }

let run (case : Case.t) : outcome =
  let checks = ref 0 in
  let engines = Case.engines case in
  match run_queries case engines with
  | Error (engine, e) ->
    { checks = !checks; failure = Some (make_failure case ?engine e) }
  | Ok n ->
    checks := !checks + n;
    let rec over_configs = function
      | [] -> { checks = !checks; failure = None }
      | (strategy, dialect, engine) :: rest ->
        (match run_view_config case strategy dialect engine with
         | Ok n ->
           checks := !checks + n;
           over_configs rest
         | Error e ->
           { checks = !checks;
             failure = Some (make_failure case ~strategy ~dialect ~engine e) })
    in
    over_configs
      (List.concat_map
         (fun s ->
            List.concat_map
              (fun d -> List.map (fun e -> (s, d, e)) engines)
              (Case.dialects case))
         (Case.strategies case))

(** The shrinker's predicate: [Some message] when the case still fails. *)
let first_failure (case : Case.t) : string option =
  match (run case).failure with
  | None -> None
  | Some f -> Some f.message
