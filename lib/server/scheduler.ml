(** Single-writer tick scheduler. See the .mli for the concurrency
    contract; the load-bearing invariants in here:

    - [t.lock] guards everything: the queue, the quota, the database and
      the views. Ticks, reads and submissions all run under it.
    - a unit runs inside {!Database.atomically}: on failure the undo
      journal reverts exactly the rows this unit wrote (base, delta and
      any view tables alike), so deltas queued by earlier units of the
      same tick survive.
    - what a view has not folded is the rows of its delta tables, so a
      read refreshes a view only when those are not empty: once per view
      per tick of writes, however many readers follow. *)

open Openivm_engine
module Runner = Openivm.Runner
module Flags = Openivm.Flags
module Compiler = Openivm.Compiler
module Ast = Openivm_sql.Ast
module Metrics = Openivm_obs.Metrics
module Span = Openivm_obs.Span
module Clock = Openivm_obs.Clock

type outcome =
  | Applied of { affected : int; installed : string list }
  | Failed of { code : string; message : string }

type state = Pending | Done of outcome

type ticket = {
  u_session : int;
  u_tenant : string;
  u_stmts : Ast.stmt list;
  mutable u_state : state;
}

type submit_result =
  | Queued of ticket
  | Rejected of string

type t = {
  ext : Runner.extension;
  quota : Quota.t;
  lock : Mutex.t;
  cond : Condition.t;
  queue : ticket Queue.t;
  mutable tick_count : int;
  eager_views : (string, unit) Hashtbl.t;
  mutable ticker_running : bool;
  mutable session_seq : int;
  mutable active_sessions : int;
  mutable stat_units_applied : int;
  mutable stat_units_failed : int;
  mutable stat_multi_ticks : int;
  mutable stat_overloaded : int;
  mutable stat_max_tick_units : int;
  mutable record_journal : bool;
  mutable journal_rev : Ast.stmt list;
}

(* Process-global handles: several schedulers in one process share the
   registry entries, which is the Prometheus-correct aggregation. *)
let m_ticks =
  Metrics.counter ~help:"Refresh ticks run" "openivm_server_ticks_total"

let m_tick_units =
  Metrics.counter ~help:"Units applied by refresh ticks"
    "openivm_server_tick_units_total"

let m_multi_ticks =
  Metrics.counter
    ~help:"Ticks consolidating deltas from >= 2 sessions into one propagation"
    "openivm_server_multi_session_ticks_total"

let m_rollbacks =
  Metrics.counter ~help:"Units rolled back all-or-nothing"
    "openivm_server_rollbacks_total"

let m_overloaded =
  Metrics.counter ~help:"Submissions bounced by admission control"
    "openivm_server_overloaded_total"

let m_sessions_total =
  Metrics.counter ~help:"Sessions opened" "openivm_server_sessions_total"

let g_sessions =
  Metrics.gauge ~help:"Sessions currently open" "openivm_server_sessions_active"

let g_queue =
  Metrics.gauge ~help:"Units pending in the scheduler queue"
    "openivm_server_queue_depth"

let h_tick =
  Metrics.histogram ~help:"Wall-clock seconds per refresh tick"
    "openivm_server_tick_seconds"

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create ?(quota = Quota.default_config) ext =
  {
    ext;
    quota = Quota.create quota;
    lock = Mutex.create ();
    cond = Condition.create ();
    queue = Queue.create ();
    tick_count = 0;
    eager_views = Hashtbl.create 16;
    ticker_running = false;
    session_seq = 0;
    active_sessions = 0;
    stat_units_applied = 0;
    stat_units_failed = 0;
    stat_multi_ticks = 0;
    stat_overloaded = 0;
    stat_max_tick_units = 0;
    record_journal = false;
    journal_rev = [];
  }

let open_session t =
  with_lock t (fun () ->
      t.session_seq <- t.session_seq + 1;
      t.active_sessions <- t.active_sessions + 1;
      Metrics.incr m_sessions_total;
      Metrics.set_gauge_int g_sessions t.active_sessions;
      t.session_seq)

let close_session t =
  with_lock t (fun () ->
      if t.active_sessions > 0 then t.active_sessions <- t.active_sessions - 1;
      Metrics.set_gauge_int g_sessions t.active_sessions)

(* ------------------------------------------------------------------ *)
(* Applying one statement (lock held)                                  *)

(* Views installed through the scheduler must not propagate per
   statement: the whole point of a tick is one consolidated propagation.
   Force Lazy at install time and remember the requested mode — Eager
   views are refreshed by the tick itself, Lazy ones by the first read. *)
let install_view t ~view query =
  let flags = { t.ext.Runner.ext_flags with Flags.refresh = Lazy } in
  let v =
    Runner.install_select ~flags ~registry:t.ext.Runner.ext_views
      t.ext.Runner.ext_db ~view_name:view query
  in
  t.ext.Runner.ext_views <- v :: t.ext.Runner.ext_views;
  (match t.ext.Runner.ext_flags.Flags.refresh with
  | Eager -> Hashtbl.replace t.eager_views (Runner.view_name v) ()
  | Lazy -> ());
  v

let read_locked t q =
  Runner.refresh_for_query t.ext q;
  Database.run_select t.ext.Runner.ext_db q

exception Ddl_in_transaction

(* The scheduler's own policy over {!Runner.exec_ext}, which decides
   everything else. [in_txn]: the statement is one of several in a unit.
   A DDL statement there is refused before it runs, which fails and rolls
   back the whole unit, because rollback reverts rows, not catalog
   changes: a view installed by a unit that later fails would stay
   registered over reverted tables. *)
let apply_stmt t ~in_txn (stmt : Ast.stmt) =
  match stmt with
  | (Ast.Create_table _ | Ast.Create_view _ | Ast.Create_index _ | Ast.Drop _)
    when in_txn ->
      raise Ddl_in_transaction
  | Ast.Create_view { view; materialized = true; query } ->
      `Installed (install_view t ~view query)
  | Ast.Select_stmt q -> `Result (Database.Rows (read_locked t q))
  | Ast.Drop { name; _ } when Runner.find_view t.ext name <> None ->
      let r = Runner.exec_ext t.ext stmt in
      Hashtbl.remove t.eager_views name;
      r
  | _ -> Runner.exec_ext t.ext stmt

(* ------------------------------------------------------------------ *)
(* Units and rollback                                                  *)

let apply_unit t u =
  Span.with_span "server.apply_unit"
    ~attrs:
      [
        ("session", Span.Int u.u_session);
        ("tenant", Span.Str u.u_tenant);
        ("statements", Span.Int (List.length u.u_stmts));
      ]
    (fun _ ->
      let fail code message =
        t.stat_units_failed <- t.stat_units_failed + 1;
        Metrics.incr m_rollbacks;
        Failed { code; message }
      in
      let in_txn = List.compare_length_with u.u_stmts 1 > 0 in
      match
        Database.atomically t.ext.Runner.ext_db (fun () ->
            List.fold_left
              (fun (affected, installed) stmt ->
                match apply_stmt t ~in_txn stmt with
                | `Result (Database.Affected n) -> (affected + n, installed)
                | `Result _ -> (affected, installed)
                | `Installed v -> (affected, Runner.view_name v :: installed))
              (0, []) u.u_stmts)
      with
      | affected, installed ->
          if t.record_journal then
            t.journal_rev <- List.rev_append u.u_stmts t.journal_rev;
          t.stat_units_applied <- t.stat_units_applied + 1;
          Applied { affected; installed = List.rev installed }
      | exception Error.Sql_error msg -> fail "SQL" msg
      | exception Compiler.Unsupported_view msg -> fail "VIEW" msg
      | exception Ddl_in_transaction ->
          fail "TXN" "DDL is not allowed inside a transaction")

(* ------------------------------------------------------------------ *)
(* Ticks                                                               *)

let refresh_eager_locked t =
  if Hashtbl.length t.eager_views > 0 then
    ignore
      (Runner.refresh_tick
         ~only:(fun v -> Hashtbl.mem t.eager_views (Runner.view_name v))
         t.ext)

let tick_locked t =
  if Queue.is_empty t.queue then 0
  else begin
    let max_batch = (Quota.config t.quota).Quota.max_batch_per_tick in
    Span.with_span "server.tick"
      ~attrs:[ ("tick", Span.Int (t.tick_count + 1)) ]
      (fun sp ->
        let t0 = Clock.now () in
        let batch = ref [] in
        while
          (not (Queue.is_empty t.queue)) && List.length !batch < max_batch
        do
          batch := Queue.pop t.queue :: !batch
        done;
        let batch = List.rev !batch in
        let sessions = Hashtbl.create 8 in
        List.iter
          (fun u ->
            let outcome = apply_unit t u in
            u.u_state <- Done outcome;
            Quota.release t.quota ~tenant:u.u_tenant;
            match outcome with
            | Applied _ -> Hashtbl.replace sessions u.u_session ()
            | Failed _ -> ())
          batch;
        t.tick_count <- t.tick_count + 1;
        refresh_eager_locked t;
        let n = List.length batch in
        t.stat_max_tick_units <- max t.stat_max_tick_units n;
        if Hashtbl.length sessions >= 2 then begin
          t.stat_multi_ticks <- t.stat_multi_ticks + 1;
          Metrics.incr m_multi_ticks
        end;
        Metrics.incr m_ticks;
        Metrics.add m_tick_units n;
        Metrics.set_gauge_int g_queue (Queue.length t.queue);
        Metrics.observe h_tick (Clock.now () -. t0);
        Span.set_int sp "units" n;
        Span.set_int sp "sessions" (Hashtbl.length sessions);
        Condition.broadcast t.cond;
        n)
  end

let tick t = with_lock t (fun () -> tick_locked t)

let drain t =
  with_lock t (fun () ->
      while not (Queue.is_empty t.queue) do
        ignore (tick_locked t)
      done;
      ignore (Runner.refresh_tick t.ext))

let set_ticker_running t b =
  with_lock t (fun () ->
      t.ticker_running <- b;
      if not b then Condition.broadcast t.cond)

(* ------------------------------------------------------------------ *)
(* Submission                                                          *)

let submit t ~session_id ~tenant stmts =
  with_lock t (fun () ->
      match
        Quota.admit t.quota ~tenant ~queue_depth:(Queue.length t.queue)
      with
      | Quota.Overloaded reason ->
          t.stat_overloaded <- t.stat_overloaded + 1;
          Metrics.incr m_overloaded;
          Rejected reason
      | Quota.Admitted ->
          let u =
            {
              u_session = session_id;
              u_tenant = tenant;
              u_stmts = stmts;
              u_state = Pending;
            }
          in
          Queue.add u t.queue;
          Metrics.set_gauge_int g_queue (Queue.length t.queue);
          Queued u)

let await t u =
  with_lock t (fun () ->
      let rec wait () =
        match u.u_state with
        | Done outcome -> outcome
        | Pending ->
            if t.ticker_running then Condition.wait t.cond t.lock
            else ignore (tick_locked t);
            wait ()
      in
      wait ())

let exec_unit t ~session_id ~tenant stmts =
  match submit t ~session_id ~tenant stmts with
  | Rejected reason -> `Overloaded reason
  | Queued u -> `Outcome (await t u)

(* ------------------------------------------------------------------ *)
(* Reads, stats, journal                                               *)

let read t q = with_lock t (fun () -> read_locked t q)

type stats = {
  ticks : int;
  units_applied : int;
  units_failed : int;
  multi_session_ticks : int;
  overloaded : int;
  queue_depth : int;
  sessions_opened : int;
  max_tick_units : int;
}

let stats t =
  with_lock t (fun () ->
      {
        ticks = t.tick_count;
        units_applied = t.stat_units_applied;
        units_failed = t.stat_units_failed;
        multi_session_ticks = t.stat_multi_ticks;
        overloaded = t.stat_overloaded;
        queue_depth = Queue.length t.queue;
        sessions_opened = t.session_seq;
        max_tick_units = t.stat_max_tick_units;
      })

let set_record_journal t b = with_lock t (fun () -> t.record_journal <- b)

let journal t = with_lock t (fun () -> List.rev t.journal_rev)
