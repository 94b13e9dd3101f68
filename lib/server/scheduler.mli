(** The single-writer scheduler: concurrent sessions submit DML into a
    pending queue; a refresh {e tick} drains the queue, applies every
    admitted unit in FIFO order, and lets the views fold the whole
    tick's captured deltas in one consolidated Z-set propagation each —
    the cross-session generalization of {!Openivm.Flags.consolidate_deltas}
    (one hot session's churn nets out; N sessions' churn nets out N times
    harder when batched into the same tick).

    Concurrency contract:
    - all database access (applying units, propagating, reading) runs
      under one internal mutex — a reader can never observe a
      half-applied tick, and a tick can never interleave with another;
    - a {e unit} (one DML statement, or one committed transaction's
      statement list) applies all-or-nothing inside one
      {!Openivm_engine.Database.atomically}: if any statement fails, the
      undo journal reverts exactly the rows this unit wrote (base, delta
      and view tables alike, so also what the views have pending), at a
      cost that follows the unit's own change, not the tables' sizes. A
      failed unit never eats deltas queued by earlier units of the same
      tick. Each DML statement is a savepoint of its own, opened by
      {!Openivm_engine.Database.exec_stmt};
    - a unit of several statements may not contain DDL: on reaching a
      DDL statement, before it runs, the unit fails with code [TXN] and
      is rolled back like any failed unit, because rollback reverts
      rows, not catalog changes;
    - views requested [Eager] refresh once at the end of the tick; lazy
      views refresh on the first read after a tick, and at most once per
      tick even under N concurrent readers: a view's pending deltas are
      its delta tables' rows, the first read folds them, and a read that
      finds them empty does not refresh ({!Openivm.Runner.refresh_for_query};
      this matters for [Full_recompute] plans, which would otherwise
      recompute on every read). *)

open Openivm_engine

type t

val create : ?quota:Quota.config -> Openivm.Runner.extension -> t
(** Wrap an extension. Views installed through the scheduler always
    capture deltas lazily (per-statement eager refresh would propagate
    mid-tick); the extension's {!Openivm.Flags.refresh} mode instead
    selects whether a view refreshes at tick end ([Eager]) or on first
    read ([Lazy]). *)

(** {1 Sessions} *)

val open_session : t -> int
(** Allocate a session id (and count it in the session metrics). *)

val close_session : t -> unit

(** {1 Submitting units} *)

type outcome =
  | Applied of { affected : int; installed : string list }
  | Failed of { code : string; message : string }
      (** the unit was rolled back all-or-nothing *)

type ticket

type submit_result =
  | Queued of ticket
  | Rejected of string  (** admission control refused: Overloaded reply *)

val submit :
  t -> session_id:int -> tenant:string -> Openivm_sql.Ast.stmt list ->
  submit_result
(** Enqueue one unit of parsed statements, parsed once by whoever
    received their text ({!Session.exec}); the scheduler never parses.
    Does not block and does not run a tick. Each statement then applies
    through {!Openivm.Runner.exec_ext}, under the scheduler's own policy:
    DDL inside a multi-statement unit is refused ([TXN]); a [CREATE
    MATERIALIZED VIEW] is compiled from the query it holds and installed
    with lazy capture (see {!create}); a [SELECT] takes the read path of
    {!read}; dropping a maintained view also forgets its refresh mode. *)

val await : t -> ticket -> outcome
(** Block until the unit's tick has applied it. When no background
    ticker is attached, the awaiting thread runs the tick itself, at
    once: a tick takes whatever is queued at that moment, which is
    seldom more than the awaiting unit. Units from several sessions
    share a tick only under a background ticker ([serve
    --tick-interval > 0]); in the [multi_session_churn] bench rows,
    which run without one, 160 units take 158–160 ticks at 1, 4 and 16
    sessions. *)

val exec_unit :
  t -> session_id:int -> tenant:string ->
  Openivm_sql.Ast.stmt list -> [ `Outcome of outcome | `Overloaded of string ]
(** [submit] + [await]. *)

(** {1 Reads} *)

val read : t -> Openivm_sql.Ast.select -> Database.query_result
(** Run a SELECT under the scheduler lock, first refreshing every
    maintained view the query touches that has deltas pending
    ({!Openivm.Runner.refresh_for_query}). Raises {!Error.Sql_error} like
    {!Database.run_select}. *)

(** {1 Ticks} *)

val tick : t -> int
(** Run one tick now (no-op when the queue is empty). Returns the number
    of units applied. *)

val drain : t -> unit
(** Tick until the queue is empty, then refresh every maintained view —
    the quiesce point used at shutdown and by the soak's final check. *)

val set_ticker_running : t -> bool -> unit
(** Tell awaiters a background thread is driving ticks (they block
    instead of self-ticking). Clearing it wakes all awaiters. *)

(** {1 Introspection} *)

type stats = {
  ticks : int;
  units_applied : int;          (** successfully applied units *)
  units_failed : int;           (** units rolled back *)
  multi_session_ticks : int;
      (** ticks that consolidated deltas from >= 2 distinct sessions
          into the same propagation *)
  overloaded : int;             (** submissions bounced by admission *)
  queue_depth : int;            (** pending units right now *)
  sessions_opened : int;
  max_tick_units : int;         (** largest batch one tick applied *)
}

val stats : t -> stats

val set_record_journal : t -> bool -> unit
(** Record every successfully applied statement, in apply order — the
    serial history the soak replays sequentially as its oracle. *)

val journal : t -> Openivm_sql.Ast.stmt list
