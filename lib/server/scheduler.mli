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
      statement list) applies all-or-nothing through
      {!Openivm.Runner.atomically}: if any statement fails, the undo
      journal reverts exactly the rows this unit wrote (base, delta and
      view tables alike) and every view's pending-delta counter, at a
      cost that follows the unit's own change, not the tables' sizes. A
      failed unit never eats deltas queued by earlier units of the same
      tick. Each statement is also a savepoint of its own;
    - a unit of several statements may not contain DDL: on reaching a
      DDL statement, before it runs, the unit fails with code [TXN] and
      is rolled back like any failed unit, because rollback reverts
      rows, not catalog changes;
    - views requested [Eager] refresh once at the end of the tick; lazy
      views refresh on the first read after a tick, and at most once per
      tick even under N concurrent readers (the tick counter gates the
      refresh, which matters for [Full_recompute] plans that otherwise
      recompute on every read). *)

open Openivm_engine

type t

val create : ?quota:Quota.config -> Openivm.Runner.extension -> t
(** Wrap an extension. Views installed through the scheduler always
    capture deltas lazily (per-statement eager refresh would propagate
    mid-tick); the extension's {!Openivm.Flags.refresh} mode instead
    selects whether a view refreshes at tick end ([Eager]) or on first
    read ([Lazy]). *)

val extension : t -> Openivm.Runner.extension

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
  t -> session_id:int -> tenant:string -> string list -> submit_result
(** Enqueue one unit. Does not block and does not run a tick. *)

val await : t -> ticket -> outcome
(** Block until the unit's tick has applied it. When no background
    ticker is attached, the awaiting thread runs the tick itself — so
    units queued by other sessions in the meantime ride the same tick. *)

val exec_unit :
  t -> session_id:int -> tenant:string ->
  string list -> [ `Outcome of outcome | `Overloaded of string ]
(** [submit] + [await]. *)

(** {1 Reads} *)

val read : t -> Openivm_sql.Ast.select -> Database.query_result
(** Run a SELECT under the scheduler lock, first refreshing every lazy
    maintained view the query touches — at most once per tick. Raises
    {!Error.Sql_error} like {!Database.run_select}. *)

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

val journal : t -> string list
