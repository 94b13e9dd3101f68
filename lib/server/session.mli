(** One client session: a session id, a tenant (the admission-control
    unit), and a transaction buffer.

    Statement routing:
    - [SELECT] runs immediately on the scheduler's read path (reads see
      every completed tick — read-committed — even mid-transaction);
    - DML outside a transaction submits a single-statement unit and
      waits for its tick;
    - [BEGIN] opens a buffer; DML inside it is queued client-side and
      [COMMIT] submits the whole buffer as one all-or-nothing unit
      (rolled back through the undo journal if any statement fails);
    - DDL (CREATE/DROP) is refused inside a transaction — the journal
      reverts rows, not catalog changes, so units mix DML only and
      rollback is always exact. *)

type t

type reply =
  | Affected of int              (** DML applied; row count *)
  | Rows of { cols : string list; rows : string list }
  | Msg of string                (** BEGIN/ROLLBACK/DDL acknowledgements *)
  | Queued of int                (** DML buffered in an open txn; depth *)
  | Overloaded of string         (** bounced by admission control *)
  | Failed of { code : string; message : string }

val create : Scheduler.t -> tenant:string -> t
val id : t -> int
val tenant : t -> string
val in_txn : t -> bool

val exec : t -> string -> reply
(** Execute one SQL statement (or BEGIN/COMMIT/ROLLBACK). Never raises:
    engine and parse errors come back as [Failed]. *)

val close : t -> unit
(** Discard any open transaction buffer and release the session. *)
