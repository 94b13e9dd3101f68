(** The durable store: a database + OpenIVM extension whose committed
    state survives process death.

    Durability = WAL + checkpoints. Every committed statement (and every
    HTAP bridge batch) appends a {!Wal} record {e after} applying, so a
    record's presence certifies the operation; {!checkpoint} folds the
    log into an atomic {!Checkpoint} snapshot and truncates it. Opening a
    directory runs recovery: load the newest valid checkpoint, reattach
    its materialized views from the [_openivm_backfill_progress] ledger,
    replay the WAL tail (records at or below the checkpoint's sequence
    number are skipped — a crash between checkpoint and truncation is
    harmless), repair any torn tail, fast-forward the bridge watermarks,
    and resume interrupted backfills from their last completed chunk.

    Initial materialization is a resumable staged backfill: a
    [CREATE MATERIALIZED VIEW] logs an [Install] record, then fills the
    view in {!Openivm.Runner.backfill_chunk} chunks, each logged and
    recorded in the progress ledger — a killed install resumes at the
    last completed chunk, not at chunk 0. *)

open Openivm_engine

type t

(** What {!open_} did to bring the directory back. *)
type recovery_info = {
  checkpoint_seq : int;     (** 0 = started from an empty database *)
  replayed : int;           (** WAL tail records replayed *)
  torn_tail : bool;         (** an unreadable tail was discarded *)
  views_reattached : int;   (** views restored from the checkpoint ledger *)
  backfills_resumed : (string * int) list;
      (** interrupted installs finished during recovery:
          (view, chunk index resumed from) *)
}

val open_ :
  ?flags:Openivm.Flags.t ->
  ?faults:Openivm_htap.Fault.t ->
  ?chunk_rows:int ->
  dir:string -> unit -> t
(** Open (creating if needed) a durable store at [dir] and run recovery.
    [chunk_rows] (default 256) sizes backfill chunks for new installs;
    [faults] arms the storage fault harness — injected crashes raise
    {!Openivm_htap.Fault.Injected_crash}, after which the store object
    is dead and the directory must be reopened. *)

val dir : t -> string
val db : t -> Database.t
val ext : t -> Openivm.Runner.extension
val views : t -> Openivm.Runner.view list
val find_view : t -> string -> Openivm.Runner.view option
val last_recovery : t -> recovery_info
val committed_seq : t -> int
(** Sequence number of the last durably committed record. *)

val exec :
  t -> string ->
  [ `Result of Database.exec_result | `Installed of Openivm.Runner.view ]
(** Execute one statement durably: apply, then log. The statement is
    parsed once, here, and {!Openivm.Runner.exec_ext} applies the parsed
    form; recovery parses each logged statement once. SELECTs refresh
    lazy views and are not logged; [CREATE MATERIALIZED VIEW] runs the
    staged backfill; [DROP TABLE] of a maintained view uninstalls it and
    clears its ledger row. *)

val log_batch :
  t -> view:string -> source:string -> seq:int -> replica:bool ->
  Row.t list -> unit
(** Journal an HTAP bridge batch that was just applied to this store's
    database (wire as {!Openivm_htap.Pipeline}'s [on_apply], before the
    outbox acknowledgement): recovery replays it — delta rows, replica
    rows, watermark — so the exactly-once protocol survives restart. *)

val checkpoint : t -> string
(** Fold the log into a new checkpoint and truncate it; returns the
    checkpoint directory. Raises {!Error.Sql_error} while a backfill is
    incomplete (interrupted and not yet resumed). *)

val verify : t -> bool
(** Every maintained view agrees with recomputing its defining query. *)

val close : t -> unit
(** Flush and close the WAL. Using the store afterwards raises. *)
