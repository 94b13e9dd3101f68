(** Cross-system IVM orchestration (paper Figure 3): a transactional
    workload runs against the OLTP engine; captured deltas travel over the
    bridge into the OLAP engine's delta tables; the compiled propagation
    script folds them into the materialized view. Views whose propagation
    reads base tables (joins, MIN/MAX rederivation) additionally keep
    OLAP-side replicas in sync from the same delta stream.

    Delivery is exactly-once end to end: OLTP-side acknowledge-then-
    truncate outbox, per-source watermarks in [_openivm_bridge_watermarks]
    making duplicate/replayed batches no-ops, all-or-nothing batch apply
    with undo-journal rollback, bounded retry with exponential backoff, and a
    {!recover} ladder (drain → replay → full resync) after a simulated
    OLAP crash. *)

open Openivm_engine

(** Delivery and recovery counters (all cumulative). *)
type stats = {
  mutable retries : int;          (** resends of an unacknowledged batch *)
  mutable deduped : int;          (** duplicate batches skipped by watermark *)
  mutable checksum_failures : int;(** corrupted batches detected, discarded *)
  mutable gaps : int;             (** out-of-order arrivals ahead of the watermark *)
  mutable crashes : int;          (** mid-apply crashes injected (rolled back) *)
  mutable batches_applied : int;
  mutable rows_applied : int;
  mutable replica_misses : int;   (** replica deletions that found no row *)
  mutable recoveries : int;
  mutable resyncs : int;          (** full rebuilds from base tables *)
}

type t = {
  oltp : Oltp.t;
  olap : Database.t;
  bridge : Bridge.t;
  view : Openivm.Runner.view;
  base_tables : string list;
  needs_replica : bool;
  strict_replica : bool;
  max_retries : int;
  backoff_base : float;
  on_apply :
    (source:string -> seq:int -> replica:bool -> Row.t list -> unit) option;
      (** durability hook: called after a batch landed and its watermark
          advanced, before the outbox acknowledgement *)
  stats : stats;
  mutable crashed : bool;
  mutable syncs : int;
}

val create :
  ?flags:Openivm.Flags.t ->
  ?oltp_latency:float ->
  ?bridge:Bridge.t ->
  ?strict_replica:bool ->
  ?max_retries:int ->
  ?backoff_base:float ->
  ?olap:Database.t ->
  ?view:Openivm.Runner.view ->
  ?on_apply:(source:string -> seq:int -> replica:bool -> Row.t list -> unit) ->
  schema_sql:string ->
  view_sql:string ->
  unit ->
  t
(** [schema_sql] (CREATE TABLE statements, [;]-separated) runs on both
    engines; [view_sql] is compiled and installed on the OLAP side;
    capture triggers are registered on the OLTP side. Pass a [bridge]
    created with a {!Fault} harness to inject failures. [strict_replica]
    turns silent replica divergence into an error; [max_retries] (default
    8) bounds resends per sync; [backoff_base] (default 50µs) seeds the
    exponential backoff between resends.

    [olap] and [view] together attach the pipeline to an existing OLAP
    database — a durable store recovered from disk — instead of creating
    the schema and installing the view anew. [on_apply] journals each
    applied batch before it is acknowledged: a store that dies inside the
    hook leaves the batch unacknowledged, and redelivery is deduplicated
    by the recovered watermark — exactly-once survives the restart. *)

val view : t -> Openivm.Runner.view
val olap : t -> Database.t
val oltp : t -> Oltp.t
val stats : t -> stats

val crashed : t -> bool
(** Is the OLAP side down (a mid-apply crash was injected and not yet
    recovered)? While down, {!sync} is a no-op and {!query} raises. *)

val exec_oltp : t -> string -> Database.exec_result
(** Run a transactional statement on the OLTP side. *)

val sync : t -> int
(** Ship pending outbox batches OLTP → OLAP with bounded retry and
    idempotent apply; returns the number of delta rows applied. *)

val query : t -> string -> Database.query_result
(** Sync, lazily refresh, then query the OLAP side. Raises
    {!Error.Sql_error} while {!crashed}. *)

val view_contents : ?order_by:string -> t -> Database.query_result

val verify : t -> bool
(** Does the materialized view agree exactly with recomputing its defining
    query over the current OLTP state? False while {!crashed}. *)

(** {1 Crash recovery} *)

type recovery = {
  replayed : int;   (** outbox batches landed by replay *)
  resynced : bool;  (** replay was not enough: rebuilt from base tables *)
  converged : bool; (** view = full recompute afterwards *)
  phases : (string * float) list;
      (** per-phase wall-clock seconds, in execution order: [drain],
          [replay], [verify], then (only when replay was not enough)
          [resync] and [reverify] *)
}

val pp_phases : recovery -> string list
(** The [phases] as structured [recover-phase phase=... seconds=...]
    lines, one per phase. *)

val recover : ?log:(string -> unit) -> t -> recovery
(** The recovery ladder after an OLAP crash (also safe on a healthy
    pipeline): drain in-flight batches, replay unacknowledged outbox
    batches over a healthy link (idempotent apply makes duplicates
    no-ops), and — if the view still disagrees with the ground truth —
    full resync from the base tables. [log] receives one structured
    timing line per phase as it completes (see {!pp_phases}). *)

val full_resync : t -> unit
(** Rebuild the OLAP side from scratch: abandon outboxes and in-flight
    traffic, re-copy base tables over the bridge, rerun the view's initial
    load, fast-forward watermarks — the paper's non-IVM baseline, paid
    once. *)

val query_without_ivm : t -> Database.query_result
(** The non-IVM cross-system baseline: ship the entire base tables over
    the bridge and recompute the defining query. *)
