(** The extension module: OpenIVM inside the engine (paper Figure 2).

    [install] executes the compiled DDL, performs the initial load, stores
    the propagation scripts (metadata tables, optionally on disk) and
    registers capture hooks on the base tables. Refresh policy follows
    {!Flags.refresh_mode}: [Eager] propagates per change, [Lazy] (the
    demo's choice) on read. *)

open Openivm_engine

type view = {
  compiled : Compiler.t;
  db : Database.t;
  mutable pending_deltas : int;
  mutable refresh_count : int;
  mutable refresh_time : float;
      (** total seconds spent propagating, measured through the
          injectable {!Openivm_obs.Clock} *)
  mutable capture_enabled : bool;
  mutable upstreams : view list;
      (** maintained views this view reads (cascade DAG parents) *)
  mutable downstreams : view list;
      (** maintained views reading this view (cascade DAG children) *)
  mutable in_refresh : bool;
      (** propagation in flight (re-entrancy guard) *)
}

val view_name : view -> string

val dag_level : view -> int
(** 0 for a view over base tables only; 1 + deepest upstream otherwise. *)

val install :
  ?flags:Flags.t -> ?registry:view list ->
  ?load:[ `Immediate | `Deferred | `Attach ] ->
  Database.t -> string -> view
(** Compile and install a [CREATE MATERIALIZED VIEW] statement. The view
    definition may reference previously installed materialized views;
    pass their handles as [registry] so the cascade DAG links up (the
    {!extension} does this automatically). Registers the view in the
    catalog's materialized-view registry; cycles raise
    {!Compiler.Unsupported_view} with diagnostic IVM201.

    [load] (default [`Immediate]) supports the durable store's staged
    installs: [`Deferred] runs DDL and metadata but skips the initial
    load (fill the view afterwards with {!backfill_chunk});
    [`Attach] skips DDL and load entirely — the tables were restored
    from a checkpoint — and only compiles, registers and re-arms
    capture triggers. *)

(** {1 Staged backfill}

    Resumable initial materialization: a [`Deferred] install is filled in
    [backfill_total_chunks] chunks, each a deterministic slot-order slice
    of the base table pushed through the delta pipeline. Replaying a
    prefix of chunk indexes over the same base state reproduces the same
    partial view, so a killed backfill resumes at the last completed
    chunk. *)

val backfill_chunkable : view -> bool
(** Whether the view's initial load can proceed in chunks (plain single
    base-table source). Joins and view-over-view sources load in one
    piece ([backfill_total_chunks] = 1). *)

val backfill_total_chunks : view -> chunk_rows:int -> int

val backfill_chunk : view -> chunk_rows:int -> index:int -> int
(** Apply chunk [index] (0-based): insert its base-table slice into the
    delta table with positive multiplicity and propagate. Returns the
    number of base rows folded in (0 for the whole-shot chunk of a
    non-chunkable view). *)

val uninstall : view -> unit
(** Unregister capture, drop the view's tables, clear its metadata.
    Raises {!Openivm_engine.Error.Sql_error} (IVM202) while maintained
    views still depend on this one. *)

val refresh : view -> unit
(** Refresh upstream views first (topological pull), then run the
    propagation script if deltas are pending. Eager downstream views are
    refreshed in a post-pass. *)

val force_refresh : view -> unit
(** Like {!refresh} but runs this view's propagation unconditionally. *)

val reinitialize : view -> unit
(** Rebuild the view from the base tables as they stand now: truncate the
    backing table and delta tables, rerun the initial load, reset pending
    deltas. Capture triggers, metadata and compiled scripts stay in
    place — the full-resync path of crash recovery. *)

val query : view -> string -> Database.query_result
(** Query through the view's refresh policy (lazy refresh-on-read). *)

val contents : ?order_by:string -> view -> Database.query_result
(** [SELECT * FROM view]. *)

val visible_rows : view -> string list
(** The view's visible contents as sorted row strings: hidden bookkeeping
    columns stripped, flat views expanded from weighted form back to bag
    semantics. Queries through the view's refresh policy. *)

val recompute_rows : view -> string list
(** Rerun the defining query from scratch against the current base tables,
    as sorted row strings. [visible_rows v = recompute_rows v] is the IVM
    correctness invariant the differential oracle checks. *)

(** {1 The extension entry point} *)

type extension = {
  ext_db : Database.t;
  ext_flags : Flags.t;
  mutable ext_views : view list;
}

val load : ?flags:Flags.t -> Database.t -> extension

val find_view : extension -> string -> view option

val refresh_tick : ?only:(view -> bool) -> extension -> int
(** Refresh the extension's maintained views (those satisfying [only],
    default all) at most once each, upstreams before downstreams. The
    serving layer's tick entry point: all deltas captured since the last
    tick fold in one consolidated propagation per view. Returns how many
    views actually propagated. *)

val atomically : extension -> (unit -> 'a) -> 'a
(** {!Database.atomically} on the extension's database that also restores
    every view's [pending_deltas] when [f] raises. A nested call is a
    savepoint. *)

val exec_ext :
  extension -> string ->
  [ `Result of Database.exec_result | `Installed of view ]
(** Execute with the extension active: [CREATE MATERIALIZED VIEW] is
    intercepted and compiled; SELECTs over maintained views refresh them
    first; [DROP TABLE v] on a maintained view uninstalls it; [DROP TABLE]
    of anything a maintained view reads raises IVM202; INSERT, UPDATE,
    DELETE and TRUNCATE run inside {!atomically}, so a failing statement
    leaves no rows, deltas or refreshes behind; everything else passes
    through. *)

val exec :
  ?flags:Flags.t -> Database.t -> string ->
  [ `Result of Database.exec_result | `Installed of view ]
(** One-shot variant without extension state (no query interception). *)
