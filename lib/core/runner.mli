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
  deltas : (string * Table.t) list;
      (** each base table with its delta table, resolved once at install *)
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

val pending_deltas : view -> int
(** The delta rows not yet folded into the view: the summed row count of
    its delta tables. There is no second copy to keep in step: a refresh
    empties the tables, and a rolled-back unit reverts their rows, and so
    this count, through the undo journal. *)

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
    load (fill the view afterwards with a {!backfill});
    [`Attach] skips DDL and load entirely — the tables were restored
    from a checkpoint — and only compiles, registers and re-arms
    capture triggers. *)

val install_select :
  ?flags:Flags.t -> ?registry:view list -> Database.t ->
  view_name:string -> Openivm_sql.Ast.select -> view
(** {!install} with an immediate load, from the already-parsed query of
    a [CREATE MATERIALIZED VIEW view_name AS query]: nothing is parsed
    again. *)

(** {1 Staged backfill}

    Resumable initial materialization: a [`Deferred] install is filled in
    [backfill_total_chunks] chunks pushed through the delta pipeline.
    Chunk [k] at [chunk_rows = c] is the base table's live rows of rank
    [k * c] to [(k + 1) * c - 1] in slot order, so replaying a prefix of
    chunk indexes over the same base state reproduces the same partial
    view, and a killed backfill resumes at the last completed chunk.

    A {!backfill} walks the base table once: it starts at a chunk, and
    each chunk reads on from the slot where the one before stopped. A
    whole install costs one pass over the base table plus one refresh
    per chunk. *)

val backfill_chunkable : view -> bool
(** Whether the view's initial load can proceed in chunks (plain single
    base-table source). Joins and view-over-view sources load in one
    piece ([backfill_total_chunks] = 1). *)

val backfill_total_chunks : view -> chunk_rows:int -> int

type backfill
(** A walk of one view's base table, positioned at a chunk. It is valid
    while the base table is unchanged; a chunk applied after the table's
    row count changed raises {!Error.Sql_error}. *)

val backfill_from : view -> chunk_rows:int -> index:int -> backfill
(** A walk positioned at chunk [index] (0-based): it steps over the live
    rows of the chunks before it. *)

val backfill_index : backfill -> int
(** The chunk {!backfill_next} applies next. *)

val backfill_next : backfill -> int
(** Apply the walk's next chunk: insert its rows into the delta table
    with positive multiplicity, propagate, and step past them. Returns
    the number of base rows folded in (0 for the whole-shot chunk of a
    non-chunkable view). *)

val uninstall : view -> unit
(** Unregister capture, drop the view's tables, clear its metadata.
    Raises {!Openivm_engine.Error.Sql_error} (IVM202) while maintained
    views still depend on this one. *)

val refresh : view -> unit
(** Refresh upstream views first (topological pull), then run the
    propagation script if {!pending_deltas} is not 0; a refresh whose
    delta tables are empty returns at once, whatever the plan (a
    [Full_recompute] view included). Eager downstream views are
    refreshed in a post-pass. *)

val force_refresh : view -> unit
(** Like {!refresh} but runs this view's propagation unconditionally. *)

val reinitialize : view -> unit
(** Rebuild the view from the base tables as they stand now: truncate the
    backing table and delta tables (so nothing is pending), rerun the
    initial load. Capture triggers, metadata and compiled scripts stay in
    place — the full-resync path of crash recovery. *)

val query : view -> string -> Database.query_result
(** {!refresh}, then run the query: a lazy view folds its deltas on
    read, and an eager one has nothing pending unless rows arrived in its
    delta tables by another path (a bridge batch). *)

val contents : ?order_by:string -> view -> Database.query_result
(** [SELECT * FROM view]. *)

val visible_rows : view -> string list
(** The view's visible contents as sorted row strings: hidden bookkeeping
    columns stripped, flat views expanded from weighted form back to bag
    semantics. Refreshes first, through {!query}. *)

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

val refresh_for_query : extension -> Openivm_sql.Ast.select -> unit
(** {!refresh} every maintained view the query reads. A view with empty
    delta tables returns at once, so a read after a refresh costs a row
    count per delta table. *)

val exec_ext :
  extension -> Openivm_sql.Ast.stmt ->
  [ `Result of Database.exec_result | `Installed of view ]
(** Execute a parsed statement with the extension active. This is the one
    place that decides which statements the extension intercepts; it
    parses nothing, so callers parse once at the edge that receives text.
    [CREATE MATERIALIZED VIEW] is compiled from the query it holds and
    installed; SELECTs over maintained views refresh them first; [DROP
    TABLE v] on a maintained view uninstalls it; [DROP TABLE] of anything
    a maintained view reads raises IVM202; INSERT, UPDATE, DELETE and
    TRUNCATE of a view's backing table raise IVM203. Everything else,
    DML on any other table included, goes to {!Database.exec_stmt},
    which runs each DML statement all-or-nothing: a failing one leaves
    no rows, deltas or refreshes behind. *)
