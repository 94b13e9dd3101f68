(** The durable store. Commit protocol: apply in memory first, then
    append the WAL record — an operation is committed iff its record is
    durable, so a statement that fails to apply logs nothing, and a crash
    mid-append loses only the uncommitted tail. Recovery inverts the
    protocol: checkpoint → ledger reattach → WAL tail replay → backfill
    resume, all deterministic over the same inputs. *)

open Openivm_engine
module Runner = Openivm.Runner
module Compiler = Openivm.Compiler
module Flags = Openivm.Flags
module Metadata = Openivm.Metadata
module Fault = Openivm_htap.Fault
module Span = Openivm_obs.Span
module Metrics = Openivm_obs.Metrics
module Ast = Openivm_sql.Ast

let m_backfill_resumed =
  Metrics.counter "openivm_backfill_resumed_total"
    ~help:"interrupted staged backfills resumed during recovery"

type recovery_info = {
  checkpoint_seq : int;
  replayed : int;
  torn_tail : bool;
  views_reattached : int;
  backfills_resumed : (string * int) list;
}

type t = {
  dir : string;
  flags : Flags.t;
  chunk_rows : int;
  faults : Fault.t option;
  db : Database.t;
  ext : Runner.extension;
  wal : Wal.writer;
  mutable closed : bool;
  mutable last_recovery : recovery_info;
}

let dir t = t.dir
let db t = t.db
let ext t = t.ext
let views t = t.ext.Runner.ext_views
let find_view t name = Runner.find_view t.ext name
let last_recovery t = t.last_recovery
let committed_seq t = Wal.next_seq t.wal - 1

let exec_stmts db stmts =
  List.iter (fun s -> ignore (Database.exec_stmt db s)) stmts

let ensure_open t = if t.closed then Error.fail "store: already closed"

(* --- the backfill ledger --- *)

let read_ledger db : Metadata.backfill_row list =
  List.map
    (fun (row : Row.t) ->
       match row with
       | [| Value.Str bf_view; Value.Str bf_sql; Value.Str bf_strategy;
            Value.Str bf_dialect; Value.Str bf_refresh;
            Value.Int bf_chunk_rows; Value.Int bf_total_chunks;
            Value.Int bf_chunks_done; Value.Str bf_state;
            Value.Int bf_install_seq |] ->
         { Metadata.bf_view; bf_sql; bf_strategy; bf_dialect; bf_refresh;
           bf_chunk_rows; bf_total_chunks; bf_chunks_done; bf_state;
           bf_install_seq }
       | _ -> Error.fail "store: malformed backfill ledger row")
    (Database.query db Metadata.backfill_query).Database.rows

let ledger_row db view : Metadata.backfill_row option =
  List.find_opt (fun r -> r.Metadata.bf_view = view) (read_ledger db)

let mark_chunk_done db (row : Metadata.backfill_row) (index : int) : unit =
  let done_ = index + 1 in
  exec_stmts db
    (Metadata.backfill_set
       { row with
         Metadata.bf_chunks_done = done_;
         bf_state =
           (if done_ >= row.Metadata.bf_total_chunks then "done"
            else "running") })

(* Per-view flag overrides recorded in the ledger / Install records, so
   reattach and replay reproduce the original compilation even if the
   store was reopened with different defaults. *)
let flags_override (base : Flags.t) ~strategy ~dialect ~refresh : Flags.t =
  let f = base in
  let f =
    match Flags.strategy_of_string strategy with
    | Some s -> { f with Flags.strategy = s }
    | None -> f
  in
  let f =
    match Flags.refresh_of_string refresh with
    | Some r -> { f with Flags.refresh = r }
    | None -> f
  in
  let module D = Openivm_sql.Dialect in
  if dialect = D.postgres.D.name then { f with Flags.dialect = D.postgres }
  else if dialect = D.duckdb.D.name then { f with Flags.dialect = D.duckdb }
  else f

(* --- staged install (shared by live exec and WAL replay) --- *)

(** Deferred install + "running" ledger row; no chunks yet. *)
let stage_install ~db ~(ext : Runner.extension) ~flags ~chunk_rows
    ~install_seq (view_sql : string) :
  Runner.view * Metadata.backfill_row =
  let v =
    Runner.install ~flags ~registry:ext.Runner.ext_views ~load:`Deferred db
      view_sql
  in
  ext.Runner.ext_views <- v :: ext.Runner.ext_views;
  let row =
    { Metadata.bf_view = Runner.view_name v;
      bf_sql = view_sql;
      bf_strategy = Flags.strategy_to_string flags.Flags.strategy;
      bf_dialect = flags.Flags.dialect.Openivm_sql.Dialect.name;
      bf_refresh = Flags.refresh_to_string flags.Flags.refresh;
      bf_chunk_rows = chunk_rows;
      bf_total_chunks = Runner.backfill_total_chunks v ~chunk_rows;
      bf_chunks_done = 0;
      bf_state = "running";
      bf_install_seq = install_seq }
  in
  exec_stmts db (Metadata.backfill_set row);
  (v, row)

let roll_fault t kind =
  match t.faults with
  | Some f when Fault.roll f kind -> raise Fault.Injected_crash
  | _ -> ()

(** Run chunks [from .. total-1] of a staged install: apply, update the
    ledger, log. The [Chunk_crash] fault fires {e before} a chunk — the
    canonical killed-at-chunk-K injection point. *)
let run_chunks t (v : Runner.view) ~(row : Metadata.backfill_row)
    ~(from : int) : unit =
  for k = from to row.Metadata.bf_total_chunks - 1 do
    roll_fault t Fault.Chunk_crash;
    ignore
      (Runner.backfill_chunk v ~chunk_rows:row.Metadata.bf_chunk_rows
         ~index:k);
    mark_chunk_done t.db row k;
    ignore (Wal.append t.wal (Wal.Chunk { view = row.Metadata.bf_view;
                                          index = k }))
  done

let install_view t (sql : string) : Runner.view =
  (* apply-first-then-log needs the seq before the append: peek it *)
  let install_seq = Wal.next_seq t.wal in
  let v, row =
    stage_install ~db:t.db ~ext:t.ext ~flags:t.flags
      ~chunk_rows:t.chunk_rows ~install_seq sql
  in
  let logged =
    Wal.append t.wal
      (Wal.Install
         { view_sql = sql; chunk_rows = t.chunk_rows;
           strategy = row.Metadata.bf_strategy;
           dialect = row.Metadata.bf_dialect;
           refresh = row.Metadata.bf_refresh })
  in
  assert (logged = install_seq);
  run_chunks t v ~row ~from:0;
  v

(* --- bridge batches --- *)

let replay_batch db ext ~view ~source ~seq ~replica (rows : Row.t list) :
  unit =
  match Runner.find_view ext view with
  | None -> ()  (* the view was dropped later in the log *)
  | Some v ->
    let delta =
      Catalog.find_table (Database.catalog db)
        (Compiler.delta_table v.Runner.compiled source)
    in
    Trigger.without_hooks (Database.triggers db) (fun () ->
        List.iter
          (fun row ->
             Table.insert delta row;
             if replica then
               (* a deletion that finds no row was already a miss live *)
               ignore (Openivm_htap.Pipeline.apply_replica_row db ~base:source row))
          rows);
    exec_stmts db (Openivm.Metadata.set_watermark ~source ~seq)

let log_batch t ~view ~source ~seq ~replica (rows : Row.t list) : unit =
  ensure_open t;
  ignore (Wal.append t.wal (Wal.Batch { view; source; seq; replica; rows }))

(* --- statement execution --- *)

(** Apply a logged statement through the extension (shared by live exec
    and replay): DROP of a maintained view also clears its ledger row. *)
let apply_stmt db ext (stmt : Ast.stmt) :
  [ `Result of Database.exec_result | `Installed of Runner.view ] =
  let r = Runner.exec_ext ext stmt in
  (match stmt with
   | Ast.Drop { kind = `Table; name; _ } ->
     exec_stmts db (Metadata.backfill_delete ~view_name:name)
   | _ -> ());
  r

let exec t (sql : string) :
  [ `Result of Database.exec_result | `Installed of Runner.view ] =
  ensure_open t;
  match Openivm_sql.Parser.parse_statement sql with
  | Ast.Create_view { materialized = true; _ } ->
    `Installed (install_view t sql)
  | Ast.Select_stmt _ as stmt ->
    (* reads commit nothing: refresh + query, unlogged *)
    Runner.exec_ext t.ext stmt
  | stmt ->
    let r = apply_stmt t.db t.ext stmt in
    ignore (Wal.append t.wal (Wal.Stmt sql));
    r

(* --- checkpoint --- *)

let checkpoint t : string =
  ensure_open t;
  if List.exists (fun r -> r.Metadata.bf_state = "running") (read_ledger t.db)
  then Error.fail "store: cannot checkpoint while a backfill is incomplete";
  let last_seq = committed_seq t in
  let path = Checkpoint.save t.db ~dir:t.dir ~last_seq in
  (* Truncate_crash fires inside: death between checkpoint and truncation
     leaves a full WAL whose records all sit at or below the checkpoint's
     sequence number — recovery skips every one of them *)
  Wal.truncate t.wal;
  Checkpoint.prune ~dir:t.dir ~keep:2;
  path

let verify t : bool =
  (* fold all pending deltas first: recomputing a view-over-view reads
     its upstream's backing table, which is stale until that upstream
     refreshes (refresh pulls upstreams, so any order works) *)
  List.iter Runner.refresh t.ext.Runner.ext_views;
  List.for_all
    (fun v -> Runner.visible_rows v = Runner.recompute_rows v)
    t.ext.Runner.ext_views

let close t : unit =
  if not t.closed then begin
    t.closed <- true;
    Wal.close t.wal
  end

(* --- recovery --- *)

let wal_file = "wal.log"

let open_ ?(flags = Flags.default) ?faults ?(chunk_rows = 256)
    ~(dir : string) () : t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let wal_path = Filename.concat dir wal_file in
  Span.with_span "recovery" (fun sp ->
      (* 1. the log's valid prefix (repairing any torn tail) *)
      let wal_read = Wal.repair ~path:wal_path in
      (* 2. newest valid checkpoint, else an empty database *)
      let db, checkpoint_seq =
        match
          Span.with_span "recovery.checkpoint" (fun _ ->
              Checkpoint.load_latest ~dir)
        with
        | Some (db, seq) -> (db, seq)
        | None -> (Database.create ~name:"store" (), 0)
      in
      exec_stmts db Metadata.backfill_ddl;
      exec_stmts db Metadata.ddl;  (* IF NOT EXISTS, idempotent *)
      let ext = Runner.load ~flags db in
      (* 3. reattach checkpointed views from the ledger, in install order *)
      let ledger = read_ledger db in
      List.iter
        (fun (r : Metadata.backfill_row) ->
           let vflags =
             flags_override flags ~strategy:r.Metadata.bf_strategy
               ~dialect:r.Metadata.bf_dialect ~refresh:r.Metadata.bf_refresh
           in
           let v =
             Runner.install ~flags:vflags ~registry:ext.Runner.ext_views
               ~load:`Attach db r.Metadata.bf_sql
           in
           ext.Runner.ext_views <- v :: ext.Runner.ext_views)
        ledger;
      (* 4. replay the WAL tail; records folded into the checkpoint are
         skipped, which is what makes a crash between checkpoint and
         truncation harmless *)
      let tail =
        List.filter (fun r -> r.Wal.seq > checkpoint_seq) wal_read.Wal.records
      in
      Span.with_span "recovery.replay"
        ~attrs:[ ("records", Span.Int (List.length tail)) ]
        (fun _ ->
           List.iter
             (fun { Wal.seq; payload } ->
                match payload with
                | Wal.Stmt sql ->
                  ignore
                    (apply_stmt db ext (Openivm_sql.Parser.parse_statement sql))
                | Wal.Install
                    { view_sql; chunk_rows = cr; strategy; dialect; refresh }
                  ->
                  let vflags =
                    flags_override flags ~strategy ~dialect ~refresh
                  in
                  ignore
                    (stage_install ~db ~ext ~flags:vflags ~chunk_rows:cr
                       ~install_seq:seq view_sql)
                | Wal.Chunk { view; index } ->
                  (match (Runner.find_view ext view, ledger_row db view) with
                   | Some v, Some row ->
                     ignore
                       (Runner.backfill_chunk v
                          ~chunk_rows:row.Metadata.bf_chunk_rows ~index);
                     mark_chunk_done db row index
                   | _ -> ())
                | Wal.Batch { view; source; seq = bseq; replica; rows } ->
                  replay_batch db ext ~view ~source ~seq:bseq ~replica rows)
             tail);
      (* 5. the writer continues the sequence past everything ever logged
         (monotonic across truncations) *)
      let max_seq =
        List.fold_left
          (fun acc r -> max acc r.Wal.seq)
          checkpoint_seq wal_read.Wal.records
      in
      let wal = Wal.openw ?faults ~path:wal_path ~next_seq:(max_seq + 1) () in
      let info =
        { checkpoint_seq; replayed = List.length tail;
          torn_tail = wal_read.Wal.torn;
          views_reattached = List.length ledger; backfills_resumed = [] }
      in
      let t =
        { dir; flags; chunk_rows; faults; db; ext; wal; closed = false;
          last_recovery = info }
      in
      (* 6. resume interrupted backfills from the last completed chunk *)
      let resumed =
        List.filter_map
          (fun (r : Metadata.backfill_row) ->
             if r.Metadata.bf_state <> "running" then None
             else
               match Runner.find_view ext r.Metadata.bf_view with
               | None -> None
               | Some v ->
                 let from = r.Metadata.bf_chunks_done in
                 Span.with_span "backfill.resume"
                   ~attrs:
                     [ ("view", Span.Str r.Metadata.bf_view);
                       ("from_chunk", Span.Int from) ]
                   (fun _ -> run_chunks t v ~row:r ~from);
                 Metrics.incr m_backfill_resumed;
                 Some (r.Metadata.bf_view, from))
          (read_ledger db)
      in
      t.last_recovery <- { info with backfills_resumed = resumed };
      if sp != Span.none then begin
        Span.set_int sp "checkpoint_seq" checkpoint_seq;
        Span.set_int sp "replayed" t.last_recovery.replayed;
        Span.set_int sp "views_reattached" t.last_recovery.views_reattached;
        Span.set_int sp "backfills_resumed" (List.length resumed)
      end;
      t)
