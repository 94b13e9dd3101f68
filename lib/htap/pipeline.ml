(** Cross-system IVM orchestration (paper Figure 3): a transactional
    workload runs against the OLTP engine; captured deltas travel over the
    bridge into the OLAP engine's delta tables; the compiled propagation
    script folds them into the materialized view.

    Views whose propagation reads base tables (joins, MIN/MAX rederive)
    additionally need OLAP-side *replicas* of the base tables — the stand-
    in for the paper's DuckDB-reads-PostgreSQL scanner; the bridge keeps
    them in sync from the same delta stream.

    Delivery is exactly-once end to end: the OLTP side keeps captured rows
    in an outbox until acknowledged ({!Oltp.begin_batch}/{!Oltp.ack}), the
    OLAP side records per-source watermarks in
    [_openivm_bridge_watermarks] so duplicated or replayed batches are
    no-ops, each batch lands in the delta table and replica all-or-nothing
    (undo-journal rollback on a mid-apply crash), and dropped
    batches are retried with exponential backoff. {!recover} replays
    unacknowledged traffic after a simulated OLAP crash, falling back to a
    full resync from the base tables. *)

open Openivm_engine
module Span = Openivm_obs.Span
module Metrics = Openivm_obs.Metrics

let m_batches_applied =
  Metrics.counter "bridge_batches_applied_total"
    ~help:"delta batches landed on the OLAP side"

let m_rows_applied =
  Metrics.counter "bridge_rows_applied_total"
    ~help:"delta rows landed on the OLAP side"

let m_retries =
  Metrics.counter "bridge_retries_total"
    ~help:"resends of an unacknowledged batch"

let m_sync_seconds =
  Metrics.histogram "pipeline_sync_seconds"
    ~help:"wall-clock per Pipeline.sync call"

let m_recover_seconds phase =
  Metrics.histogram "pipeline_recover_seconds"
    ~help:"wall-clock per recovery phase" ~labels:[ ("phase", phase) ]

type stats = {
  mutable retries : int;          (** resends of an unacknowledged batch *)
  mutable deduped : int;          (** duplicate batches skipped by watermark *)
  mutable checksum_failures : int;(** corrupted batches detected and discarded *)
  mutable gaps : int;             (** out-of-order batches ahead of the watermark *)
  mutable crashes : int;          (** mid-apply crashes injected (rolled back) *)
  mutable batches_applied : int;
  mutable rows_applied : int;
  mutable replica_misses : int;   (** replica deletions that found no row *)
  mutable recoveries : int;
  mutable resyncs : int;          (** full rebuilds from base tables *)
}

let fresh_stats () =
  { retries = 0; deduped = 0; checksum_failures = 0; gaps = 0; crashes = 0;
    batches_applied = 0; rows_applied = 0; replica_misses = 0;
    recoveries = 0; resyncs = 0 }

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
  stats : stats;
  mutable crashed : bool;
  mutable syncs : int;
}

let view t = t.view
let olap t = t.olap
let oltp t = t.oltp
let stats t = t.stats
let crashed t = t.crashed

exception Olap_crash

(** Does the propagation script reference the base tables on the OLAP
    side? Linear single-table scripts touch only delta tables. *)
let propagation_needs_base (compiled : Openivm.Compiler.t) : bool =
  match compiled.Openivm.Compiler.script.Openivm.Propagate.kind with
  | Openivm.Propagate.Linear | Openivm.Propagate.Regroup
  | Openivm.Propagate.Outer_merge | Openivm.Propagate.Global_linear ->
    (match compiled.Openivm.Compiler.shape.Openivm.Shape.source with
     | Openivm.Shape.Single _ -> false
     | Openivm.Shape.Joined _ -> true)
  | Openivm.Propagate.Rederive | Openivm.Propagate.Full -> true

(** Set up the pipeline: [schema_sql] (CREATE TABLEs) runs on both sides;
    [view_sql] is compiled and installed on the OLAP side; capture
    triggers are registered on the OLTP side. [strict_replica] turns a
    replica deletion that finds no matching row (silent divergence) into
    an error instead of a counted miss.

    [olap]/[view] attach the pipeline to an existing OLAP database (a
    durable store recovered from disk): the schema and view already exist
    there, so neither is created again. [on_apply] is the durability
    hook — called after a batch landed and its watermark advanced, but
    {e before} the outbox acknowledgement, so a store journaling the
    batch that then dies leaves the batch unacknowledged and redelivery
    (deduplicated by the watermark) preserves exactly-once. *)
let create ?(flags = Openivm.Flags.default) ?oltp_latency ?bridge
    ?(strict_replica = false) ?(max_retries = 8) ?(backoff_base = 50e-6)
    ?olap ?view ?on_apply
    ~(schema_sql : string) ~(view_sql : string) () : t =
  let oltp = Oltp.create ?latency:oltp_latency () in
  let olap =
    match olap with
    | Some db -> db
    | None -> Database.create ~name:"duckdb" ()
  in
  let bridge = match bridge with Some b -> b | None -> Bridge.create () in
  ignore (Database.exec_script (Oltp.db oltp) schema_sql);
  (* base tables also exist on the OLAP side: empty replicas when the
     propagation needs them, or mere schema stubs for compilation —
     unless we are attaching to a database that already has them *)
  if view = None then ignore (Database.exec_script olap schema_sql);
  let v =
    match view with
    | Some v -> v
    | None -> Openivm.Runner.install ~flags olap view_sql
  in
  (* deltas arrive via the bridge, not via OLAP-side capture *)
  v.Openivm.Runner.capture_enabled <- false;
  (* the watermark ledger ships with Metadata.ddl, but older databases may
     predate it — installing is idempotent *)
  List.iter
    (fun stmt -> ignore (Database.exec_stmt olap stmt))
    Openivm.Metadata.watermark_ddl;
  let base_tables = Openivm.Compiler.base_tables v.Openivm.Runner.compiled in
  List.iter
    (fun base ->
       Oltp.register_capture oltp ~base
         ~delta:(Openivm.Compiler.delta_table v.Openivm.Runner.compiled base))
    base_tables;
  { oltp; olap; bridge; view = v; base_tables;
    needs_replica = propagation_needs_base v.Openivm.Runner.compiled;
    strict_replica; max_retries; backoff_base; on_apply;
    stats = fresh_stats (); crashed = false; syncs = 0 }

(* --- watermarks (idempotent apply) --- *)

let watermark t (source : string) : int =
  match
    (Database.query t.olap (Openivm.Metadata.watermark_query ~source)).Database.rows
  with
  | [| Value.Int n |] :: _ -> n
  | _ -> 0

let set_watermark t (source : string) (seq : int) : unit =
  List.iter
    (fun stmt -> ignore (Database.exec_stmt t.olap stmt))
    (Openivm.Metadata.set_watermark ~source ~seq)

(** Apply one shipped delta row (base row + multiplicity) to the OLAP
    replica of [base]: insert on true, remove one matching row on false.
    A deletion that finds no matching row means the replica has diverged:
    counted in [stats.replica_misses], an error under [strict_replica]. *)
let apply_to_replica t ~(base : string) (delta_row : Row.t) : unit =
  let catalog = Database.catalog t.olap in
  let tbl = Catalog.find_table catalog base in
  let arity = Array.length delta_row - 1 in
  let image = Array.sub delta_row 0 arity in
  match delta_row.(arity) with
  | Value.Bool true -> Table.insert tbl image
  | Value.Bool false ->
    (* remove a single occurrence *)
    let found = ref None in
    Table.iter_slots
      (fun slot row -> if !found = None && Row.equal row image then found := Some slot)
      tbl;
    (match !found with
     | Some slot -> ignore (Table.delete_slot tbl slot)
     | None ->
       t.stats.replica_misses <- t.stats.replica_misses + 1;
       if t.strict_replica then
         Error.fail "replica of %S diverged: deletion found no row %s" base
           (Row.to_string image))
  | _ -> Error.fail "delta row without boolean multiplicity"

(* --- transactional batch apply --- *)

(** Land a verified, in-order batch: every row into the OLAP delta table
    (and replica), then advance the watermark and acknowledge to the OLTP
    outbox. All-or-nothing — the rows and the watermark land in one
    {!Database.atomically} unit, so an injected mid-apply crash reverts
    what the batch wrote so far, leaves the watermark untouched and marks
    the OLAP side down; the batch stays in the outbox for {!recover}. *)
let apply_batch t ~(source : string) ~(seq : int) (rows : Row.t list) : unit =
  let catalog = Database.catalog t.olap in
  let delta_name =
    Openivm.Compiler.delta_table t.view.Openivm.Runner.compiled source
  in
  let delta_tbl = Catalog.find_table catalog delta_name in
  let n = List.length rows in
  let crash_at =
    if Fault.roll (Bridge.faults t.bridge) Fault.Crash then
      Some (Fault.draw (Bridge.faults t.bridge) (n + 1))
    else None
  in
  match
    Database.atomically t.olap (fun () ->
        List.iteri
          (fun i row ->
             if crash_at = Some i then raise Olap_crash;
             Table.insert delta_tbl row;
             if t.needs_replica then apply_to_replica t ~base:source row)
          rows;
        if crash_at = Some n then raise Olap_crash;
        set_watermark t source seq)
  with
  | () ->
    t.view.Openivm.Runner.pending_deltas <-
      t.view.Openivm.Runner.pending_deltas + n;
    (* durability hook between watermark and ack: if WAL journaling dies
       here the batch stays in the outbox, and on redelivery the recovered
       watermark (advanced iff the WAL record survived) dedupes it *)
    (match t.on_apply with
     | Some f -> f ~source ~seq ~replica:t.needs_replica rows
     | None -> ());
    Oltp.ack t.oltp ~base:source ~seq;
    t.stats.batches_applied <- t.stats.batches_applied + 1;
    t.stats.rows_applied <- t.stats.rows_applied + n;
    Metrics.incr m_batches_applied;
    Metrics.add m_rows_applied n
  | exception Olap_crash ->
    t.crashed <- true;
    t.stats.crashes <- t.stats.crashes + 1

(** One batch arriving at the OLAP side. Corrupted batches are discarded
    (the sender retries); batches at or below the watermark are duplicates
    and only re-acknowledged; batches beyond watermark + 1 (out-of-order
    arrivals) wait for their predecessor. *)
let receive t (b : Bridge.batch) : unit =
  if t.crashed then ()  (* arrives at a downed OLAP: lost; sender retries *)
  else if not (Bridge.verify b) then
    t.stats.checksum_failures <- t.stats.checksum_failures + 1
  else begin
    let wm = watermark t b.Bridge.source in
    if b.Bridge.seq <= wm then begin
      t.stats.deduped <- t.stats.deduped + 1;
      Oltp.ack t.oltp ~base:b.Bridge.source ~seq:b.Bridge.seq
    end
    else if b.Bridge.seq > wm + 1 then t.stats.gaps <- t.stats.gaps + 1
    else
      apply_batch t ~source:b.Bridge.source ~seq:b.Bridge.seq
        (Bridge.batch_rows b)
  end

(* --- sync: outbox → wire → idempotent apply, with bounded retry --- *)

let backoff t tries =
  Bridge.busy_wait (t.backoff_base *. (2. ** float_of_int tries))

(** Ship the outbox of [base] until empty or the retry budget is spent.
    Each attempt resends the current unacknowledged batch; deliveries
    (including late out-of-order arrivals for other sources) are applied
    idempotently. *)
let sync_base t (base : string) : unit =
  let rec go tries =
    if not t.crashed then
      match Oltp.begin_batch t.oltp ~base with
      | None -> ()
      | Some (seq, rows) ->
        let batch = Bridge.make_batch ~source:base ~seq rows in
        List.iter (receive t) (Bridge.send t.bridge batch);
        if t.crashed then ()
        else if Oltp.inflight_seq t.oltp ~base = Some seq then begin
          (* not acknowledged: dropped, corrupted or held back *)
          if tries < t.max_retries then begin
            t.stats.retries <- t.stats.retries + 1;
            Metrics.incr m_retries;
            backoff t tries;
            go (tries + 1)
          end
          (* retry budget spent: the batch stays in the outbox for the
             next sync / recover *)
        end
        else go 0
  in
  go 0

(** Move pending deltas OLTP → OLAP (serialize, pay the wire, land them in
    the OLAP delta tables and replicas, exactly once). Returns the number
    of delta rows applied during this call. A no-op while the OLAP side is
    down ({!crashed}) — deltas keep accumulating in the outbox. *)
let sync t : int =
  let rows_before = t.stats.rows_applied in
  let t0 = Unix.gettimeofday () in
  Span.with_span "bridge.sync" (fun sp ->
      if not t.crashed then
        Trigger.without_hooks (Database.triggers t.olap) (fun () ->
            List.iter
              (fun base ->
                 Span.with_span "bridge.ship"
                   ~attrs:[ ("table", Span.Str base) ]
                   (fun _ -> sync_base t base))
              t.base_tables);
      if sp != Span.none then
        Span.set_int sp "rows_applied" (t.stats.rows_applied - rows_before));
  Metrics.observe m_sync_seconds (Unix.gettimeofday () -. t0);
  t.syncs <- t.syncs + 1;
  t.stats.rows_applied - rows_before

(** Run a transactional statement on the OLTP side. *)
let exec_oltp t sql = Oltp.exec t.oltp sql

let ensure_up t what =
  if t.crashed then
    Error.fail "pipeline: OLAP side is down (crash injected) — run \
                Pipeline.recover before %s" what

(** Query the materialized view: sync the bridge, lazily refresh, read. *)
let query t (sql : string) : Database.query_result =
  ensure_up t "querying";
  ignore (sync t);
  ensure_up t "querying";
  Openivm.Runner.query t.view sql

let view_contents ?order_by t : Database.query_result =
  ensure_up t "reading the view";
  ignore (sync t);
  ensure_up t "reading the view";
  Openivm.Runner.contents ?order_by t.view

(* --- convergence check --- *)

(** The view's visible contents as sorted row strings: hidden bookkeeping
    columns stripped, flat (weighted) views expanded back to bags. *)
let visible_view_rows t : string list =
  let shape = t.view.Openivm.Runner.compiled.Openivm.Compiler.shape in
  let visible = Openivm.Shape.visible_names shape in
  let flat = not (Openivm.Shape.has_aggregates shape) in
  let cols =
    if flat then visible @ [ Openivm.Shape.count_column ] else visible
  in
  Openivm.Runner.refresh t.view;
  let r =
    Database.query t.olap
      (Printf.sprintf "SELECT %s FROM %s"
         (String.concat ", " cols)
         (Openivm.Runner.view_name t.view))
  in
  let rows =
    if flat then
      List.concat_map
        (fun (row : Row.t) ->
           let n = Array.length row - 1 in
           let weight = match row.(n) with Value.Int w -> w | _ -> 1 in
           List.init weight (fun _ -> Row.to_string (Array.sub row 0 n)))
        r.Database.rows
    else List.map Row.to_string r.Database.rows
  in
  List.sort String.compare rows

(** Ground truth: the defining query recomputed directly over the OLTP
    base tables (no bridge involved). *)
let ground_truth_rows t : string list =
  let shape = t.view.Openivm.Runner.compiled.Openivm.Compiler.shape in
  let r =
    Database.query (Oltp.db t.oltp)
      (Openivm_sql.Pretty.select_to_sql Openivm_sql.Dialect.minidb
         shape.Openivm.Shape.query)
  in
  List.sort String.compare (List.map Row.to_string r.Database.rows)

(** Does the materialized view agree exactly with recomputing its defining
    query over the current OLTP state? (Requires all deltas shipped —
    callers sync first.) *)
let verify t : bool =
  (not t.crashed) && visible_view_rows t = ground_truth_rows t

(* --- crash recovery --- *)

(** Rebuild the OLAP side from scratch over a healthy link: abandon
    outboxes and in-flight traffic, copy every base table across the
    bridge into its OLAP replica, rerun the view's initial load, and
    fast-forward the watermarks. The recovery path of last resort —
    equivalent to the paper's non-IVM baseline, paid once. *)
let full_resync t : unit =
  t.stats.resyncs <- t.stats.resyncs + 1;
  t.crashed <- false;
  Fault.suspended (Bridge.faults t.bridge) (fun () ->
      ignore (Bridge.discard_in_flight t.bridge);
      Trigger.without_hooks (Database.triggers t.olap) (fun () ->
          let olap_catalog = Database.catalog t.olap in
          let oltp_catalog = Database.catalog (Oltp.db t.oltp) in
          List.iter
            (fun base ->
               let wm = Oltp.reset_outbox t.oltp ~base in
               let dst = Catalog.find_table olap_catalog base in
               ignore (Table.truncate dst);
               let rows = Table.to_rows (Catalog.find_table oltp_catalog base) in
               List.iter (Table.insert dst) (Bridge.ship t.bridge rows);
               set_watermark t base wm)
            t.base_tables;
          Openivm.Runner.reinitialize t.view))

type recovery = {
  replayed : int;   (** outbox batches landed by replay *)
  resynced : bool;  (** replay was not enough: rebuilt from base tables *)
  converged : bool; (** view = full recompute afterwards *)
  phases : (string * float) list;
      (** per-phase wall-clock seconds, in execution order:
          drain, replay, verify, then (only when needed) resync and
          reverify *)
}

let pp_phases (r : recovery) : string list =
  List.map
    (fun (name, dt) ->
       Printf.sprintf "recover-phase phase=%s seconds=%.6f" name dt)
    r.phases

(** Bring a crashed (or merely lagging) pipeline back to a verified-
    consistent state. The recovery ladder: (1) drain batches still in the
    pipe, (2) replay unacknowledged outbox batches over a healthy link —
    idempotent apply makes replays of already-landed batches no-ops —
    and (3) if the view still disagrees with the ground truth, full
    resync from the base tables.

    [log] receives one structured [recover-phase phase=... seconds=...]
    line per phase as it completes, so soak harnesses can show where
    recovery time went. *)
let recover ?(log = ignore) t : recovery =
  t.stats.recoveries <- t.stats.recoveries + 1;
  t.crashed <- false;
  let phases = ref [] in
  let phase name f =
    let t0 = Unix.gettimeofday () in
    let r = Span.with_span ("recover." ^ name) (fun _ -> f ()) in
    let dt = Unix.gettimeofday () -. t0 in
    phases := (name, dt) :: !phases;
    Metrics.observe (m_recover_seconds name) dt;
    log (Printf.sprintf "recover-phase phase=%s seconds=%.6f" name dt);
    r
  in
  let applied_before = t.stats.batches_applied in
  (* a restarted pipeline retries over a healthy link: injection off *)
  Fault.suspended (Bridge.faults t.bridge) (fun () ->
      Trigger.without_hooks (Database.triggers t.olap) (fun () ->
          phase "drain" (fun () ->
              List.iter (receive t) (Bridge.flush t.bridge));
          phase "replay" (fun () ->
              List.iter (sync_base t) t.base_tables)));
  let replayed = t.stats.batches_applied - applied_before in
  if phase "verify" (fun () -> verify t) then
    { replayed; resynced = false; converged = true;
      phases = List.rev !phases }
  else begin
    phase "resync" (fun () -> full_resync t);
    let converged = phase "reverify" (fun () -> verify t) in
    { replayed; resynced = true; converged; phases = List.rev !phases }
  end

(** The non-IVM cross-system baseline: ship the *entire* base tables over
    the bridge into scratch tables and recompute the defining query — what
    running the analytical query through a remote scanner costs. *)
let query_without_ivm t : Database.query_result =
  let scratch = Database.create ~name:"duckdb_scratch" () in
  let catalog = Database.catalog (Oltp.db t.oltp) in
  List.iter
    (fun base ->
       let tbl = Catalog.find_table catalog base in
       let schema =
         List.map (fun c -> { c with Schema.table = Some base }) tbl.Table.schema
       in
       Catalog.add_table (Database.catalog scratch)
         (Table.create ~journal:scratch.Database.journal ~name:base ~schema
            ~primary_key:[||]);
       let shipped = Bridge.ship t.bridge (Table.to_rows tbl) in
       let dst = Catalog.find_table (Database.catalog scratch) base in
       List.iter (Table.insert dst) shipped)
    t.base_tables;
  let view_query =
    t.view.Openivm.Runner.compiled.Openivm.Compiler.shape.Openivm.Shape.query
  in
  Database.query scratch
    (Openivm_sql.Pretty.select_to_sql Openivm_sql.Dialect.minidb view_query)
