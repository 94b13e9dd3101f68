(* The traced run's machinery: per-layer metric names, span accounting,
   standalone timings of the layers no existing span isolates, and the
   in-process replay of a server workload's operation stream through the
   calls the connection handler makes
   (Wire.parse_request -> Session.exec -> Wire.render_response). *)

open Openivm_engine
module Span = Openivm_obs.Span
module Metrics = Openivm_obs.Metrics
module Runner = Openivm.Runner
module Flags = Openivm.Flags
module Compiler = Openivm.Compiler
module Propagate = Openivm.Propagate
module Srv = Openivm_server
module Wire = Srv.Wire
module Ast = Openivm_sql.Ast
open Workload

(* Every per-layer metric, in report order, with its unit. A layer a
   workload does not exercise reports 0. *)
let layer_metrics =
  [ ("gen.late_p99_ms", "ms"); ("gen.outstanding_max", "count");
    ("wire.decode_us", "us"); ("wire.encode_us", "us");
    ("wire.reply_bytes", "bytes"); ("parser.parse_us", "us");
    ("session.exec_ms", "ms"); ("scheduler.tick_p50_ms", "ms");
    ("scheduler.tick_p99_ms", "ms"); ("scheduler.apply_unit_self_ms", "ms");
    ("scheduler.units_per_tick", "count"); ("scheduler.busy_ratio", "ratio");
    ("scheduler.rollbacks", "count"); ("scheduler.overloaded", "count");
    ("snapshot.capture_ms", "ms"); ("snapshot.rows_copied", "rows");
    ("engine.rows_written_per_unit", "rows");
    ("trigger.delta_rows_per_unit", "rows"); ("refresh.p50_ms", "ms");
    ("refresh.p99_ms", "ms"); ("refresh.count", "count");
    ("refresh.delta_rows", "rows"); ("refresh.busy_ratio", "ratio");
    ("propagate.fill_ms", "ms"); ("propagate.combine_ms", "ms");
    ("propagate.prune_ms", "ms"); ("propagate.cleanup_ms", "ms");
    ("propagate.rows_read", "rows"); ("propagate.rows_written", "rows");
    ("cascade.upstream_ms", "ms"); ("consolidate.ms", "ms");
    ("consolidate.kept_ratio", "ratio"); ("planner.plan_ms_per_refresh", "ms");
    ("exec.batches", "count"); ("exec.rows_per_batch", "rows");
    ("wal.records", "count"); ("wal.bytes_per_stmt", "bytes");
    ("store.checkpoint_s", "s"); ("store.checkpoint_bytes", "bytes");
    ("recovery.checkpoint_load_s", "s"); ("recovery.replay_s", "s");
    ("recovery.replayed", "count"); ("gc.alloc_mb_per_op", "MB");
    ("gc.major_collections", "count"); ("trace.unattributed_ms", "ms");
    ("trace.overhead_ratio", "ratio") ]

let complete values =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n layer_metrics) then invalid_arg ("unknown metric " ^ n))
    values;
  List.map
    (fun (n, u) -> (n, u, Option.value ~default:0.0 (List.assoc_opt n values)))
    layer_metrics

let ms x = 1000.0 *. x

(* ------------------------------------------------------------------ *)
(* Span accounting                                                     *)

(* Spans stay in memory while a pass runs and are written out once, as
   JSON lines, when it ends. *)
let write_trace file =
  let root = ".perfbench_trace" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let path = Filename.concat root file in
  let oc = open_out path in
  output_string oc (Openivm_obs.Report.jsonl ());
  close_out oc;
  Printf.printf "# spans written to %s\n" path

type trace = {
  spans : Span.t list;
  self : Span.t -> float;  (** duration minus the children's durations *)
  root : Span.t -> Span.t;
}

let collect () =
  let spans = Span.spans () in
  let by_id = Hashtbl.create 4096 and child = Hashtbl.create 4096 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace by_id s.Span.id s) spans;
  List.iter
    (fun (s : Span.t) ->
      match s.Span.parent with
      | Some p ->
          Hashtbl.replace child p
            (s.Span.duration +. Option.value ~default:0.0 (Hashtbl.find_opt child p))
      | None -> ())
    spans;
  let rec root (s : Span.t) =
    match s.Span.parent with
    | Some p -> (
        match Hashtbl.find_opt by_id p with Some q -> root q | None -> s)
    | None -> s
  in
  { spans;
    self = (fun s -> s.Span.duration -. Option.value ~default:0.0 (Hashtbl.find_opt child s.Span.id));
    root }

let named tr name = List.filter (fun (s : Span.t) -> s.Span.name = name) tr.spans
let durations tr name = List.map (fun (s : Span.t) -> s.Span.duration) (named tr name)
let total_ms tr name = ms (Stats.sum (durations tr name))

let attr_int (s : Span.t) key =
  match List.assoc_opt key s.Span.attrs with
  | Some (Span.Int n) -> n
  | _ -> 0

let attr_str (s : Span.t) key =
  match List.assoc_opt key s.Span.attrs with
  | Some (Span.Str v) -> v
  | _ -> ""

let sum_attr tr names key =
  float_of_int
    (List.fold_left
       (fun acc (s : Span.t) -> if List.mem s.Span.name names then acc + attr_int s key else acc)
       0 tr.spans)

(* Total duration of the root spans named [names]: the benchmark's own
   spans around each replayed call. *)
let roots_ms tr names =
  ms (Stats.sum (List.filter_map (fun (s : Span.t) ->
      if s.Span.parent = None && List.mem s.Span.name names then Some s.Span.duration
      else None) tr.spans))

let counter name =
  List.fold_left
    (fun acc (n, _, _, v) ->
      match v with Metrics.Counter_v c when n = name -> acc + c | _ -> acc)
    0 (Metrics.snapshot ())

(* The metrics every traced pass derives from the program's own spans
   (refresh, the propagate and cascade spans) and counters. [units] counts the
   pass's write units. *)
let refresh_metrics tr ~units ~plan_ms_per_refresh =
  let refresh = durations tr "refresh" in
  let before = sum_attr tr [ "cascade.consolidate" ] "rows_before"
  and after = sum_attr tr [ "cascade.consolidate" ] "rows_after" in
  let steps = [ "propagate.fill"; "propagate.combine"; "propagate.prune"; "propagate.cleanup" ] in
  let rows_per_batch = Metrics.histogram "minidb_exec_rows_per_batch" in
  [ ("trigger.delta_rows_per_unit",
     Stats.ratio (sum_attr tr [ "refresh" ] "pending_deltas") (float_of_int units));
    ("refresh.p50_ms", ms (Stats.median refresh));
    ("refresh.p99_ms", ms (Stats.percentile refresh 0.99));
    ("refresh.count", float_of_int (List.length refresh));
    ("refresh.delta_rows", float_of_int (counter "openivm_delta_rows_folded_total"));
    ("propagate.fill_ms", total_ms tr "propagate.fill");
    ("propagate.combine_ms", total_ms tr "propagate.combine");
    ("propagate.prune_ms", total_ms tr "propagate.prune");
    ("propagate.cleanup_ms", total_ms tr "propagate.cleanup");
    ("propagate.rows_read", sum_attr tr steps "rows_read");
    ("propagate.rows_written", sum_attr tr steps "rows_written");
    ("cascade.upstream_ms", total_ms tr "cascade.upstream");
    ("consolidate.ms", total_ms tr "cascade.consolidate");
    ("consolidate.kept_ratio", Stats.ratio after before);
    ("planner.plan_ms_per_refresh", plan_ms_per_refresh);
    ("exec.batches", float_of_int (counter "minidb_operator_batches_total"));
    ("exec.rows_per_batch",
     if Metrics.hist_count rows_per_batch = 0 then 0.0
     else Metrics.percentile rows_per_batch 0.5) ]

(* Self time per span name, summed over the spans whose root carries
   [kind] — where a write unit's (or a read's) time goes. *)
let breakdown tr ~kind ~unit_root =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s : Span.t) ->
      let r = tr.root s in
      if attr_str r "kind" = kind then
        Hashtbl.replace tbl s.Span.name
          (tr.self s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.Span.name)))
    tr.spans;
  let n = List.length (List.filter (fun (s : Span.t) ->
      s.Span.parent = None && s.Span.name = unit_root && attr_str s "kind" = kind) tr.spans) in
  let rows = List.sort (fun (_, a) (_, b) -> compare b a) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  (n, rows)

let print_breakdown tr ~title ~kind ~unit_root ~extra =
  let n, rows = breakdown tr ~kind ~unit_root in
  if n > 0 then begin
    let total = Stats.sum (List.map snd rows) in
    Printf.printf "# %s: %d units, %.3f ms/unit, self time by layer:\n" title n
      (ms total /. float_of_int n);
    List.iter
      (fun (name, self) ->
        Printf.printf "#   %-22s %8.3f ms/unit  %5.1f%%\n" name
          (ms self /. float_of_int n) (100.0 *. Stats.ratio self total))
      rows;
    List.iter (fun line -> Printf.printf "#   %s\n" line) extra
  end

(* ------------------------------------------------------------------ *)
(* Standalone timings                                                  *)

let time f =
  let t0 = Mono.now () in
  let r = f () in
  (Mono.now () -. t0, r)

let median_of_reps n f = Stats.median (List.init n (fun _ -> fst (time f)))

let parse_us statements =
  1e6 *. Stats.median (List.map (fun s -> fst (time (fun () -> Openivm_sql.Parser.parse_statement s))) statements)

(* Planning cost of one refresh per view: [Database.plan_select] on each
   INSERT..SELECT of its propagation script, weighted by how often each
   view refreshed in the traced pass. *)
let plan_ms_per_refresh tr (db : Database.t) views =
  let per_view v =
    List.fold_left
      (fun acc stmt ->
        match Propagate.insert_select_parts stmt with
        | Some (_, q) -> acc +. median_of_reps 5 (fun () -> Database.plan_select db q)
        | None -> acc)
      0.0
      (Propagate.all_statements v.Runner.compiled.Compiler.script)
  in
  let refreshes = named tr "refresh" in
  let weighted, count =
    List.fold_left
      (fun (w, c) v ->
        let k = List.length (List.filter (fun s -> attr_str s "view" = Runner.view_name v) refreshes) in
        (w +. (float_of_int k *. per_view v), c + k))
      (0.0, 0) views
  in
  ms (Stats.ratio weighted (float_of_int count))

(* The tables a unit's rollback snapshot captures: the touched base
   tables and the delta tables of every view over them. *)
let snapshot_tables (ext : Runner.extension) statements =
  let catalog = Database.catalog ext.Runner.ext_db in
  let bases =
    List.sort_uniq compare
      (List.filter_map
         (fun s ->
           match Openivm_sql.Parser.parse_statement s with
           | Ast.Insert { table; _ } | Ast.Update { table; _ } | Ast.Delete { table; _ }
             when Catalog.find_table_opt catalog table <> None -> Some table
           | _ -> None)
         statements)
  in
  let deltas =
    List.concat_map
      (fun v ->
        let c = v.Runner.compiled in
        List.filter_map
          (fun b ->
            let d = Compiler.delta_table c b in
            if List.mem b (Compiler.base_tables c) && Catalog.find_table_opt catalog d <> None
            then Some d else None)
          bases)
      ext.Runner.ext_views
  in
  bases @ deltas

let sql_texts op =
  List.filter_map
    (fun line -> match Wire.parse_request line with Ok (Wire.Sql t) -> Some t | _ -> None)
    op.lines

(* ------------------------------------------------------------------ *)
(* Server workloads in process                                         *)

(* What [openivm serve --tick-interval 0 [--eager]] builds from its
   schema and init scripts. *)
let setup name (inputs : server_inputs) =
  let flags =
    { Flags.default with
      refresh = (if name = Eager_commits then Flags.Eager else Flags.Lazy) }
  in
  let db = Database.create () in
  let ext = Runner.load ~flags db in
  List.iter (fun s -> ignore (Database.exec db s)) inputs.schema;
  let sched =
    Srv.Scheduler.create
      ~quota:{ Srv.Quota.default_config with Srv.Quota.tick_interval = 0.0 } ext
  in
  let boot = Srv.Session.create sched ~tenant:"init" in
  List.iter
    (fun v ->
      match Srv.Session.exec boot v with
      | Srv.Session.Failed { message; _ } -> failwith message
      | Srv.Session.Overloaded r -> failwith r
      | _ -> ())
    inputs.views;
  Srv.Session.close boot;
  (db, ext, sched)

(* Which unit a request line belongs to, for the breakdown. *)
let line_kind op i =
  match op.kind with
  | Read -> "read"
  | Write -> "write"
  | Txn -> if i = op.commit_frame then "write" else if i > op.commit_frame then "read" else "txn"

type pass = {
  loop_s : float;  (** time inside the replayed calls *)
  units : int;
  affected : int;
  reply_bytes : int;
  failed : int;
  alloc_bytes : float;
  major : int;
}

(* Replay [ops] closed loop on one thread, two sessions as the two
   connections; [before_unit] runs before each write unit, outside the
   timed calls. *)
let replay sched ops ~before_unit =
  let sessions =
    [| Srv.Session.create sched ~tenant:"writer"; Srv.Session.create sched ~tenant:"reader" |]
  in
  let loop = ref 0.0 and units = ref 0 and affected = ref 0 and bytes = ref 0 and failed = ref 0 in
  let a0 = Gc.allocated_bytes () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  Array.iter
    (fun op ->
      if op.kind <> Read then begin
        incr units;
        before_unit op
      end;
      let bad = ref false in
      List.iteri
        (fun i line ->
          let t0 = Mono.now () in
          let attrs = [ ("kind", Span.Str (line_kind op i)) ] in
          let text =
            Span.with_span "wire.decode" ~attrs (fun _ ->
                match Wire.parse_request line with
                | Ok (Wire.Sql t) -> t
                | Ok Wire.Begin -> "BEGIN"
                | Ok Wire.Commit -> "COMMIT"
                | _ -> failwith ("unexpected request " ^ line))
          in
          let reply =
            Span.with_span "session.exec" ~attrs (fun _ ->
                Srv.Session.exec sessions.(op.conn) text)
          in
          let frames =
            Span.with_span "wire.encode" ~attrs (fun _ ->
                Wire.render_response (Wire.response_of_reply reply))
          in
          loop := !loop +. (Mono.now () -. t0);
          List.iter (fun f -> bytes := !bytes + String.length f + 1) frames;
          match reply with
          | Srv.Session.Affected n -> affected := !affected + n
          | Srv.Session.Failed { message; _ } | Srv.Session.Overloaded message ->
              if !failed = 0 && not !bad then
                Printf.eprintf "perfbench: replayed %S failed: %s\n%!" text message;
              bad := true
          | _ -> ())
        op.lines;
      if !bad then incr failed)
    ops;
  Array.iter Srv.Session.close sessions;
  { loop_s = !loop; units = !units; affected = !affected; reply_bytes = !bytes;
    failed = !failed; alloc_bytes = Gc.allocated_bytes () -. a0;
    major = (Gc.quick_stat ()).Gc.major_collections - m0 }

type server_trace = {
  values : (string * float) list;
  correct : bool;
  ops : int;  (** operations per pass; the replay makes three passes *)
  failed : int;
}

let server ~name ~seed ~seconds ~small ~(open_loop : Serve_run.result) =
  let inputs = server_inputs ~seed ~seconds ~small name in
  let ops = inputs.schedule in
  (* standalone Snapshot.capture: a pass of its own from a fresh set-up
     captures each unit's tables right before the unit runs, on the state
     the server would capture, so neither the copies nor their garbage
     reach the two passes below. It runs first, which also grows the
     heap before the two passes whose times are compared. *)
  let cdb, cext, csched = setup name inputs in
  let captures = ref [] and rows_copied = ref 0 in
  let before_unit op =
    let tables = snapshot_tables cext (sql_texts op) in
    List.iter
      (fun t -> rows_copied := !rows_copied + Table.row_count (Catalog.find_table (Database.catalog cdb) t))
      tables;
    captures := fst (time (fun () -> Snapshot.capture cdb ~tables)) :: !captures
  in
  let capture_pass = replay csched ops ~before_unit in
  Gc.compact ();
  (* untraced pass: the overhead baseline and the GC counts *)
  let _, _, sched = setup name inputs in
  let plain = replay sched ops ~before_unit:ignore in
  Gc.compact ();
  let db, ext, sched = setup name inputs in
  let s0 = Srv.Scheduler.stats sched in
  Metrics.reset_values ();
  Span.reset ();
  Span.set_enabled true;
  let traced = replay sched ops ~before_unit:ignore in
  Srv.Scheduler.drain sched;
  Span.set_enabled false;
  let s1 = Srv.Scheduler.stats sched in
  write_trace (Printf.sprintf "%s-seed%d.jsonl" (to_string name) seed);
  let tr = collect () in
  let bad = Gate.runner_diverging db ext.Runner.ext_views in
  let statements = List.concat_map sql_texts (Array.to_list ops) in
  let before, after = open_loop.Serve_run.scrape in
  let delta k = after k -. before k in
  let ticks = durations tr "server.tick" in
  let values =
    [ ("gen.late_p99_ms", Stats.percentile open_loop.Serve_run.late_ms 0.99);
      ("gen.outstanding_max", float_of_int open_loop.Serve_run.outstanding_max);
      ("wire.decode_us", 1e6 *. Stats.median (durations tr "wire.decode"));
      ("wire.encode_us", 1e6 *. Stats.median (durations tr "wire.encode"));
      ("wire.reply_bytes", float_of_int traced.reply_bytes);
      ("parser.parse_us", parse_us statements);
      ("session.exec_ms", total_ms tr "session.exec");
      ("scheduler.tick_p50_ms", ms (Stats.median ticks));
      ("scheduler.tick_p99_ms", ms (Stats.percentile ticks 0.99));
      ("scheduler.apply_unit_self_ms",
       ms (Stats.sum (List.map tr.self (named tr "server.apply_unit"))));
      ("scheduler.units_per_tick",
       Stats.ratio
         (float_of_int (s1.Srv.Scheduler.units_applied - s0.Srv.Scheduler.units_applied))
         (float_of_int (s1.Srv.Scheduler.ticks - s0.Srv.Scheduler.ticks)));
      ("scheduler.busy_ratio",
       Stats.ratio (delta "openivm_server_tick_seconds_sum") open_loop.Serve_run.open_wall);
      ("scheduler.rollbacks", delta "openivm_server_rollbacks_total");
      ("scheduler.overloaded", delta "openivm_server_overloaded_total");
      ("snapshot.capture_ms", ms (Stats.median !captures));
      ("snapshot.rows_copied", float_of_int !rows_copied);
      ("engine.rows_written_per_unit",
       Stats.ratio (float_of_int traced.affected) (float_of_int traced.units));
      ("refresh.busy_ratio",
       Stats.ratio (delta "openivm_refresh_seconds_sum") open_loop.Serve_run.open_wall);
      ("gc.alloc_mb_per_op",
       plain.alloc_bytes /. 1e6 /. float_of_int (max 1 (Array.length ops)));
      ("gc.major_collections", float_of_int plain.major);
      ("trace.unattributed_ms",
       ms traced.loop_s -. roots_ms tr [ "wire.decode"; "session.exec"; "wire.encode" ]);
      ("trace.overhead_ratio", Stats.ratio (traced.loop_s -. plain.loop_s) plain.loop_s) ]
    @ refresh_metrics tr ~units:traced.units
        ~plan_ms_per_refresh:(plan_ms_per_refresh tr db ext.Runner.ext_views)
  in
  print_breakdown tr ~title:"write units (traced replay)" ~kind:"write"
    ~unit_root:"session.exec"
    ~extra:
      [ Printf.sprintf
          "standalone Snapshot.capture of the unit's tables: %.3f ms median \
           (part of server.apply_unit self)"
          (ms (Stats.median !captures));
        Printf.sprintf "standalone Parser.parse_statement: %.1f us median per statement"
          (List.assoc "parser.parse_us" values) ];
  print_breakdown tr ~title:"txn statements before COMMIT (traced replay)" ~kind:"txn"
    ~unit_root:"session.exec" ~extra:[];
  print_breakdown tr ~title:"reads (traced replay)" ~kind:"read" ~unit_root:"session.exec"
    ~extra:[];
  { values; correct = Gate.report bad; ops = Array.length ops;
    failed = plain.failed + traced.failed + capture_pass.failed }
