(** The durability subsystem: WAL codec and tail repair, checkpoint
    manifests, recovery, staged backfill resume, and the bridge-batch
    journal. Crash points are injected deterministically through
    {!Openivm_htap.Fault.schedule}. *)

open Openivm_engine
module Wal = Openivm_store.Wal
module Checkpoint = Openivm_store.Checkpoint
module Store = Openivm_store.Store
module Fault = Openivm_htap.Fault
module Runner = Openivm.Runner

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "openivm_store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let faults () = Fault.create ~seed:7 Fault.none

let sample_rows : Row.t list =
  [ [| Value.Int 1; Value.Str "a,b\nc"; Value.Float 0.1; Value.Null |];
    [| Value.Int (-2); Value.Str ""; Value.Float (-1e-7); Value.Bool false |];
    [| Value.Date 19000; Value.Float 1e300; Value.Bool true; Value.Int 0 |] ]

let all_payloads : Wal.payload list =
  [ Wal.Stmt "INSERT INTO t VALUES (1, 'x')";
    Wal.Install
      { view_sql = "CREATE MATERIALIZED VIEW v AS SELECT a FROM t";
        chunk_rows = 64; strategy = "upsert_linear"; dialect = "duckdb";
        refresh = "lazy" };
    Wal.Chunk { view = "v"; index = 3 };
    Wal.Batch
      { view = "v"; source = "t"; seq = 12; replica = true;
        rows = sample_rows };
    Wal.Batch { view = "v"; source = "t"; seq = 13; replica = false;
                rows = [] } ]

let payload_strings ps = List.map Wal.payload_to_string ps

let install_sql =
  "CREATE MATERIALIZED VIEW qg AS SELECT group_index, SUM(group_value) AS \
   s FROM groups GROUP BY group_index"

let seed_store ?faults ?chunk_rows dir : Store.t =
  let store = Store.open_ ?faults ?chunk_rows ~dir () in
  ignore
    (Store.exec store
       "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER)");
  store

let qg_rows store =
  match Store.find_view store "qg" with
  | Some v -> Runner.visible_rows v
  | None -> Alcotest.fail "view qg not found"

(** [rows] rows over [groups] groups in INSERTs of at most 500, then a
    DELETE of every third row: the tombstones stay (fewer than half the
    slots die), so a row's live rank differs from its slot. Returns the
    live row count. *)
let seed_tombstoned store ~rows ~groups =
  let rec insert lo =
    if lo < rows then begin
      let n = min 500 (rows - lo) in
      ignore
        (Store.exec store
           ("INSERT INTO groups VALUES "
            ^ String.concat ", "
                (List.init n (fun i ->
                     Printf.sprintf "('g%d', %d)" ((lo + i) mod groups)
                       (lo + i)))));
      insert (lo + n)
    end
  in
  insert 0;
  ignore (Store.exec store "DELETE FROM groups WHERE group_value % 3 = 1");
  let tbl = Catalog.find_table (Database.catalog (Store.db store)) "groups" in
  Alcotest.(check bool) "tombstones keep their slots" true
    (Vec.length tbl.Table.slots > Table.row_count tbl);
  Table.row_count tbl

(** Minor-heap words allocated per live base row by a [Store] install of
    the SUM view over [rows] rows in 16-row chunks. *)
let install_words_per_row ~rows =
  with_temp_dir (fun dir ->
      let store = seed_store ~chunk_rows:16 dir in
      let live = seed_tombstoned store ~rows ~groups:100 in
      let w0 = Gc.minor_words () in
      ignore (Store.exec store install_sql);
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Printf.sprintf "%d-row install is exact" rows)
        true (Store.verify store);
      Store.close store;
      words /. float_of_int live)

let suite =
  [ Util.tc "wal: every payload kind round-trips" (fun () ->
        with_temp_dir (fun dir ->
            let path = Filename.concat dir "wal.log" in
            let w = Wal.openw ~path ~next_seq:5 () in
            List.iter (fun p -> ignore (Wal.append w p)) all_payloads;
            Wal.close w;
            let r = Wal.read ~path in
            Alcotest.(check bool) "not torn" false r.Wal.torn;
            Alcotest.(check (list int)) "seqs"
              [ 5; 6; 7; 8; 9 ]
              (List.map (fun rec_ -> rec_.Wal.seq) r.Wal.records);
            Alcotest.(check (list string)) "payloads"
              (payload_strings all_payloads)
              (payload_strings
                 (List.map (fun rec_ -> rec_.Wal.payload) r.Wal.records))));
    Util.tc "wal: float payloads survive bit-exact" (fun () ->
        with_temp_dir (fun dir ->
            let path = Filename.concat dir "wal.log" in
            let floats =
              [ 0.1; -0.1; 1.0 /. 3.0; 1e300; -2.5e-10; Float.min_float;
                0.30000000000000004 ]
            in
            let row = Array.of_list (List.map (fun f -> Value.Float f) floats) in
            let w = Wal.openw ~path ~next_seq:1 () in
            ignore
              (Wal.append w
                 (Wal.Batch { view = "v"; source = "t"; seq = 1;
                              replica = false; rows = [ row ] }));
            Wal.close w;
            match (Wal.read ~path).Wal.records with
            | [ { Wal.payload = Wal.Batch { rows = [ row' ]; _ }; _ } ] ->
              List.iteri
                (fun i f ->
                   match row'.(i) with
                   | Value.Float f' ->
                     Alcotest.(check int64)
                       (Printf.sprintf "bits of %h" f)
                       (Int64.bits_of_float f) (Int64.bits_of_float f')
                   | v -> Alcotest.fail (Value.to_string v))
                floats
            | _ -> Alcotest.fail "expected one batch record"));
    Util.tc "wal: torn tail is discarded and repaired" (fun () ->
        with_temp_dir (fun dir ->
            let path = Filename.concat dir "wal.log" in
            let f = faults () in
            let w = Wal.openw ~faults:f ~path ~next_seq:1 () in
            ignore (Wal.append w (Wal.Stmt "one"));
            ignore (Wal.append w (Wal.Stmt "two"));
            Fault.schedule f Fault.Torn_tail ~after:0;
            (match Wal.append w (Wal.Stmt "three") with
             | exception Fault.Injected_crash -> ()
             | _ -> Alcotest.fail "expected injected crash");
            let r = Wal.repair ~path in
            Alcotest.(check bool) "torn" true r.Wal.torn;
            Alcotest.(check (list string)) "valid prefix survives"
              [ "stmt \"one\""; "stmt \"two\"" ]
              (payload_strings
                 (List.map (fun rec_ -> rec_.Wal.payload) r.Wal.records));
            (* the repaired log accepts appends again *)
            let w2 = Wal.openw ~path ~next_seq:3 () in
            ignore (Wal.append w2 (Wal.Stmt "three again"));
            Wal.close w2;
            let r2 = Wal.read ~path in
            Alcotest.(check bool) "clean after repair" false r2.Wal.torn;
            Alcotest.(check int) "records" 3 (List.length r2.Wal.records)));
    Util.tc "wal: truncated header and corrupt record are both torn tails"
      (fun () ->
         List.iter
           (fun kind ->
              with_temp_dir (fun dir ->
                  let path = Filename.concat dir "wal.log" in
                  let f = faults () in
                  let w = Wal.openw ~faults:f ~path ~next_seq:1 () in
                  ignore (Wal.append w (Wal.Stmt "keep"));
                  Fault.schedule f kind ~after:0;
                  (match Wal.append w (Wal.Stmt "lose") with
                   | exception Fault.Injected_crash -> ()
                   | _ -> Alcotest.fail "expected injected crash");
                  let r = Wal.read ~path in
                  Alcotest.(check bool)
                    (Fault.kind_to_string kind ^ " torn") true r.Wal.torn;
                  Alcotest.(check int)
                    (Fault.kind_to_string kind ^ " prefix") 1
                    (List.length r.Wal.records)))
           [ Fault.Truncated_record; Fault.Corrupt_record ]);
    Util.tc "wal: sequence numbers stay monotonic across truncation"
      (fun () ->
         with_temp_dir (fun dir ->
             let path = Filename.concat dir "wal.log" in
             let w = Wal.openw ~path ~next_seq:1 () in
             ignore (Wal.append w (Wal.Stmt "a"));
             ignore (Wal.append w (Wal.Stmt "b"));
             Wal.truncate w;
             let seq = Wal.append w (Wal.Stmt "c") in
             Wal.close w;
             Alcotest.(check int) "seq continues" 3 seq;
             match (Wal.read ~path).Wal.records with
             | [ r ] -> Alcotest.(check int) "only the new record" 3 r.Wal.seq
             | rs -> Alcotest.fail (string_of_int (List.length rs))));
    Util.tc "checkpoint: save/load round-trip and manifest validation"
      (fun () ->
         with_temp_dir (fun dir ->
             let db =
               Util.db_with
                 [ "CREATE TABLE t(a INTEGER, s VARCHAR)";
                   "INSERT INTO t VALUES (1, 'x'), (2, NULL)" ]
             in
             let p1 = Checkpoint.save db ~dir ~last_seq:4 in
             Alcotest.(check (option int)) "valid" (Some 4)
               (Checkpoint.validate p1);
             Util.exec db "INSERT INTO t VALUES (3, 'y')";
             let p2 = Checkpoint.save db ~dir ~last_seq:9 in
             (match Checkpoint.load_latest ~dir with
              | Some (db2, seq) ->
                Alcotest.(check int) "newest" 9 seq;
                Alcotest.(check (list string)) "rows"
                  (Util.sorted_rows db "SELECT * FROM t")
                  (Util.sorted_rows db2 "SELECT * FROM t")
              | None -> Alcotest.fail "no checkpoint loaded");
             (* corrupt a CSV in the newest checkpoint: recovery must fall
                back to the older one *)
             let oc = open_out_gen [ Open_append ] 0o644
                 (Filename.concat p2 "t.csv") in
             output_string oc "garbage\n";
             close_out oc;
             (match Checkpoint.load_latest ~dir with
              | Some (db3, seq) ->
                Alcotest.(check int) "fell back" 4 seq;
                Alcotest.(check int) "older contents" 2
                  (Database.query_int db3 "SELECT COUNT(*) FROM t")
              | None -> Alcotest.fail "expected fallback");
             Checkpoint.prune ~dir ~keep:1;
             Alcotest.(check int) "pruned" 1
               (List.length (Checkpoint.list ~dir))));
    Util.tc "store: committed statements survive reopen" (fun () ->
        with_temp_dir (fun dir ->
            let store = seed_store dir in
            ignore
              (Store.exec store
                 "INSERT INTO groups VALUES ('a', 1), ('b', 2)");
            let v =
              match Store.exec store install_sql with
              | `Installed v -> v
              | _ -> Alcotest.fail "expected install"
            in
            ignore (Store.exec store "INSERT INTO groups VALUES ('a', 10)");
            Runner.refresh v;
            let expected = Runner.visible_rows v in
            Store.close store;
            let store2 = Store.open_ ~dir () in
            let info = Store.last_recovery store2 in
            Alcotest.(check int) "reattached via ledger" 0
              info.Store.views_reattached;
            Alcotest.(check bool) "replayed the log" true
              (info.Store.replayed > 0);
            Alcotest.(check (list string)) "view contents" expected
              (qg_rows store2);
            Alcotest.(check bool) "verified" true (Store.verify store2);
            (* the store keeps accepting work after recovery *)
            ignore (Store.exec store2 "INSERT INTO groups VALUES ('c', 5)");
            Alcotest.(check bool) "still consistent" true
              (Store.verify store2);
            Store.close store2));
    Util.tc "store: staged backfill chunks and finishes the ledger"
      (fun () ->
         with_temp_dir (fun dir ->
             let store = seed_store ~chunk_rows:3 dir in
             for i = 1 to 10 do
               ignore
                 (Store.exec store
                    (Printf.sprintf
                       "INSERT INTO groups VALUES ('g%d', %d)" (i mod 4) i))
             done;
             (match Store.exec store install_sql with
              | `Installed v ->
                Alcotest.(check int) "chunk math" 4
                  (Runner.backfill_total_chunks v ~chunk_rows:3);
                Alcotest.(check bool) "chunkable" true
                  (Runner.backfill_chunkable v)
              | _ -> Alcotest.fail "expected install");
             Util.check_scalar (Store.db store)
               "SELECT state FROM _openivm_backfill_progress WHERE \
                view_name = 'qg'"
               "done";
             Util.check_scalar (Store.db store)
               "SELECT chunks_done FROM _openivm_backfill_progress WHERE \
                view_name = 'qg'"
               "4";
             Alcotest.(check bool) "backfilled view is exact" true
               (Store.verify store);
             Store.close store));
    Util.tc "store: backfill killed at chunk K resumes at K, not 0"
      (fun () ->
         with_temp_dir (fun dir ->
             let f = faults () in
             let store = seed_store ~faults:f ~chunk_rows:2 dir in
             for i = 1 to 10 do
               ignore
                 (Store.exec store
                    (Printf.sprintf
                       "INSERT INTO groups VALUES ('g%d', %d)" (i mod 3) i))
             done;
             (* rolls happen once per chunk: the third roll = chunk 2 *)
             Fault.schedule f Fault.Chunk_crash ~after:2;
             (match Store.exec store install_sql with
              | exception Fault.Injected_crash -> ()
              | _ -> Alcotest.fail "expected injected crash");
             let store2 = Store.open_ ~dir () in
             Alcotest.(check (list (pair string int)))
               "resumed from chunk 2, not chunk 0"
               [ ("qg", 2) ]
               (Store.last_recovery store2).Store.backfills_resumed;
             Util.check_scalar (Store.db store2)
               "SELECT state FROM _openivm_backfill_progress WHERE \
                view_name = 'qg'"
               "done";
             Alcotest.(check bool) "converged after resume" true
               (Store.verify store2);
             Store.close store2));
    Util.tc "store: backfill killed at chunk K resumes at K across tombstones"
      (fun () ->
         with_temp_dir (fun dir ->
             let f = faults () in
             let store = seed_store ~faults:f ~chunk_rows:4 dir in
             let live = seed_tombstoned store ~rows:60 ~groups:7 in
             Fault.schedule f Fault.Chunk_crash ~after:5;
             (match Store.exec store install_sql with
              | exception Fault.Injected_crash -> ()
              | _ -> Alcotest.fail "expected injected crash");
             let store2 = Store.open_ ~dir () in
             Alcotest.(check (list (pair string int)))
               "resumed from chunk 5" [ ("qg", 5) ]
               (Store.last_recovery store2).Store.backfills_resumed;
             Util.check_scalar (Store.db store2)
               "SELECT chunks_done FROM _openivm_backfill_progress WHERE \
                view_name = 'qg'"
               (string_of_int ((live + 3) / 4));
             Alcotest.(check bool) "converged after resume" true
               (Store.verify store2);
             Store.close store2));
    Util.tc "store: replaying a multi-chunk install equals the live install"
      (fun () ->
         with_temp_dir (fun dir ->
             let store = seed_store ~chunk_rows:3 dir in
             let live = seed_tombstoned store ~rows:45 ~groups:4 in
             ignore (Store.exec store install_sql);
             let backing = Util.sorted_rows (Store.db store) "SELECT * FROM qg" in
             let visible = qg_rows store in
             Store.close store;
             let store2 = Store.open_ ~dir () in
             let info = Store.last_recovery store2 in
             Alcotest.(check int) "no checkpoint" 0 info.Store.checkpoint_seq;
             (* CREATE TABLE, the INSERTs, the DELETE, Install, the Chunks *)
             Alcotest.(check int) "every chunk record replayed"
               (1 + 1 + 1 + 1 + ((live + 2) / 3))
               info.Store.replayed;
             Alcotest.(check (list (pair string int))) "nothing to resume" []
               info.Store.backfills_resumed;
             Alcotest.(check (list string)) "backing rows, hidden state too"
               backing
               (Util.sorted_rows (Store.db store2) "SELECT * FROM qg");
             Alcotest.(check (list string)) "visible rows" visible
               (qg_rows store2);
             Alcotest.(check bool) "converged" true (Store.verify store2);
             Store.close store2));
    Util.tc "store: a backfill walk refuses a base table changed under it"
      (fun () ->
         let db =
           Util.db_with
             [ "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER)";
               "INSERT INTO groups VALUES ('a', 1), ('b', 2), ('a', 3), \
                ('b', 4), ('a', 5)" ]
         in
         let v = Runner.install ~load:`Deferred db install_sql in
         let walk = Runner.backfill_from v ~chunk_rows:2 ~index:0 in
         Alcotest.(check int) "first chunk" 2 (Runner.backfill_next walk);
         Util.exec db "DELETE FROM groups WHERE group_value = 1";
         match Runner.backfill_next walk with
         | exception Error.Sql_error _ -> ()
         | _ -> Alcotest.fail "expected the walk to refuse");
    Util.tc "store: a backfill allocates the same per base row at N and 4N"
      (fun () ->
         (* a backfill that copies the base table per chunk allocates
            O(N) per row; one walk allocates a constant *)
         let small = install_words_per_row ~rows:2_000
         and large = install_words_per_row ~rows:8_000 in
         if large > 1.3 *. small then
           Alcotest.failf
             "words per base row grew %.2fx (%.0f at 2,000 rows, %.0f at \
              8,000); the bound is 1.3x"
             (large /. small) small large);
    Util.tc "store: checkpoint truncates the log; recovery replays nothing"
      (fun () ->
         with_temp_dir (fun dir ->
             let store = seed_store dir in
             ignore
               (Store.exec store
                  "INSERT INTO groups VALUES ('a', 1), ('b', 2)");
             ignore (Store.exec store install_sql);
             ignore (Store.checkpoint store);
             Store.close store;
             let store2 = Store.open_ ~dir () in
             let info = Store.last_recovery store2 in
             Alcotest.(check bool) "from a checkpoint" true
               (info.Store.checkpoint_seq > 0);
             Alcotest.(check int) "nothing to replay" 0 info.Store.replayed;
             Alcotest.(check int) "view reattached" 1
               info.Store.views_reattached;
             Alcotest.(check bool) "converged" true (Store.verify store2);
             (* capture triggers were re-armed by the reattach *)
             ignore (Store.exec store2 "INSERT INTO groups VALUES ('a', 7)");
             Alcotest.(check bool) "still incremental" true
               (Store.verify store2);
             Alcotest.(check (list string)) "values fold in"
               [ "(a, 8)"; "(b, 2)" ] (qg_rows store2);
             Store.close store2));
    Util.tc
      "store: crash between checkpoint and truncation double-applies nothing"
      (fun () ->
         with_temp_dir (fun dir ->
             let f = faults () in
             let store = seed_store ~faults:f dir in
             ignore
               (Store.exec store
                  "INSERT INTO groups VALUES ('a', 1), ('b', 2)");
             ignore (Store.exec store install_sql);
             Fault.schedule f Fault.Truncate_crash ~after:0;
             (match Store.checkpoint store with
              | exception Fault.Injected_crash -> ()
              | _ -> Alcotest.fail "expected injected crash");
             let store2 = Store.open_ ~dir () in
             let info = Store.last_recovery store2 in
             Alcotest.(check bool) "checkpoint did land" true
               (info.Store.checkpoint_seq > 0);
             (* the full WAL survived, but every record sits at or below
                the checkpoint seq: replaying any of them would double-
                apply the inserts (SUM would become 2a) *)
             Alcotest.(check int) "tail skipped" 0 info.Store.replayed;
             Alcotest.(check (list string)) "no double apply"
               [ "(a, 1)"; "(b, 2)" ] (qg_rows store2);
             Alcotest.(check bool) "converged" true (Store.verify store2);
             Store.close store2));
    Util.tc "store: torn live append loses only the uncommitted statement"
      (fun () ->
         with_temp_dir (fun dir ->
             let f = faults () in
             let store = seed_store ~faults:f dir in
             ignore (Store.exec store "INSERT INTO groups VALUES ('a', 1)");
             Fault.schedule f Fault.Torn_tail ~after:0;
             (match Store.exec store "INSERT INTO groups VALUES ('b', 2)" with
              | exception Fault.Injected_crash -> ()
              | _ -> Alcotest.fail "expected injected crash");
             let store2 = Store.open_ ~dir () in
             Alcotest.(check bool) "tail was torn" true
               (Store.last_recovery store2).Store.torn_tail;
             Util.check_rows (Store.db store2) "SELECT * FROM groups"
               [ "(a, 1)" ];
             Store.close store2));
    Util.tc "store: journaled bridge batches fast-forward watermarks"
      (fun () ->
         with_temp_dir (fun dir ->
             let store = seed_store dir in
             let v =
               match Store.exec store install_sql with
               | `Installed v -> v
               | _ -> Alcotest.fail "expected install"
             in
             let schema =
               "CREATE TABLE groups(group_index VARCHAR, group_value \
                INTEGER)"
             in
             let p =
               Openivm_htap.Pipeline.create ~olap:(Store.db store) ~view:v
                 ~on_apply:(fun ~source ~seq ~replica rows ->
                     Store.log_batch store ~view:"qg" ~source ~seq ~replica
                       rows)
                 ~schema_sql:schema ~view_sql:install_sql ()
             in
             ignore
               (Openivm_htap.Pipeline.exec_oltp p
                  "INSERT INTO groups VALUES ('a', 1), ('b', 2)");
             ignore (Openivm_htap.Pipeline.sync p);
             ignore
               (Openivm_htap.Pipeline.exec_oltp p
                  "INSERT INTO groups VALUES ('a', 10)");
             ignore (Openivm_htap.Pipeline.sync p);
             Alcotest.(check bool) "pipeline converged" true
               (Openivm_htap.Pipeline.verify p);
             Store.close store;
             (* "restart the OLAP process": recover the store, then verify
                the bridge's exactly-once state traveled with it *)
             let store2 = Store.open_ ~dir () in
             Alcotest.(check int) "watermark fast-forwarded" 2
               (Database.query_int (Store.db store2)
                  "SELECT last_seq FROM _openivm_bridge_watermarks WHERE \
                   source = 'groups'");
             Alcotest.(check (list string)) "view recovered"
               [ "(a, 11)"; "(b, 2)" ] (qg_rows store2);
             Store.close store2));
    Util.tc "store: cascaded views recover in install order" (fun () ->
        with_temp_dir (fun dir ->
            let store = seed_store ~chunk_rows:2 dir in
            for i = 1 to 6 do
              ignore
                (Store.exec store
                   (Printf.sprintf
                      "INSERT INTO groups VALUES ('g%d', %d)" (i mod 2) i))
            done;
            ignore (Store.exec store install_sql);
            ignore
              (Store.exec store
                 "CREATE MATERIALIZED VIEW qtop AS SELECT SUM(s) AS total \
                  FROM qg");
            ignore (Store.exec store "INSERT INTO groups VALUES ('g0', 100)");
            ignore (Store.checkpoint store);
            ignore (Store.exec store "INSERT INTO groups VALUES ('g1', 50)");
            Store.close store;
            let store2 = Store.open_ ~dir () in
            Alcotest.(check int) "both views reattached" 2
              (Store.last_recovery store2).Store.views_reattached;
            (match Store.find_view store2 "qtop" with
             | Some vtop ->
               Alcotest.(check int) "cascade DAG rewired" 1
                 (Runner.dag_level vtop)
             | None -> Alcotest.fail "qtop missing");
            Alcotest.(check bool) "whole DAG converged" true
              (Store.verify store2);
            Util.check_rows (Store.db store2) "SELECT total FROM qtop"
              [ "(171)" ];
            Store.close store2));
    Util.tc "store: checkpoint refuses while a backfill is incomplete"
      (fun () ->
         with_temp_dir (fun dir ->
             let f = faults () in
             let store = seed_store ~faults:f ~chunk_rows:1 dir in
             for i = 1 to 4 do
               ignore
                 (Store.exec store
                    (Printf.sprintf "INSERT INTO groups VALUES ('g', %d)" i))
             done;
             Fault.schedule f Fault.Chunk_crash ~after:1;
             (match Store.exec store install_sql with
              | exception Fault.Injected_crash -> ()
              | _ -> Alcotest.fail "expected injected crash");
             (* the dying process can no longer checkpoint a half-filled
                view into durability *)
             match Store.checkpoint store with
             | exception Error.Sql_error _ -> ()
             | _ -> Alcotest.fail "expected checkpoint refusal"));
  ]
