(** Crash-injection soak (`dune build @crash`, also part of the default
    runtest): run a seeded workload through the durable store while
    storage faults kill the process at WAL appends, backfill chunk
    boundaries and the checkpoint/truncate window; after every simulated
    death, reopen the directory and resume from the first uncommitted
    statement. The recovered store must converge exactly to an in-memory
    oracle that ran the whole workload without crashing — across all five
    combine strategies — and a store-backed HTAP pipeline restarted
    mid-stream must land on the same rows as one that never died.
    Deterministic (seeded fault and workload RNGs) and bounded. *)

open Openivm_engine
module Store = Openivm_store.Store
module Fault = Openivm_htap.Fault
module Pipeline = Openivm_htap.Pipeline
module Runner = Openivm.Runner
module Flags = Openivm.Flags

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "  FAIL %s\n%!" name
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "openivm_crash" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let groups_schema =
  "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER)"

let qg_sql =
  "CREATE MATERIALIZED VIEW qg AS SELECT group_index, SUM(group_value) AS \
   s, COUNT(*) AS n FROM groups GROUP BY group_index"

let qtop_sql =
  "CREATE MATERIALIZED VIEW qtop AS SELECT SUM(s) AS total FROM qg"

let view_rows store name =
  match Store.find_view store name with
  | Some v -> Runner.visible_rows v
  | None ->
    check (Printf.sprintf "view %s survived" name) false;
    []

(* ------------------------------------------------------------------ *)
(* The main soak: workload × strategy under probabilistic storage
   faults, driven by a supervisor that reopens the directory after
   every injected death and retries the interrupted statement. *)

type step =
  | Stmt of string
  | Install of string * string  (* view name, CREATE MATERIALIZED VIEW *)
  | Checkpoint

let workload ~seed : step list =
  let rng = Random.State.make [| seed |] in
  let steps = ref [] in
  let add s = steps := s :: !steps in
  add (Stmt groups_schema);
  (* enough seed rows that the qg backfill spans many chunks *)
  for i = 1 to 30 do
    add
      (Stmt
         (Printf.sprintf "INSERT INTO groups VALUES ('g%d', %d)" (i mod 7)
            (Random.State.int rng 100)))
  done;
  add (Install ("qg", qg_sql));
  for i = 1 to 90 do
    (match Random.State.int rng 10 with
     | 0 | 1 ->
       add
         (Stmt
            (Printf.sprintf
               "DELETE FROM groups WHERE group_index = 'g%d' AND \
                group_value %% 5 = %d"
               (Random.State.int rng 7) (Random.State.int rng 5)))
     | 2 ->
       add
         (Stmt
            (Printf.sprintf
               "UPDATE groups SET group_value = group_value + %d WHERE \
                group_index = 'g%d'"
               (1 + Random.State.int rng 9)
               (Random.State.int rng 7)))
     | _ ->
       add
         (Stmt
            (Printf.sprintf "INSERT INTO groups VALUES ('g%d', %d)"
               (Random.State.int rng 7) (Random.State.int rng 100))));
    if i = 30 then add (Install ("qtop", qtop_sql));
    if i mod 25 = 0 then add Checkpoint
  done;
  List.rev !steps

(* Feed the workload, treating every [Fault.Injected_crash] as a process
   death: reopen the same directory (recovery may itself be killed —
   recover again) and retry the interrupted statement. The retry is safe
   because a crashed append never leaves a valid record, and an install
   whose [Install] record survived is finished by recovery itself. *)
let drive_store ~flags ~faults ~dir steps : Store.t * int =
  let chunk_rows = 4 in
  let crashes = ref 0 in
  let open_store () = Store.open_ ~flags ~faults ~chunk_rows ~dir () in
  let store = ref (open_store ()) in
  let rec reopen () =
    incr crashes;
    match open_store () with
    | s -> store := s
    | exception Fault.Injected_crash -> reopen ()
  in
  let rec attempt step =
    match step with
    | Stmt sql -> (
        try ignore (Store.exec !store sql)
        with Fault.Injected_crash ->
          reopen ();
          attempt step)
    | Install (name, sql) ->
      if Store.find_view !store name = None then (
        try ignore (Store.exec !store sql)
        with Fault.Injected_crash ->
          reopen ();
          (* recovery resumes a logged install to completion; only an
             install whose record was lost needs to start over *)
          attempt step)
    | Checkpoint -> (
        try ignore (Store.checkpoint !store)
        with Fault.Injected_crash ->
          (* the checkpoint either landed (killed before truncation) or
             did not; recovery copes with both, no retry needed *)
          reopen ())
  in
  List.iter attempt steps;
  (!store, !crashes)

let run_strategy strategy =
  let sname = Flags.strategy_to_string strategy in
  Printf.printf "crash soak [%s]...\n%!" sname;
  let seed = 0xC0FFEE + Hashtbl.hash sname in
  let flags = { Flags.default with Flags.strategy } in
  let spec =
    Fault.storage_chaos ~torn_tail:0.02 ~truncated_record:0.02
      ~corrupt_record:0.02 ~chunk_crash:0.1 ~truncate_crash:0.3 ()
  in
  let faults = Fault.create ~seed spec in
  let steps = workload ~seed in
  (* the no-crash oracle: same statements, plain in-memory extension *)
  let odb = Database.create ~name:"oracle" () in
  let oext = Runner.load ~flags odb in
  List.iter
    (function
      | Stmt sql | Install (_, sql) ->
        ignore (Runner.exec_ext oext (Openivm_sql.Parser.parse_statement sql))
      | Checkpoint -> ())
    steps;
  with_temp_dir (fun dir ->
      let store, crashes = drive_store ~flags ~faults ~dir steps in
      check (sname ^ ": the soak actually crashed") (crashes > 0);
      check (sname ^ ": recovered store verifies") (Store.verify store);
      List.iter
        (fun vname ->
           let oracle =
             match Runner.find_view oext vname with
             | Some v -> Runner.visible_rows v
             | None -> []
           in
           check
             (Printf.sprintf "%s: %s matches the no-crash oracle" sname vname)
             (view_rows store vname = oracle))
        [ "qg"; "qtop" ];
      (* one clean restart on top: committed state is stable *)
      let before = List.map (view_rows store) [ "qg"; "qtop" ] in
      Store.close store;
      let store2 = Store.open_ ~flags ~dir () in
      check
        (sname ^ ": clean reopen preserves every view")
        (List.map (view_rows store2) [ "qg"; "qtop" ] = before);
      check (sname ^ ": clean reopen verifies") (Store.verify store2);
      Store.close store2);
  faults

(* ------------------------------------------------------------------ *)
(* Targeted crash points: one scheduled injection per storage fault
   kind, each asserting the precise recovery contract. *)

let seed_store ~faults dir =
  let store = Store.open_ ~faults ~chunk_rows:3 ~dir () in
  ignore (Store.exec store groups_schema);
  store

(* A statement killed inside its WAL append is not committed: recovery
   discards the tail and the retry applies it exactly once. *)
let lost_statement kind =
  let name = "scheduled " ^ Fault.kind_to_string kind in
  with_temp_dir (fun dir ->
      let faults = Fault.create ~seed:11 Fault.none in
      let store = seed_store ~faults dir in
      ignore (Store.exec store "INSERT INTO groups VALUES ('a', 1)");
      ignore (Store.exec store qg_sql);
      let before = Store.committed_seq store in
      Fault.schedule faults kind ~after:0;
      (match Store.exec store "INSERT INTO groups VALUES ('b', 2)" with
       | exception Fault.Injected_crash -> ()
       | _ -> check (name ^ ": crash fired") false);
      check (name ^ ": injection counted") (Fault.injected faults kind = 1);
      let store = Store.open_ ~faults ~chunk_rows:3 ~dir () in
      check
        (name ^ ": uncommitted statement lost")
        (Store.committed_seq store = before);
      check
        (name ^ ": torn tail detected")
        (Store.last_recovery store).Store.torn_tail;
      ignore (Store.exec store "INSERT INTO groups VALUES ('b', 2)");
      check
        (name ^ ": retry applies exactly once")
        (view_rows store "qg" = [ "(a, 1, 1)"; "(b, 2, 1)" ]);
      check (name ^ ": verifies") (Store.verify store);
      Store.close store)

(* A backfill killed at chunk K resumes at chunk K — never chunk 0. *)
let killed_backfill_resumes () =
  let name = "scheduled chunk_crash" in
  with_temp_dir (fun dir ->
      let faults = Fault.create ~seed:13 Fault.none in
      let store = seed_store ~faults dir in
      for i = 1 to 10 do
        ignore
          (Store.exec store
             (Printf.sprintf "INSERT INTO groups VALUES ('g%d', %d)" (i mod 3)
                i))
      done;
      Fault.schedule faults Fault.Chunk_crash ~after:2;
      (match Store.exec store qg_sql with
       | exception Fault.Injected_crash -> ()
       | _ -> check (name ^ ": crash fired") false);
      let store = Store.open_ ~faults ~chunk_rows:3 ~dir () in
      let resumed = (Store.last_recovery store).Store.backfills_resumed in
      (match List.assoc_opt "qg" resumed with
       | Some k ->
         check (name ^ ": resumed mid-backfill, not at chunk 0") (k = 2)
       | None -> check (name ^ ": resume reported") false);
      check (name ^ ": backfill completes") (Store.verify store);
      check
        (name ^ ": view converges after resume")
        (view_rows store "qg"
         = [ "(g0, 18, 3)"; "(g1, 22, 4)"; "(g2, 15, 3)" ]);
      Store.close store)

(* Killed between writing the checkpoint and truncating the WAL: the
   tail overlaps the checkpoint, and replay must skip it entirely. *)
let truncate_crash_no_double_apply () =
  let name = "scheduled truncate_crash" in
  with_temp_dir (fun dir ->
      let faults = Fault.create ~seed:17 Fault.none in
      let store = seed_store ~faults dir in
      ignore (Store.exec store qg_sql);
      ignore (Store.exec store "INSERT INTO groups VALUES ('a', 5)");
      ignore (Store.exec store "INSERT INTO groups VALUES ('b', 7)");
      Fault.schedule faults Fault.Truncate_crash ~after:0;
      (match Store.checkpoint store with
       | exception Fault.Injected_crash -> ()
       | _ -> check (name ^ ": crash fired") false);
      let store = Store.open_ ~faults ~chunk_rows:3 ~dir () in
      let r = Store.last_recovery store in
      check (name ^ ": checkpoint landed") (r.Store.checkpoint_seq > 0);
      check (name ^ ": overlapping tail skipped") (r.Store.replayed = 0);
      check
        (name ^ ": no double apply")
        (view_rows store "qg" = [ "(a, 5, 1)"; "(b, 7, 1)" ]);
      check (name ^ ": verifies") (Store.verify store);
      Store.close store)

(* ------------------------------------------------------------------ *)
(* Restart equivalence over one data directory: a store-backed pipeline
   whose journal append dies mid-batch, reopened and re-driven, must
   land on exactly the rows of a pipeline that never crashed. The
   redelivered batches are deduplicated by the recovered watermarks. *)

let bridge_statements =
  List.init 40 (fun i ->
      Printf.sprintf "INSERT INTO groups VALUES ('g%d', %d)" (i mod 5)
        (i * 3))

(* Attach a pipeline to the store's OLAP database (installing qg if this
   store has never seen it), journal every applied batch, and feed the
   whole OLTP history; [crash_at_sync] arms a torn journal append just
   before that sync. Returns the pipeline unless the injected death
   escaped. *)
let drive_bridge store ~faults ~crash_at_sync :
  [ `Done of Pipeline.t | `Crashed ] =
  let v =
    match Store.find_view store "qg" with
    | Some v -> v
    | None -> (
        match Store.exec store qg_sql with
        | `Installed v -> v
        | `Result _ -> failwith "install did not install")
  in
  let p =
    Pipeline.create ~oltp_latency:0.0 ~backoff_base:1e-6
      ~schema_sql:(groups_schema ^ ";") ~view_sql:qg_sql
      ~olap:(Store.db store) ~view:v
      ~on_apply:(fun ~source ~seq ~replica rows ->
          Store.log_batch store ~view:"qg" ~source ~seq ~replica rows)
      ()
  in
  let syncs = ref 0 in
  try
    List.iteri
      (fun i sql ->
         ignore (Pipeline.exec_oltp p sql);
         if (i + 1) mod 8 = 0 then begin
           incr syncs;
           if crash_at_sync = Some !syncs then
             Fault.schedule faults Fault.Torn_tail ~after:0;
           ignore (Pipeline.sync p)
         end)
      bridge_statements;
    ignore (Pipeline.sync p);
    `Done p
  with Fault.Injected_crash -> `Crashed

let restart_equivalence () =
  let name = "bridge restart equivalence" in
  (* control: no faults, one uninterrupted run *)
  let control =
    with_temp_dir (fun dir ->
        let faults = Fault.create ~seed:3 Fault.none in
        let store = Store.open_ ~faults ~chunk_rows:4 ~dir () in
        ignore (Store.exec store groups_schema);
        (match drive_bridge store ~faults ~crash_at_sync:None with
         | `Done p ->
           check (name ^ ": control converges") (Pipeline.verify p)
         | `Crashed -> check (name ^ ": control never crashes") false);
        let rows = view_rows store "qg" in
        Store.close store;
        rows)
  in
  with_temp_dir (fun dir ->
      let faults = Fault.create ~seed:5 Fault.none in
      let store = Store.open_ ~faults ~chunk_rows:4 ~dir () in
      ignore (Store.exec store groups_schema);
      (* the batch lands in memory and its watermark advances, but the
         journal record is torn — the process dies before the outbox
         acknowledgement could have happened *)
      (match drive_bridge store ~faults ~crash_at_sync:(Some 2) with
       | `Crashed -> ()
       | `Done _ ->
         check (name ^ ": the journal append died mid-batch") false);
      (* the process is gone; reopen the directory and re-drive the
         whole OLTP history through a fresh pipeline attached to the
         recovered store — journaled batches dedup on the recovered
         watermark, the torn one is redelivered *)
      let store2 = Store.open_ ~faults ~chunk_rows:4 ~dir () in
      check
        (name ^ ": journaled batches replayed")
        ((Store.last_recovery store2).Store.replayed > 0);
      (match drive_bridge store2 ~faults ~crash_at_sync:None with
       | `Done p ->
         check (name ^ ": restarted pipeline converges") (Pipeline.verify p);
         check
           (name ^ ": recovered watermark deduplicated redelivery")
           ((Pipeline.stats p).Pipeline.deduped > 0)
       | `Crashed -> check (name ^ ": restarted run stays up") false);
      check
        (name ^ ": same rows as the run that never died")
        (view_rows store2 "qg" = control);
      (* no Store.verify here: the bridge keeps base rows on the OLTP
         side (a linear view needs no OLAP replica), so recomputing the
         defining query against the store's empty base table is not the
         invariant — a clean reopen preserving the rows is *)
      Store.close store2;
      let store3 = Store.open_ ~chunk_rows:4 ~dir () in
      check
        (name ^ ": clean reopen preserves the journaled view")
        (view_rows store3 "qg" = control);
      Store.close store3)

(* ------------------------------------------------------------------ *)

let () =
  let fault_handles = List.map run_strategy Flags.all_strategies in
  check "soak: every storage fault kind fired at least once"
    (List.for_all
       (fun k ->
          List.exists (fun f -> Fault.injected f k > 0) fault_handles)
       Fault.storage_kinds);
  List.iter lost_statement
    [ Fault.Torn_tail; Fault.Truncated_record; Fault.Corrupt_record ];
  killed_backfill_resumes ();
  truncate_crash_no_double_apply ();
  restart_equivalence ();
  if !failures = 0 then print_endline "crash soak: all checks passed"
  else begin
    Printf.printf "crash soak: %d check(s) FAILED\n" !failures;
    exit 1
  end
