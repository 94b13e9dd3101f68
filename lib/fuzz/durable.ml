(** Crash-replay durability oracle: the store run — killed and reopened
    at seeded crash points — must converge to the same view contents as
    an in-memory extension that executed the whole case untouched. The
    supervisor mirrors a real client: retry the interrupted statement
    after reconnecting, skipping installs that recovery already
    finished. *)

open Openivm_engine
module Flags = Openivm.Flags
module Runner = Openivm.Runner
module Fault = Openivm_htap.Fault
module Store = Openivm_store.Store

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "openivm_fuzz_crash" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* the generator names its views [v] and [v2]; fall back gracefully *)
let view_name_of sql =
  match String.split_on_char ' ' sql with
  | "CREATE" :: "MATERIALIZED" :: "VIEW" :: name :: _ -> name
  | _ -> "v"

type step =
  | Sql of string
  | Install of string * string
  | Checkpoint

(* One checkpoint right after the installs and one mid-workload, so the
   fault schedule can hit the checkpoint/truncate window and replay has
   both a checkpoint base and a live tail. *)
let steps_of (case : Case.t) : step list =
  let workload = List.map (fun s -> Sql s) case.Case.workload in
  let half = List.length workload / 2 in
  List.map (fun s -> Sql s) (case.Case.schema @ case.Case.setup)
  @ List.map (fun v -> Install (view_name_of v, v)) case.Case.views
  @ [ Checkpoint ]
  @ List.filteri (fun i _ -> i < half) workload
  @ [ Checkpoint ]
  @ List.filteri (fun i _ -> i >= half) workload

let spec =
  Fault.storage_chaos ~torn_tail:0.02 ~truncated_record:0.02
    ~corrupt_record:0.02 ~chunk_crash:0.08 ~truncate_crash:0.25 ()

(* Drive the steps, treating every [Injected_crash] as a process death:
   reopen (recovery itself may be killed — recover again) and retry the
   interrupted statement. A crashed append never leaves a valid record,
   so the retry applies exactly once; an install whose record survived
   is completed by recovery and must not be retried. *)
let drive ~flags ~faults ~dir steps : Store.t =
  let chunk_rows = 3 in
  let open_store () = Store.open_ ~flags ~faults ~chunk_rows ~dir () in
  let store = ref (open_store ()) in
  let rec reopen () =
    match open_store () with
    | s -> store := s
    | exception Fault.Injected_crash -> reopen ()
  in
  let rec attempt step =
    match step with
    | Sql sql -> (
        try ignore (Store.exec !store sql)
        with Fault.Injected_crash ->
          reopen ();
          attempt step)
    | Install (name, sql) ->
      if Store.find_view !store name = None then (
        try ignore (Store.exec !store sql)
        with Fault.Injected_crash ->
          reopen ();
          attempt step)
    | Checkpoint -> (
        try ignore (Store.checkpoint !store)
        with Fault.Injected_crash -> reopen ())
  in
  List.iter attempt steps;
  !store

let check_strategy ~crash_seed (case : Case.t) strategy :
  int * string option =
  let flags = { Flags.default with Flags.strategy } in
  let steps = steps_of case in
  (* the no-crash reference: same statements, plain in-memory run *)
  let odb = Database.create ~name:"fuzz_oracle" () in
  let oext = Runner.load ~flags odb in
  List.iter
    (function
      | Sql sql | Install (_, sql) -> ignore (Runner.exec_ext oext sql)
      | Checkpoint -> ())
    steps;
  with_temp_dir (fun dir ->
      let faults = Fault.create ~seed:(crash_seed + case.Case.seed) spec in
      let store = drive ~flags ~faults ~dir steps in
      let checks = ref 0 in
      let mismatch =
        List.find_map
          (fun v ->
             let name = view_name_of v in
             incr checks;
             let oracle =
               match Runner.find_view oext name with
               | Some ov -> Runner.visible_rows ov
               | None -> []
             in
             let recovered =
               match Store.find_view store name with
               | Some sv -> Runner.visible_rows sv
               | None -> [ "<view lost>" ]
             in
             if recovered = oracle then None
             else
               Some
                 (Printf.sprintf
                    "view %s diverged after %d injected crash(es): recovered \
                     %s, no-crash run %s"
                    name
                    (Fault.total_injected faults)
                    (String.concat " | " recovered)
                    (String.concat " | " oracle)))
          case.Case.views
      in
      let result =
        match mismatch with
        | Some _ -> mismatch
        | None ->
          incr checks;
          if Store.verify store then None
          else Some "recovered store fails the recompute invariant"
      in
      Store.close store;
      (!checks, result))

let check ~crash_seed (case : Case.t) : int * Oracle.failure option =
  let checks = ref 0 in
  let failure =
    List.find_map
      (fun strategy ->
         let n, err = check_strategy ~crash_seed case strategy in
         checks := !checks + n;
         Option.map
           (fun msg ->
              { Oracle.case;
                strategy = Some strategy;
                dialect = None;
                point = Oracle.Durability;
                message =
                  Printf.sprintf "[%s] %s: %s\n  reproduce: %s"
                    (Flags.strategy_to_string strategy)
                    (Oracle.point_to_string Oracle.Durability)
                    msg
                    (Case.command ~strategy ~crash_seed case) })
           err)
      (Case.strategies case)
  in
  (!checks, failure)
