(* durable_ingest: the embedded extension with durability, one process,
   no server. A [Store] in a fresh directory under the run directory;
   the WAL flush policy is the store's own (flush per record, no fsync). *)

open Workload
module Store = Openivm_store.Store
module Span = Openivm_obs.Span
module Metrics = Openivm_obs.Metrics

let probe = "SELECT total, n FROM grp_totals WHERE grp = 'g0000'"

(* Open, load the table and its lazy view, checkpoint, then the first
   successful request: the set-up time. Each timed open starts from a
   compacted heap, so it does not pay to collect what an earlier store
   of this process left behind. *)
let setup ~dir (inputs : durable_inputs) =
  Gc.compact ();
  let t0 = Mono.now () in
  let st = Store.open_ ~dir () in
  List.iter (fun s -> ignore (Store.exec st s)) inputs.d_setup;
  ignore (Store.checkpoint st);
  (match Store.exec st probe with
   | `Result (Openivm_engine.Database.Rows _) -> ()
   | _ -> failwith "durable_ingest: set-up probe returned no rows");
  (st, Mono.now () -. t0)

type stream = {
  commit_ms : float list;  (** [Store.exec] of each DML statement *)
  read_ms : float list;  (** [Store.exec] of each point read *)
  visible_ms : float list;  (** start of the commit before a read -> end of the read *)
  checkpoint_s : float list;
  checkpoint_dir : string;  (** the newest checkpoint *)
  dml : int;
  affected : int;
  attempted : int;
  failed : int;
  wall : float;
  loop_s : float;  (** time inside the timed store calls *)
  statements : string list;
}

let ms x = 1000.0 *. x

(* Run the stream until [max_dml] statements have committed. Each store
   call sits in a span, a no-op unless tracing is on. [checkpoints:false]
   skips the stream's checkpoints, which writing a WAL tail needs. The
   statements are kept only for the traced run's standalone parse
   timing. *)
let run_stream ?(keep = false) ?(checkpoints = true) st ~next ~max_dml =
  let commit = ref [] and read = ref [] and visible = ref [] and ckpt = ref [] in
  let ckpt_dir = ref "" and dml = ref 0 and affected = ref 0 in
  let attempted = ref 0 and failed = ref 0 and loop = ref 0.0 in
  let stmts = ref [] and last_commit = ref nan in
  let t_start = Mono.now () in
  let timed name kind f =
    incr attempted;
    let t0 = Mono.now () in
    let r =
      try Some (Span.with_span name ~attrs:[ ("kind", Span.Str kind) ] (fun _ -> f ()))
      with e ->
        Printf.eprintf "perfbench: %s failed: %s\n%!" name (Printexc.to_string e);
        incr failed;
        None
    in
    let t1 = Mono.now () in
    loop := !loop +. (t1 -. t0);
    (t0, t1, r)
  in
  let stop = ref false in
  while not !stop do
    match next () with
    | Dml s ->
        let t0, t1, r = timed "store.exec" "write" (fun () -> Store.exec st s) in
        (match r with
         | Some (`Result (Openivm_engine.Database.Affected n)) -> affected := !affected + n
         | _ -> ());
        if keep then stmts := s :: !stmts;
        commit := ms (t1 -. t0) :: !commit;
        last_commit := t0;
        incr dml;
        if !dml >= max_dml then stop := true
    | Point s ->
        let t0, t1, _ = timed "store.exec" "read" (fun () -> Store.exec st s) in
        if keep then stmts := s :: !stmts;
        read := ms (t1 -. t0) :: !read;
        visible := ms (t1 -. !last_commit) :: !visible
    | Checkpoint when not checkpoints -> ()
    | Checkpoint ->
        let t0, t1, r =
          timed "store.checkpoint" "checkpoint" (fun () -> Store.checkpoint st)
        in
        Option.iter (fun d -> ckpt_dir := d) r;
        ckpt := (t1 -. t0) :: !ckpt
  done;
  { commit_ms = !commit; read_ms = !read; visible_ms = !visible;
    checkpoint_s = !ckpt; checkpoint_dir = !ckpt_dir; dml = !dml;
    affected = !affected; attempted = !attempted; failed = !failed;
    wall = Mono.now () -. t_start; loop_s = !loop; statements = !stmts }

(* [Store.open_] of [dir] from a compacted heap, timed, then
   [Store.verify]: the store and its recovery time, and the views that
   failed the check. *)
let reopen ~dir =
  Gc.compact ();
  let t0 = Mono.now () in
  let st = Span.with_span "store.open" (fun _ -> Store.open_ ~dir ()) in
  let dt = Mono.now () -. t0 in
  let bad =
    if Store.verify st then []
    else
      match Gate.runner_diverging (Store.db st) (Store.views st) with
      | [] -> [ ("grp_totals", "Store.verify failed after reopen") ]
      | bad -> bad
  in
  (st, dt, bad)

(* Close-and-reopen cycles of one directory. *)
let reopen_cycles ~dir ~n =
  List.init n (fun _ ->
      let st, dt, bad = reopen ~dir in
      let replayed = (Store.last_recovery st).Store.replayed in
      Store.close st;
      (dt, bad, replayed))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else begin
    let ic = open_in_bin src in
    let data =
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          really_input_string ic (in_channel_length ic))
    in
    let oc = open_out_bin dst in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)
  end

let rec dir_bytes path =
  if Sys.is_directory path then
    Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

(* Commits in each timed stream: fixed by [seconds], not by how fast the
   store runs, so a faster store ends with the same table and heap. *)
let stream_commits (p : params) ~seconds =
  int_of_float (Float.round (seconds *. float_of_int p.stream_per_s))

(* Commits in the recovered directory every round starts from. *)
let base_commits (p : params) = (2 * p.checkpoint_every) + p.tail_commits

type round = {
  recover_s : float;  (** [Store.open_] of the round's copy *)
  stream : stream;
  bad : (string * string) list;
}

type result = {
  setup_s : float list;
  rounds : round list;
  rss_mb : float;
  correct : bool;
}

(* The base directory: a fresh set-up, a fixed prefix of the stream (two
   checkpoint segments), a checkpoint, then a fixed WAL tail with no
   checkpoint. Each of [p.rounds] rounds copies it, recovers the copy
   (checkpoint load plus tail replay, timed for [recover_s]), verifies
   it, continues the same seeded stream for a fixed number of commits
   and ends in the Runner gate. Every round does the same work from the
   same state, on the next CPU, so the rounds are repeated samples of one
   measurement taken at different moments of a host whose speed moves by
   up to 1.5x from one stretch to the next. *)
let run ~dir ~seed ~seconds ~small =
  let p = params ~small Durable_ingest in
  let base = Filename.concat dir "base" in
  let inputs = durable_inputs ~seed ~small in
  let st, dt = setup ~dir:base inputs in
  ignore (run_stream st ~next:inputs.next ~max_dml:(2 * p.checkpoint_every));
  ignore (Store.checkpoint st);
  ignore (run_stream ~checkpoints:false st ~next:inputs.next ~max_dml:p.tail_commits);
  Store.close st;
  (* [setup_s] times three fresh set-ups: the base directory's, one
     halfway through the rounds and one after them *)
  let setup_s = ref [ dt ] in
  let fresh_setup () =
    let d = Filename.concat dir "setup" in
    let st, dt = setup ~dir:d (durable_inputs ~seed ~small) in
    Store.close st;
    rm_rf d;
    setup_s := dt :: !setup_s
  in
  (* the operations of one round, generated once: the seeded stream from
     the commit after the base directory's last *)
  let n = stream_commits p ~seconds in
  let round_ops =
    let inputs = durable_inputs ~seed ~small in
    inputs.skip (base_commits p);
    let rec go acc dml =
      if dml = n then Array.of_list (List.rev acc)
      else
        let op = inputs.next () in
        go (op :: acc) (match op with Dml _ -> dml + 1 | _ -> dml)
    in
    go [] 0
  in
  let round k =
    Cpus.rotate k;
    let d = Filename.concat dir (Printf.sprintf "round%d" k) in
    copy_tree base d;
    let st, recover_s, bad_open = reopen ~dir:d in
    let i = ref (-1) in
    let next () = incr i; round_ops.(!i) in
    let s = run_stream st ~next ~max_dml:n in
    let gate = Gate.runner_diverging (Store.db st) (Store.views st) in
    Store.close st;
    rm_rf d;
    Printf.printf
      "# round %2d: recover %.3f s, %d commits in %.3f s (%.0f/s), p10 commit %.4f read %.4f ms\n%!"
      k recover_s s.dml s.wall (float_of_int s.dml /. s.wall)
      (Stats.percentile s.commit_ms 0.1) (Stats.percentile s.read_ms 0.1);
    if 2 * k = p.rounds || k = p.rounds then fresh_setup ();
    { recover_s; stream = s; bad = bad_open @ gate }
  in
  let rounds = List.init p.rounds (fun k -> round (k + 1)) in
  let rss_mb = Serve_run.vm_hwm_mb "self" in
  { setup_s = !setup_s; rounds; rss_mb;
    correct = Gate.report (List.concat_map (fun r -> r.bad) rounds) }

(* The traced run: the same stream prefix twice from fresh set-ups,
   untraced (overhead baseline, GC counts) then traced, then the tail
   and traced reopen cycles. *)
let traced ~dir ~seed ~small =
  let p = params ~small Durable_ingest in
  let n_dml = 2 * p.checkpoint_every in
  let inputs = durable_inputs ~seed ~small in
  let st, _ = setup ~dir:(Filename.concat dir "plain") inputs in
  let a0 = Gc.allocated_bytes () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let plain = run_stream st ~next:inputs.next ~max_dml:n_dml in
  let alloc = Gc.allocated_bytes () -. a0
  and major = (Gc.quick_stat ()).Gc.major_collections - m0 in
  Store.close st;
  Gc.compact ();
  let d = Filename.concat dir "traced" in
  let inputs = durable_inputs ~seed ~small in
  let st, _ = setup ~dir:d inputs in
  Metrics.reset_values ();
  Span.reset ();
  Span.set_enabled true;
  let traced = run_stream ~keep:true st ~next:inputs.next ~max_dml:n_dml in
  Traced.write_trace (Printf.sprintf "durable_ingest-seed%d.jsonl" seed);
  let tr = Traced.collect () in
  let wal_records = Traced.counter "openivm_wal_records_total"
  and wal_bytes = Traced.counter "openivm_wal_bytes_total" in
  let refresh =
    Traced.refresh_metrics tr ~units:traced.dml
      ~plan_ms_per_refresh:(Traced.plan_ms_per_refresh tr (Store.db st) (Store.views st))
  in
  Traced.print_breakdown tr ~title:"commits (traced stream)" ~kind:"write"
    ~unit_root:"store.exec" ~extra:[];
  Traced.print_breakdown tr ~title:"point reads (traced stream)" ~kind:"read"
    ~unit_root:"store.exec" ~extra:[];
  ignore (Store.checkpoint st);
  let tail =
    run_stream ~checkpoints:false st ~next:inputs.next ~max_dml:p.tail_commits
  in
  let gate = Gate.runner_diverging (Store.db st) (Store.views st) in
  Store.close st;
  Span.reset ();
  let cycles = reopen_cycles ~dir:d ~n:p.reopens in
  Traced.write_trace (Printf.sprintf "durable_ingest-seed%d-recovery.jsonl" seed);
  let rtr = Traced.collect () in
  Span.set_enabled false;
  let bad = gate @ List.concat_map (fun (_, b, _) -> b) cycles in
  let values =
    [ ("parser.parse_us", Traced.parse_us traced.statements);
      ("engine.rows_written_per_unit",
       Stats.ratio (float_of_int traced.affected) (float_of_int traced.dml));
      ("wal.records", float_of_int wal_records);
      ("wal.bytes_per_stmt", Stats.ratio (float_of_int wal_bytes) (float_of_int traced.dml));
      ("store.checkpoint_s", Stats.median traced.checkpoint_s);
      ("store.checkpoint_bytes", float_of_int (dir_bytes traced.checkpoint_dir));
      ("recovery.checkpoint_load_s", Stats.median (Traced.durations rtr "recovery.checkpoint"));
      ("recovery.replay_s", Stats.median (Traced.durations rtr "recovery.replay"));
      ("recovery.replayed",
       float_of_int (List.fold_left (fun _ (_, _, r) -> r) 0 cycles));
      ("gc.alloc_mb_per_op", alloc /. 1e6 /. float_of_int (max 1 plain.attempted));
      ("gc.major_collections", float_of_int major);
      ("trace.unattributed_ms",
       ms traced.loop_s -. Traced.roots_ms tr [ "store.exec"; "store.checkpoint" ]);
      ("trace.overhead_ratio", Stats.ratio (traced.loop_s -. plain.loop_s) plain.loop_s) ]
    @ refresh
  in
  (values, Gate.report bad, plain.attempted + traced.attempted + tail.attempted,
   plain.failed + traced.failed + tail.failed)
