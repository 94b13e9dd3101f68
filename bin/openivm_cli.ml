(** The standalone SQL-to-SQL compiler ("the OpenIVM SQL-to-SQL compiler
    can be used as a standalone command-line tool", paper §2).

    Reads a schema (CREATE TABLE statements) and a CREATE MATERIALIZED VIEW
    definition — from files or inline — and prints every compiled artifact:
    DDL, initial load, four-step propagation script, capture-trigger DDL.

      openivm compile --schema schema.sql --view view.sql \
        --dialect postgres --strategy rederive_affected *)

open Cmdliner
open Openivm_engine

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_input ~inline ~file ~what =
  match inline, file with
  | Some sql, None -> Ok sql
  | None, Some path ->
    (try Ok (read_file path)
     with Sys_error msg -> Error (Printf.sprintf "cannot read %s: %s" what msg))
  | Some _, Some _ -> Error (Printf.sprintf "give %s inline or as a file, not both" what)
  | None, None -> Error (Printf.sprintf "missing %s (use --%s or --%s-file)" what what what)

let strategy_of_string s =
  match Openivm.Flags.strategy_of_string s with
  | Some st -> Ok st
  | None -> Error (Printf.sprintf "unknown strategy %S" s)

let dialect_of_string s =
  match Openivm_sql.Dialect.of_string s with
  | Some d -> Ok d
  | None -> Error (Printf.sprintf "unknown dialect %S" s)

(** Run [f], rendering an engine, lexer or parser error as "[what]: ...". *)
let protect what f =
  Result.map_error (fun msg -> what ^ ": " ^ msg) (Error.protect f)

(* --- observability: the shared --trace flag --- *)

module Obs = Openivm_obs

let trace_format = function
  | None -> Ok None
  | Some "text" -> Ok (Some `Text)
  | Some "json" -> Ok (Some `Json)
  | Some ("prom" | "prometheus") -> Ok (Some `Prometheus)
  | Some f ->
    Error
      (Printf.sprintf "unknown trace format %S (use text, json or prometheus)"
         f)

(** Run [f] with span collection on and dump the report to stderr when it
    returns — even on failure, so a crashing refresh still shows where the
    time went. *)
let with_trace trace f =
  match trace_format trace with
  | Error msg -> Error msg
  | Ok None -> f ()
  | Ok (Some fmt) ->
    Obs.Report.reset_all ();
    Obs.Span.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
          Obs.Span.set_enabled false;
          prerr_endline (Obs.Report.render fmt))
      f

let trace_arg =
  Arg.(value & opt ~vopt:(Some "text") (some string) None
       & info [ "trace" ] ~docv:"FMT"
         ~doc:"Collect tracing spans and metrics during the run and print \
               the report to stderr on exit. $(docv) is text (default), \
               json or prometheus.")

let compile_action schema schema_file view view_file dialect strategy
    paper_compat eager no_indexes advise expected_delta =
  let ( let* ) = Result.bind in
  let* schema_sql = load_input ~inline:schema ~file:schema_file ~what:"schema" in
  let* view_sql = load_input ~inline:view ~file:view_file ~what:"view" in
  let* dialect = dialect_of_string dialect in
  let* strategy = strategy_of_string strategy in
  let flags =
    { (if paper_compat then Openivm.Flags.paper else Openivm.Flags.default) with
      dialect; strategy;
      refresh = (if eager then Openivm.Flags.Eager else Openivm.Flags.Lazy);
      create_indexes = not no_indexes }
  in
  let db = Database.create () in
  let* _ = protect "schema" (fun () -> Database.exec_script db schema_sql) in
  let* compiled =
    match
      protect "view" (fun () ->
          if advise then begin
            let compiled, advice =
              Openivm.Advisor.compile_advised ~flags (Database.catalog db)
                ~expected_delta view_sql
            in
            Printf.eprintf
              "-- advisor: %s (base=%d rows, ~%.0f of %d groups touched per \
               refresh)\n"
              (Openivm.Flags.strategy_to_string
                 advice.Openivm.Advisor.recommended)
              advice.Openivm.Advisor.base_rows
              advice.Openivm.Advisor.touched_groups
              advice.Openivm.Advisor.live_groups;
            compiled
          end
          else Openivm.Compiler.compile ~flags (Database.catalog db) view_sql)
    with
    | r -> r
    | exception Openivm.Compiler.Unsupported_view reason ->
      Error ("unsupported view: " ^ reason)
  in
  print_endline (Openivm.Compiler.full_sql compiled);
  Ok ()

let to_exit = function
  | Ok () -> 0
  | Error msg ->
    prerr_endline ("openivm: " ^ msg);
    1

let schema_arg =
  Arg.(value & opt (some string) None & info [ "schema" ] ~docv:"SQL"
         ~doc:"Schema as inline SQL (CREATE TABLE statements).")

let schema_file_arg =
  Arg.(value & opt (some file) None & info [ "schema-file" ] ~docv:"FILE"
         ~doc:"File containing the schema.")

let view_arg =
  Arg.(value & opt (some string) None & info [ "view" ] ~docv:"SQL"
         ~doc:"CREATE MATERIALIZED VIEW statement, inline.")

let view_file_arg =
  Arg.(value & opt (some file) None & info [ "view-file" ] ~docv:"FILE"
         ~doc:"File containing the view definition.")

let dialect_arg =
  Arg.(value & opt string "duckdb" & info [ "dialect" ] ~docv:"NAME"
         ~doc:"Target SQL dialect: duckdb, postgres or minidb.")

let strategy_arg =
  Arg.(value & opt string "upsert_linear" & info [ "strategy" ] ~docv:"NAME"
         ~doc:"Combine strategy: upsert_linear, union_regroup, \
               outer_join_merge, rederive_affected or full_recompute.")

let paper_arg =
  Arg.(value & flag & info [ "paper-compat" ]
         ~doc:"Emit the exact SIGMOD'24 Listing-2 shape (DuckDB multiplicity \
               column name, no hidden bookkeeping columns).")

let eager_arg =
  Arg.(value & flag & info [ "eager" ]
         ~doc:"Record the eager refresh mode in the metadata (propagation \
               per change instead of per read).")

let no_indexes_arg =
  Arg.(value & flag & info [ "no-indexes" ]
         ~doc:"Do not emit CREATE INDEX statements.")

let advise_arg =
  Arg.(value & flag & info [ "advise" ]
         ~doc:"Let the cost model pick the combine strategy (see \
               --expected-delta).")

let expected_delta_arg =
  Arg.(value & opt int 1000 & info [ "expected-delta" ] ~docv:"ROWS"
         ~doc:"Expected delta rows per refresh, for --advise.")

(* --- the check subcommand: semantic analysis without compilation --- *)

(** Exit codes: 0 clean (warnings allowed), 1 diagnostics with severity
    error, 2 usage / IO problems. *)
let check_action file format schema schema_file : (int, string) result =
  let ( let* ) = Result.bind in
  let* format =
    match format with
    | "text" -> Ok `Text
    | "json" -> Ok `Json
    | f -> Error (Printf.sprintf "unknown format %S (use text or json)" f)
  in
  let* src =
    try Ok (read_file file)
    with Sys_error msg -> Error (Printf.sprintf "cannot read %s: %s" file msg)
  in
  let db = Database.create () in
  let* () =
    match schema, schema_file with
    | None, None -> Ok ()
    | _ ->
      let* sql = load_input ~inline:schema ~file:schema_file ~what:"schema" in
      Result.map ignore
        (protect "schema" (fun () -> Database.exec_script db sql))
  in
  let diags = Openivm.Sema.check_script db src in
  let module D = Openivm_sql.Diagnostic in
  (match format with
   | `Text ->
     if diags = [] then Printf.printf "%s: no problems found\n" file
     else begin
       print_endline (D.render_all ~file ~src diags);
       Printf.printf "%d error(s), %d warning(s), %d hint(s)\n"
         (D.count D.Error diags) (D.count D.Warning diags)
         (D.count D.Hint diags)
     end
   | `Json -> print_endline (D.list_to_json ~file ~src diags));
  Ok (if D.has_errors diags then 1 else 0)

let check_exit = function
  | Ok code -> code
  | Error msg ->
    prerr_endline ("openivm: " ^ msg);
    2

let check_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"SQL script to check (CREATE TABLEs, views, queries).")

let format_arg =
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT"
         ~doc:"Output format: text (caret diagnostics) or json.")

let check_cmd =
  let doc = "semantically check a SQL script and report all diagnostics" in
  let man =
    [ `S Manpage.s_description;
      `P "Parses and binds every statement in $(i,FILE), accumulating all \
          problems in one run instead of stopping at the first: unknown \
          tables/columns/functions, type errors, and — for CREATE \
          MATERIALIZED VIEW definitions — the IVM incrementalizability \
          rules (stable IVM0xx/IVM1xx codes).";
      `P "Exits 0 when no errors were found (warnings and hints are \
          allowed), 1 when at least one error was reported, 2 on usage or \
          IO problems." ]
  in
  Cmd.v
    (Cmd.info "check" ~doc ~man)
    Term.(
      const (fun a b c d tr ->
          check_exit (with_trace tr (fun () -> check_action a b c d)))
      $ check_file_arg $ format_arg $ schema_arg $ schema_file_arg $ trace_arg)

(* --- the htap subcommand: cross-system pipeline under (optional) chaos --- *)

let htap_action transactions seed chaos drop dup reorder corrupt crash
    fault_seed sync_every strict_replica =
  let open Openivm_htap in
  let knob cli_value chaos_default =
    match cli_value with
    | Some p when p < 0.0 || p > 1.0 ->
      Error.fail "fault probabilities must be in [0, 1], got %g" p
    | Some p -> p
    | None -> if chaos then chaos_default else 0.0
  in
  try
    let base = Fault.chaos () in
    let spec =
      { Fault.none with
        Fault.drop = knob drop base.Fault.drop;
        duplicate = knob dup base.Fault.duplicate;
        reorder = knob reorder base.Fault.reorder;
        corrupt = knob corrupt base.Fault.corrupt;
        crash = knob crash base.Fault.crash }
    in
    let faults = Fault.create ~seed:fault_seed spec in
    let bridge = Bridge.create ~faults () in
    let p =
      Pipeline.create ~oltp_latency:0.0 ~bridge ~strict_replica
        ~schema_sql:
          "CREATE TABLE groups(group_index VARCHAR, group_value INTEGER);"
        ~view_sql:
          "CREATE MATERIALIZED VIEW query_groups AS SELECT group_index, \
           SUM(group_value) AS total_value, COUNT(*) AS n FROM groups \
           GROUP BY group_index"
        ()
    in
    let tx = Txgen.create ~seed ~group_domain:16 () in
    List.iter
      (fun sql -> ignore (Pipeline.exec_oltp p sql))
      (Txgen.seed_rows tx (max 50 (transactions / 5)));
    Printf.printf "faults: %s\n%!"
      (match Fault.to_string faults with "" -> "none" | s -> s);
    Printf.printf "running %d OLTP transactions (sync every %d)...\n%!"
      transactions sync_every;
    let mid_run_recoveries = ref 0 in
    List.iteri
      (fun i sql ->
         ignore (Pipeline.exec_oltp p sql);
         if (i + 1) mod sync_every = 0 then begin
           ignore (Pipeline.sync p);
           (* play supervisor: restart a crashed OLAP side and replay *)
           if Pipeline.crashed p then begin
             incr mid_run_recoveries;
             ignore (Pipeline.recover p)
           end
         end)
      (Txgen.batch tx transactions);
    if !mid_run_recoveries > 0 then
      Printf.printf "restarted the OLAP side %d time(s) mid-run\n"
        !mid_run_recoveries;
    let r = Pipeline.recover p in
    let s = Pipeline.stats p in
    let batches, rows, bytes = Bridge.stats bridge in
    Printf.printf
      "bridge wire traffic:   %d batches, %d rows, %d bytes (retries \
       included)\n"
      batches rows bytes;
    Printf.printf
      "faults injected:       %s\n"
      (String.concat ", "
         (List.map
            (fun k ->
               Printf.sprintf "%s=%d" (Fault.kind_to_string k)
                 (Fault.injected faults k))
            Fault.all_kinds));
    Printf.printf
      "delivery:              %d batches / %d rows applied, %d retries, %d \
       deduplicated, %d checksum rejects, %d gaps\n"
      s.Pipeline.batches_applied s.Pipeline.rows_applied s.Pipeline.retries
      s.Pipeline.deduped s.Pipeline.checksum_failures s.Pipeline.gaps;
    Printf.printf
      "recovery:              %d crashes rolled back, %d recoveries, %d \
       full resyncs, %d replica misses\n"
      s.Pipeline.crashes s.Pipeline.recoveries s.Pipeline.resyncs
      s.Pipeline.replica_misses;
    Printf.printf "recover: replayed %d batch(es)%s\n" r.Pipeline.replayed
      (if r.Pipeline.resynced then ", then full resync" else "");
    List.iter print_endline (Pipeline.pp_phases r);
    if r.Pipeline.converged then begin
      print_endline
        "converged: view = replica fold = full recompute over OLTP state";
      Ok ()
    end
    else Error "view did NOT converge after recovery"
  with Error.Sql_error msg -> Error msg

let transactions_arg =
  Arg.(value & opt int 500 & info [ "transactions"; "n" ] ~docv:"N"
         ~doc:"OLTP transactions to run.")

let tx_seed_arg =
  Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Workload RNG seed.")

let chaos_arg =
  Arg.(value & flag & info [ "chaos" ]
         ~doc:"Enable fault injection on the bridge: batch drop, \
               duplication, reordering, wire corruption and mid-apply OLAP \
               crashes, each at 10% unless overridden by the per-fault \
               probability options.")

let fault_prob name doc =
  Arg.(value & opt (some float) None & info [ name ] ~docv:"PROB" ~doc)

let drop_arg = fault_prob "drop" "Probability a batch is dropped in transit."
let dup_arg = fault_prob "dup" "Probability a batch is delivered twice."
let reorder_arg =
  fault_prob "reorder"
    "Probability a batch is held back and delivered after a later one."
let corrupt_arg =
  fault_prob "corrupt"
    "Probability a wire byte is flipped (caught by the batch checksum)."
let crash_arg =
  fault_prob "crash"
    "Probability the OLAP side crashes mid-batch during apply (rolled \
     back, recovered by replay or full resync)."

let fault_seed_arg =
  Arg.(value & opt int 0xC4A05 & info [ "fault-seed" ] ~docv:"SEED"
         ~doc:"Fault-injection RNG seed (failures replay deterministically).")

let sync_every_arg =
  Arg.(value & opt int 20 & info [ "sync-every" ] ~docv:"K"
         ~doc:"Ship pending deltas every K transactions.")

let strict_replica_arg =
  Arg.(value & flag & info [ "strict-replica" ]
         ~doc:"Treat a replica deletion that finds no matching row as an \
               error instead of a counted miss.")

let htap_cmd =
  let doc =
    "run the cross-system HTAP pipeline, optionally under fault injection"
  in
  Cmd.v
    (Cmd.info "htap" ~doc)
    Term.(
      const (fun a b c d e f g h i j k tr ->
          to_exit
            (with_trace tr (fun () -> htap_action a b c d e f g h i j k)))
      $ transactions_arg $ tx_seed_arg $ chaos_arg $ drop_arg $ dup_arg
      $ reorder_arg $ corrupt_arg $ crash_arg $ fault_seed_arg
      $ sync_every_arg $ strict_replica_arg $ trace_arg)

(* --- the fuzz subcommand: differential fuzzing of the whole pipeline --- *)

let fuzz_action seed cases max_steps strategy dialect corpus replay
    no_shrink crash_seed =
  let ( let* ) = Result.bind in
  let module F = Openivm_fuzz in
  let* strategies =
    match strategy with
    | None -> Ok []
    | Some s -> Result.map (fun st -> [ st ]) (strategy_of_string s)
  in
  let* dialects =
    match dialect with
    | None -> Ok []
    | Some d -> Result.map (fun d -> [ d ]) (dialect_of_string d)
  in
  match replay with
  | Some path when Sys.file_exists path && Sys.is_directory path ->
    let results = F.Corpus.replay ~log:print_endline ~dir:path () in
    let failed = List.filter (fun r -> r.F.Corpus.error <> None) results in
    Printf.printf "fuzz: replayed %d corpus case(s), %d failure(s)\n"
      (List.length results) (List.length failed);
    List.iter
      (fun (r : F.Corpus.replay_result) ->
         match r.error with
         | Some msg -> Printf.printf "FAIL %s\n%s\n" r.file msg
         | None -> ())
      failed;
    if failed = [] then Ok () else Error "corpus replay failed"
  | Some path ->
    let* case = F.Corpus.load_file path in
    let case =
      { case with
        F.Case.strategies =
          (if strategies = [] then case.F.Case.strategies else strategies);
        dialects = (if dialects = [] then case.F.Case.dialects else dialects) }
    in
    (match F.Oracle.first_failure case with
     | None -> (
         match crash_seed with
         | None ->
           Printf.printf "fuzz: %s replayed clean\n" path;
           Ok ()
         | Some cs -> (
             match F.Durable.check ~crash_seed:cs case with
             | _, None ->
               Printf.printf "fuzz: %s replayed clean (incl. crash axis)\n"
                 path;
               Ok ()
             | _, Some f ->
               Printf.printf "FAIL %s\n%s\n" path f.F.Oracle.message;
               Error "replay failed"))
     | Some msg ->
       Printf.printf "FAIL %s\n%s\n" path msg;
       Error "replay failed")
  | None ->
    let config =
      { F.Campaign.default with
        base_seed = seed; cases; max_steps; strategies; dialects;
        corpus_dir = corpus; shrink = not no_shrink; crash_seed;
        log = print_endline }
    in
    let report = F.Campaign.run config in
    print_endline (F.Campaign.summary report);
    if report.F.Campaign.failures = [] then Ok ()
    else Error "differential fuzzing found failures"

let fuzz_seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
         ~doc:"Base generator seed; case $(i,i) of the run uses seed N+i, \
               so any failure replays with --seed N+i --cases 1.")

let fuzz_cases_arg =
  Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N"
         ~doc:"Number of generated cases to check.")

let fuzz_max_steps_arg =
  Arg.(value & opt int 30 & info [ "max-steps" ] ~docv:"N"
         ~doc:"Workload statements per case (refresh + consistency check \
               after each).")

let fuzz_strategy_arg =
  Arg.(value & opt (some string) None & info [ "strategy" ] ~docv:"NAME"
         ~doc:"Restrict the oracle to one combine strategy (default: all \
               five).")

let fuzz_dialect_arg =
  Arg.(value & opt (some string) None & info [ "dialect" ] ~docv:"NAME"
         ~doc:"Restrict the oracle to one dialect (default: duckdb and \
               postgres).")

let fuzz_corpus_arg =
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR"
         ~doc:"Save a shrunk reproducer file under DIR for every failure.")

let fuzz_replay_arg =
  Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"PATH"
         ~doc:"Replay a reproducer file — or every *.sql file in a \
               directory — instead of generating new cases.")

let fuzz_no_shrink_arg =
  Arg.(value & flag & info [ "no-shrink" ]
         ~doc:"Report the original failing case without minimizing it.")

let fuzz_crash_seed_arg =
  Arg.(value & opt (some int) None & info [ "crash-seed" ] ~docv:"N"
         ~doc:"Arm the crash-replay axis: cases that pass the differential \
               oracle are re-run through the durable store with storage \
               faults seeded from N + the case seed, killed and reopened \
               at every injected crash, and must converge to the no-crash \
               run.")

let fuzz_cmd =
  let doc = "differentially fuzz the compiler against full recomputation" in
  let man =
    [ `S Manpage.s_description;
      `P "Generates random (schema, view, DML workload) cases, installs \
          each view under every combine strategy and dialect, and asserts \
          after every refresh that the maintained view equals a full \
          recompute of its defining query. Generated SELECTs are also run \
          with the optimizer on and off, and round-tripped through the \
          pretty-printer.";
      `P "On failure the case is shrunk to a minimal reproducer (printed, \
          and saved under --corpus DIR if given); every failure message \
          embeds the exact command that replays it. Exits 0 when all cases \
          pass, 1 otherwise." ]
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~man)
    Term.(
      const (fun a b c d e f g h cs tr ->
          to_exit (with_trace tr (fun () -> fuzz_action a b c d e f g h cs)))
      $ fuzz_seed_arg $ fuzz_cases_arg $ fuzz_max_steps_arg
      $ fuzz_strategy_arg $ fuzz_dialect_arg
      $ fuzz_corpus_arg $ fuzz_replay_arg $ fuzz_no_shrink_arg
      $ fuzz_crash_seed_arg $ trace_arg)

(* --- the stats subcommand: profiled refresh, "EXPLAIN ANALYZE for IVM" --- *)

let stats_action script_file format strategy rows deltas batches =
  let ( let* ) = Result.bind in
  let* fmt =
    match trace_format (Some format) with
    | Ok (Some f) -> Ok f
    | Ok None | Error _ ->
      Error
        (Printf.sprintf
           "unknown format %S (use text, json or prometheus)" format)
  in
  let* strategy = strategy_of_string strategy in
  let flags = { Openivm.Flags.default with strategy } in
  Obs.Report.reset_all ();
  Obs.Span.set_enabled true;
  let db = Database.create () in
  let* () =
    Fun.protect
      ~finally:(fun () -> Obs.Span.set_enabled false)
      (fun () ->
         match
           Error.protect @@ fun () ->
           (match script_file with
            | Some path ->
              let src = read_file path in
              let stmts = Openivm_sql.Parser.parse_script src in
              let ext = Openivm.Runner.load ~flags db in
              List.iter
                (fun stmt -> ignore (Openivm.Runner.exec_ext ext stmt))
                stmts;
              List.iter Openivm.Runner.force_refresh
                ext.Openivm.Runner.ext_views
            | None ->
              (* built-in demo: the paper's groups view, N delta batches *)
              let module W = Openivm_workload.Datagen in
              ignore (Database.exec db W.groups_ddl);
              let gen = W.create ~seed:7 () in
              W.populate_groups db gen ~rows;
              let v =
                Openivm.Runner.install ~flags db
                  "CREATE MATERIALIZED VIEW group_totals AS SELECT \
                   group_index, SUM(group_value) AS total_value, COUNT(*) AS \
                   n FROM groups GROUP BY group_index"
              in
              for _ = 1 to batches do
                W.apply_groups_delta db (W.groups_delta_rows gen ~rows:deltas);
                Openivm.Runner.force_refresh v
              done)
         with
         | r -> r
         | exception Openivm.Compiler.Unsupported_view reason ->
           Error ("unsupported view: " ^ reason))
  in
  print_endline (Obs.Report.render fmt);
  Ok ()

let stats_script_arg =
  Arg.(value & opt (some file) None & info [ "script" ] ~docv:"FILE"
         ~doc:"SQL script to profile instead of the built-in demo. \
               Statements run through the IVM extension: CREATE MATERIALIZED \
               VIEW installs a maintained view, SELECTs over it refresh it \
               lazily, and every installed view is force-refreshed at the \
               end.")

let stats_format_arg =
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT"
         ~doc:"Report format: text (span tree + metrics table), json (JSON \
               lines) or prometheus.")

let stats_rows_arg =
  Arg.(value & opt int 2000 & info [ "rows" ] ~docv:"N"
         ~doc:"Initial rows in the demo's groups table.")

let stats_deltas_arg =
  Arg.(value & opt int 200 & info [ "deltas" ] ~docv:"N"
         ~doc:"Delta rows per refresh batch in the demo.")

let stats_batches_arg =
  Arg.(value & opt int 3 & info [ "batches" ] ~docv:"N"
         ~doc:"Delta/refresh rounds in the demo.")

let stats_cmd =
  let doc = "profile an IVM refresh: span tree and metrics" in
  let man =
    [ `S Manpage.s_description;
      `P "Runs a workload with tracing enabled and prints the observability \
          report: a span tree showing where refresh time went (per \
          propagation step, with statement counts and rows read/written) \
          and the metrics registry (operator row counts, deltas folded, \
          per-strategy refresh latency histograms).";
      `P "With $(b,--script) $(i,FILE) the script's statements run through \
          the IVM extension; otherwise a built-in demo populates the \
          paper's groups table with $(b,--rows) rows and folds \
          $(b,--batches) rounds of $(b,--deltas) changes each under the \
          chosen $(b,--strategy)." ]
  in
  Cmd.v
    (Cmd.info "stats" ~doc ~man)
    Term.(
      const (fun a b c d e f -> to_exit (stats_action a b c d e f))
      $ stats_script_arg $ stats_format_arg $ strategy_arg $ stats_rows_arg
      $ stats_deltas_arg $ stats_batches_arg)

let compile_cmd =
  let doc = "compile a materialized view definition into IVM SQL" in
  Cmd.v
    (Cmd.info "compile" ~doc)
    Term.(
      const (fun a b c d e f g h i j k tr ->
          to_exit
            (with_trace tr (fun () -> compile_action a b c d e f g h i j k)))
      $ schema_arg $ schema_file_arg $ view_arg $ view_file_arg $ dialect_arg
      $ strategy_arg $ paper_arg $ eager_arg $ no_indexes_arg $ advise_arg
      $ expected_delta_arg $ trace_arg)

(* --- the recover subcommand: open a durable data directory --- *)

let recover_action data_dir verify checkpoint =
  let module Store = Openivm_store.Store in
  match Store.open_ ~dir:data_dir () with
  | exception Error.Sql_error msg -> Error ("recover: " ^ msg)
  | store ->
    Fun.protect ~finally:(fun () -> Store.close store)
      (fun () ->
         let r = Store.last_recovery store in
         Printf.printf "recovered %s\n" data_dir;
         Printf.printf "  checkpoint seq    %d%s\n" r.Store.checkpoint_seq
           (if r.Store.checkpoint_seq = 0 then " (fresh database)" else "");
         Printf.printf "  wal tail replayed %d record(s)%s\n" r.Store.replayed
           (if r.Store.torn_tail then ", torn tail discarded" else "");
         Printf.printf "  views reattached  %d\n" r.Store.views_reattached;
         List.iter
           (fun (view, chunk) ->
              Printf.printf "  backfill resumed  %s at chunk %d\n" view chunk)
           r.Store.backfills_resumed;
         Printf.printf "  committed seq     %d\n" (Store.committed_seq store);
         List.iter
           (fun v ->
              Printf.printf "  view %-18s %d row(s)\n"
                (Openivm.Runner.view_name v)
                (List.length (Openivm.Runner.visible_rows v)))
           (Store.views store);
         let verified =
           if not verify then Ok ()
           else if Store.verify store then begin
             print_endline "verify: every view matches a full recompute";
             Ok ()
           end
           else Error "verify: a view diverges from its defining query"
         in
         match verified with
         | Error _ as e -> e
         | Ok () ->
           if checkpoint then
             Printf.printf "checkpoint written to %s\n" (Store.checkpoint store);
           Ok ())

let data_dir_arg =
  Arg.(required & opt (some string) None & info [ "data-dir" ] ~docv:"DIR"
         ~doc:"The durable data directory (WAL + checkpoints). Created \
               empty if missing.")

let recover_verify_arg =
  Arg.(value & flag & info [ "verify" ]
         ~doc:"After recovery, check every maintained view against a full \
               recompute of its defining query; exit non-zero on \
               divergence.")

let recover_checkpoint_arg =
  Arg.(value & flag & info [ "checkpoint" ]
         ~doc:"After recovery (and --verify, if given), fold the WAL into \
               a fresh checkpoint and truncate it.")

let recover_cmd =
  let doc = "recover a durable data directory and report what it took" in
  let man =
    [ `S Manpage.s_description;
      `P "Opens $(b,--data-dir) and runs the recovery ladder: load the \
          newest valid checkpoint, reattach its materialized views, replay \
          the WAL tail (discarding a torn tail), fast-forward the HTAP \
          bridge watermarks, and resume any backfill that was killed \
          mid-install from its last completed chunk. Prints one line per \
          recovery step, then the recovered views and their row counts." ]
  in
  Cmd.v
    (Cmd.info "recover" ~doc ~man)
    Term.(
      const (fun a b c tr ->
          to_exit (with_trace tr (fun () -> recover_action a b c)))
      $ data_dir_arg $ recover_verify_arg $ recover_checkpoint_arg
      $ trace_arg)

(* --- the serve subcommand: the concurrent session front-end --- *)

let serve_action port socket host schema_file init_file strategy eager
    tick_interval batch_cap max_queue max_inflight =
  let ( let* ) = Result.bind in
  let module Srv = Openivm_server in
  let* strategy = strategy_of_string strategy in
  let flags =
    { Openivm.Flags.default with
      strategy;
      refresh = (if eager then Openivm.Flags.Eager else Openivm.Flags.Lazy) }
  in
  let db = Database.create () in
  let ext = Openivm.Runner.load ~flags db in
  let* () =
    match schema_file with
    | None -> Ok ()
    | Some path -> (
        try
          Result.map ignore
            (protect "schema" (fun () ->
                 Database.exec_script db (read_file path)))
        with Sys_error msg -> Error msg)
  in
  let quota =
    { Srv.Quota.max_queue_depth = max_queue;
      max_inflight_per_tenant = max_inflight;
      max_batch_per_tick = batch_cap;
      tick_interval }
  in
  let listen =
    match socket with
    | Some path -> `Unix path
    | None -> `Tcp (host, port)
  in
  let* srv =
    try Ok (Srv.Server.start ~quota ~listen ext)
    with Error.Sql_error msg -> Error msg
  in
  let* () =
    (* the init script runs through a bootstrap session so CREATE
       MATERIALIZED VIEW goes through the scheduler's install path *)
    match init_file with
    | None -> Ok ()
    | Some path -> (
        let parsed =
          try
            protect "init script" (fun () ->
                Openivm_sql.Parser.parse_script (read_file path))
          with Sys_error msg -> Error msg
        in
        match parsed with
        | Error _ as e ->
          Srv.Server.stop srv;
          e
        | Ok stmts ->
          let s = Srv.Session.create (Srv.Server.scheduler srv) ~tenant:"init" in
          Fun.protect ~finally:(fun () -> Srv.Session.close s)
            (fun () ->
               List.fold_left
                 (fun acc stmt ->
                    let* () = acc in
                    match Srv.Session.exec_stmt s stmt with
                    | Srv.Session.Failed { code; message } ->
                      Error (Printf.sprintf "init script: [%s] %s" code message)
                    | Srv.Session.Overloaded reason ->
                      Error ("init script overloaded: " ^ reason)
                    | _ -> Ok ())
                 (Ok ()) stmts))
  in
  Printf.printf "openivm: serving on %s (strategy %s, tick every %gs)\n%!"
    (Srv.Server.addr_text srv)
    (Openivm.Flags.strategy_to_string strategy)
    tick_interval;
  (match socket with
   | None ->
     Printf.printf "openivm: scrape http://%s/metrics for live counters\n%!"
       (Srv.Server.addr_text srv)
   | Some _ -> ());
  (* Poll a flag instead of blocking in Server.wait: a main thread
     parked in a condition wait may never get to run the OCaml signal
     handler, while Thread.delay returns to OCaml code regularly. *)
  let stop_requested = ref false in
  let request_stop _ = stop_requested := true in
  (try
     Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
     Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
   with Invalid_argument _ -> ());
  while not !stop_requested do
    Thread.delay 0.1
  done;
  Srv.Server.stop srv;
  print_endline "openivm: server stopped";
  Ok ()

let serve_port_arg =
  Arg.(value & opt int 7654 & info [ "port" ] ~docv:"PORT"
         ~doc:"TCP port to listen on (0 picks an ephemeral port).")

let serve_socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Listen on a unix-domain socket instead of TCP.")

let serve_host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
         ~doc:"Address to bind the TCP listener to.")

let serve_init_arg =
  Arg.(value & opt (some file) None & info [ "init-file" ] ~docv:"FILE"
         ~doc:"SQL script executed through a bootstrap session before \
               serving — the place for CREATE MATERIALIZED VIEW statements.")

let serve_tick_arg =
  Arg.(value & opt float 0.05 & info [ "tick-interval" ] ~docv:"SECONDS"
         ~doc:"Seconds between refresh ticks (0 = tick on demand when a \
               writer waits).")

let serve_batch_arg =
  Arg.(value & opt int 256 & info [ "batch-cap" ] ~docv:"N"
         ~doc:"Max units (statements or transactions) one tick applies.")

let serve_queue_arg =
  Arg.(value & opt int 1024 & info [ "max-queue" ] ~docv:"N"
         ~doc:"Pending-unit queue depth before submissions get OVERLOADED.")

let serve_inflight_arg =
  Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N"
         ~doc:"Per-tenant in-flight statement cap.")

let serve_cmd =
  let doc = "serve concurrent sessions over the line protocol" in
  let man =
    [ `S Manpage.s_description;
      `P "Starts the in-process serving layer: a single-writer scheduler \
          admits concurrent DML into a pending queue and applies it in \
          refresh ticks, consolidating all sessions' deltas into one Z-set \
          per tick before a single propagation. Clients speak a \
          line protocol (HELLO tenant / SQL text / BEGIN / COMMIT / \
          ROLLBACK / PING / QUIT) — $(b,minidb_shell --connect HOST:PORT) \
          is a ready-made client — and an HTTP GET on the same port \
          serves /metrics in Prometheus text format.";
      `P "Transactions are all-or-nothing: a failed COMMIT reverts \
          exactly the rows the unit wrote through the undo journal, so \
          one session's rollback never disturbs another session's queued \
          deltas." ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const (fun a b c d e f g h i j k -> to_exit (serve_action a b c d e f g h i j k))
      $ serve_port_arg $ serve_socket_arg $ serve_host_arg $ schema_file_arg
      $ serve_init_arg $ strategy_arg $ eager_arg $ serve_tick_arg
      $ serve_batch_arg $ serve_queue_arg $ serve_inflight_arg)

let subcommand_names =
  [ "compile"; "check"; "stats"; "fuzz"; "htap"; "recover"; "serve" ]

let main_cmd =
  let doc = "OpenIVM: a SQL-to-SQL compiler for incremental computations" in
  Cmd.group (Cmd.info "openivm" ~version:"1.0.0" ~doc)
    [ compile_cmd; check_cmd; stats_cmd; fuzz_cmd; htap_cmd; recover_cmd;
      serve_cmd ]

(* Unknown subcommands get the same did-you-mean treatment as unknown
   columns in the semantic checker (SEM001): suggest the closest name
   within edit distance 2, then list everything. *)
let () =
  (match Array.to_list Sys.argv with
   | _ :: cmd :: _
     when (not (String.starts_with ~prefix:"-" cmd))
          && not (List.mem cmd ("help" :: subcommand_names)) ->
     let suggestion =
       match Openivm_sql.Diagnostic.suggest cmd subcommand_names with
       | Some s -> Printf.sprintf " — did you mean %S?" s
       | None -> ""
     in
     Printf.eprintf
       "openivm: unknown subcommand %S%s\nopenivm: subcommands are: %s\n" cmd
       suggestion
       (String.concat ", " subcommand_names);
     exit Cmd.Exit.cli_error
   | _ -> ());
  exit (Cmd.eval' main_cmd)
