(* The benchmark's command line:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--server PATH]
     perfbench.exe --smoke [--server PATH]

   Prints a digest of the run's operation stream, a host record, the
   traced breakdown (trace 1), and as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"} — the end-to-end
   metrics untraced, the per-layer metrics traced.

   Exit codes: 0 a valid run; 1 a view diverged from its recompute (the
   result line says "correct": false); 2 bad usage; 3 an invalid run that
   prints no numbers: the load generator ran late beyond [late_bound_ms],
   or an operation failed. *)

open Perfbench_lib
open Workload

let run_root = ".perfbench_run"

(* A run whose generator sent its p99 operation later than this measured
   the generator, not the server. The bound sits well above the wake-up
   lateness of an idle sleeper on a shared 2-vCPU VM (p99 6-25 ms with no
   load at all), so it trips on a generator that falls behind, not on
   host scheduling noise. *)
let late_bound_ms = 50.0

(* The server workloads' closed-loop phase, as a share of [--seconds]. *)
let closed_share = 0.4

let nproc () = List.length (Lazy.force Perfbench_lib.Cpus.initial)

let record ~name ~seed ~seconds ~trace ~small ~digest =
  let p = params ~small name in
  let n = Stats.json_number and s = Stats.json_string in
  let sizes =
    match name with
    | Lazy_star ->
        [ ("sales_rows", n (float_of_int p.base_rows));
          ("customers", n (float_of_int p.groups));
          ("regions", n (float_of_int p.regions));
          ("txn_insert_rows", n (float_of_int p.txn_rows));
          ("txn_deletes", n (float_of_int p.txn_churn));
          ("txn_updates", n (float_of_int p.txn_churn)) ]
    | _ ->
        [ ("events_rows", n (float_of_int p.base_rows));
          ("groups", n (float_of_int p.groups)) ]
  in
  let rates =
    match name with
    | Durable_ingest ->
        [ ("loop", s "closed");
          ("rounds", n (float_of_int p.rounds));
          ("base_commits", n (float_of_int (Durable_run.base_commits p)));
          ("stream_commits_per_round", n (float_of_int (Durable_run.stream_commits p ~seconds)));
          ("read_every_commits", n (float_of_int p.read_every));
          ("checkpoint_every_commits", n (float_of_int p.checkpoint_every));
          ("wal_tail_commits", n (float_of_int p.tail_commits));
          ("reopen_cycles", n (float_of_int (if trace then p.reopens else p.rounds))) ]
    | _ ->
        [ ("loop", s "open (seeded Poisson), then closed");
          ("writes_per_s", n p.write_rate); ("reads_per_s", n p.read_rate) ]
  in
  Stats.json_object
    [ ("workload", s (to_string name)); ("seed", n (float_of_int seed));
      ("seconds", n seconds); ("trace", s (if trace then "1" else "0"));
      ("scale", s (if small then "smoke" else "full")); ("digest", s digest);
      ("nproc", n (float_of_int (nproc ())));
      ("recommended_domains", n (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", s Sys.ocaml_version);
      ("server_flags",
       s (match name with
          | Eager_commits -> "serve --eager --tick-interval 0"
          | Lazy_star -> "serve --tick-interval 0"
          | Durable_ingest -> "embedded Store, no server"));
      ("engine", s "vector, upsert_linear, domains 1, consolidation on");
      ("wal_flush", s "flush per record, no fsync");
      ("sizes", Stats.json_object sizes); ("rates", Stats.json_object rates) ]

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        if not (Float.is_finite v) then failwith ("metric " ^ name ^ " is not finite");
        ( name,
          Stats.json_object
            [ ("value", Stats.json_number v); ("unit", Stats.json_string unit) ] ))
      metrics
  in
  print_endline
    (Stats.json_object
       [ ("correct", if correct then "true" else "false");
         ("attempted", string_of_int attempted); ("failed", string_of_int failed);
         ("metrics", Stats.json_object m) ])

let p10 xs = Stats.percentile xs 0.1
let p50 xs = Stats.median xs
let p99 xs = Stats.percentile xs 0.99

(* The sample count behind each latency family, and its spread. *)
let describe label xs =
  Printf.printf
    "# %-8s n=%-6d p10 %9.4f  p25 %9.4f  p50 %9.4f  p90 %9.4f  p99 %9.4f  mean %9.4f ms\n"
    label (List.length xs) (p10 xs) (Stats.percentile xs 0.25) (p50 xs)
    (Stats.percentile xs 0.9) (p99 xs)
    (Stats.ratio (Stats.sum xs) (float_of_int (List.length xs)))

exception Invalid_run of string

(* A failed operation has no latency. Rather than drop it from the
   samples, which would let a change that makes operations fail read as a
   faster one, any failure makes the whole run invalid. *)
let no_failures ~attempted ~failed ~why =
  if failed > 0 then
    raise
      (Invalid_run
         (Printf.sprintf "%d of %d operations failed (first: %s)" failed attempted why))

(* One run; returns whether the gate held. *)
let run_one ~server ~name ~seed ~seconds ~trace ~small =
  let dir = Filename.concat run_root (Printf.sprintf "%s-%d" (to_string name) (Unix.getpid ())) in
  if not (Sys.file_exists run_root) then Sys.mkdir run_root 0o755;
  if Sys.file_exists dir then Durable_run.rm_rf dir;
  Sys.mkdir dir 0o755;
  let cleanup () =
    List.iter Serve_run.stop !Serve_run.live;
    (try if Sys.file_exists dir then Durable_run.rm_rf dir with Sys_error _ -> ());
    try Sys.rmdir run_root with Sys_error _ -> ()
  in
  (* a signal exits through at_exit, which skips [finally] *)
  at_exit cleanup;
  Fun.protect ~finally:cleanup (fun () ->
      let digest = Workload.digest ~seed ~seconds ~small name in
      Printf.printf "# digest %s\n" digest;
      Printf.printf "# record %s\n%!" (record ~name ~seed ~seconds ~trace ~small ~digest);
      match name, trace with
      | (Eager_commits | Lazy_star), _ ->
          let r =
            Serve_run.run ~exe:server ~dir ~name ~seed ~seconds ~small
              ~setups:(if trace then 1 else 16)
              ~closed_seconds:(if trace then 0.0 else closed_share *. seconds)
          in
          let late = p99 r.Serve_run.late_ms in
          Printf.printf "# generator: late p99 %.3f ms, outstanding max %d\n" late
            r.Serve_run.outstanding_max;
          if late > late_bound_ms then
            raise (Invalid_run (Printf.sprintf "generator ran late: p99 %.3f ms > %.1f ms" late late_bound_ms));
          let o = r.Serve_run.open_phase in
          describe "commit" o.commit;
          describe "visible" o.visible;
          describe "read" o.read;
          if not trace then begin
            let c = Option.get r.Serve_run.closed in
            Printf.printf "# closed   %s write units/s in windows of %.2f s\n"
              (String.concat " " (List.map (Printf.sprintf "%.2f") r.Serve_run.closed_rates))
              (closed_share *. seconds /. float_of_int (List.length r.Serve_run.closed_rates));
            Printf.printf "# setup    %s s\n"
              (String.concat " " (List.rev_map (Printf.sprintf "%.3f") r.Serve_run.setup_s));
            let attempted = o.attempted + c.attempted and failed = o.failed + c.failed in
            no_failures ~attempted ~failed ~why:r.Serve_run.first_error;
            result_line ~correct:r.Serve_run.correct ~attempted ~failed
              [ ("setup_s", "s", p50 r.Serve_run.setup_s);
                ("commit_p10_ms", "ms", p10 o.commit);
                ("visible_p10_ms", "ms", p10 o.visible);
                ("read_p10_ms", "ms", p10 o.read);
                (* the best window, as durable_ingest reports its best round *)
                ("peak_commits_per_s", "1/s", List.fold_left Float.max 0.0 r.Serve_run.closed_rates);
                (* serve keeps no WAL: its recovery is a cold restart from
                   the schema and init scripts; the shortest of the run's, as
                   on durable_ingest *)
                ("recover_s", "s", List.fold_left Float.min infinity r.Serve_run.setup_s);
                ("peak_rss_mb", "MB", r.Serve_run.rss_mb) ];
            r.Serve_run.correct
          end
          else begin
            let t = Traced.server ~name ~seed ~seconds ~small ~open_loop:r in
            let correct = r.Serve_run.correct && t.Traced.correct in
            let attempted = o.attempted + (3 * t.Traced.ops)
            and failed = o.failed + t.Traced.failed in
            no_failures ~attempted ~failed
              ~why:(if o.failed > 0 then r.Serve_run.first_error else "in the replay");
            result_line ~correct ~attempted ~failed (Traced.complete t.Traced.values);
            correct
          end
      | Durable_ingest, false ->
          let r = Durable_run.run ~dir ~seed ~seconds ~small in
          let streams = List.map (fun (x : Durable_run.round) -> x.stream) r.Durable_run.rounds in
          let pool f = List.concat_map f streams
          and total f = List.fold_left (fun a s -> a + f s) 0 streams in
          let commit = pool (fun s -> s.Durable_run.commit_ms)
          and visible = pool (fun s -> s.Durable_run.visible_ms)
          and read = pool (fun s -> s.Durable_run.read_ms) in
          (* the best round: every round does the same work from the same
             state, while the host's speed moves between two or three
             levels, up to 1.5x apart, for seconds to minutes at a time; the
             best of many short rounds on alternating CPUs finds the
             uncontended level in nearly every run, where a mean or a pooled
             percentile follows how much of the run was contended *)
          let lowest f = List.fold_left Float.min infinity (List.map f streams) in
          let round_p10 f = lowest (fun s -> p10 (f s)) in
          let recover = List.map (fun (x : Durable_run.round) -> x.recover_s) r.Durable_run.rounds in
          describe "commit" commit;
          describe "visible" visible;
          describe "read" read;
          Printf.printf "# recover  %s s\n" (String.concat " " (List.map (Printf.sprintf "%.3f") recover));
          let attempted = total (fun s -> s.Durable_run.attempted)
          and failed = total (fun s -> s.Durable_run.failed) in
          no_failures ~attempted ~failed ~why:"a store call raised";
          result_line ~correct:r.Durable_run.correct ~attempted ~failed
            [ ("setup_s", "s", p50 r.Durable_run.setup_s);
              ("commit_p10_ms", "ms", round_p10 (fun s -> s.Durable_run.commit_ms));
              ("visible_p10_ms", "ms", round_p10 (fun s -> s.Durable_run.visible_ms));
              ("read_p10_ms", "ms", round_p10 (fun s -> s.Durable_run.read_ms));
              ("peak_commits_per_s", "1/s",
               List.fold_left Float.max 0.0
                 (List.map (fun s -> float_of_int s.Durable_run.dml /. s.Durable_run.wall) streams));
              ("recover_s", "s", List.fold_left Float.min infinity recover);
              ("peak_rss_mb", "MB", r.Durable_run.rss_mb) ];
          r.Durable_run.correct
      | Durable_ingest, true ->
          let values, correct, attempted, failed = Durable_run.traced ~dir ~seed ~small in
          no_failures ~attempted ~failed ~why:"a store call raised";
          result_line ~correct ~attempted ~failed (Traced.complete values);
          correct)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let server = ref "_build_perfbench/default/bin/openivm_cli.exe" and smoke = ref false in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--server PATH] | --smoke" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME eager_commits | lazy_star | durable_ingest");
      ("--seed", Arg.Set_int seed, "N seed of every generated row, statement and arrival");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--server", Arg.Set_string server, "PATH the openivm CLI binary");
      ("--smoke", Arg.Set smoke, " every workload at tiny scale for a few seconds, traced and untraced") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (* read the CPU list and check that taskset works before anything is
     timed *)
  ignore (Lazy.force Cpus.usable);
  (* spans and refresh timings inside the program read the same clock *)
  Openivm_obs.Clock.set_now Mono.now;
  (* exit through at_exit, which stops every server this process started *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let runs =
    if !smoke then
      List.concat_map (fun (_, n) -> [ (n, false); (n, true) ]) Workload.names
      |> List.map (fun (n, t) -> (n, t, 2.0, true))
    else
      match List.assoc_opt !workload Workload.names with
      | Some n when (!trace = 0 || !trace = 1) && !seconds > 0.0 ->
          [ (n, !trace = 1, !seconds, false) ]
      | _ ->
          prerr_endline usage;
          exit 2
  in
  let needs_server = List.exists (fun (n, _, _, _) -> n <> Durable_ingest) runs in
  if needs_server && not (Sys.file_exists !server) then begin
    Printf.eprintf "perfbench: server binary %s not found\n" !server;
    exit 2
  end;
  let ok =
    List.for_all
      (fun (name, trace, seconds, small) ->
        try run_one ~server:!server ~name ~seed:!seed ~seconds ~trace ~small
        with Invalid_run why ->
          Printf.eprintf "perfbench: INVALID run: %s\n%!" why;
          exit 3)
      runs
  in
  exit (if ok then 0 else 1)
