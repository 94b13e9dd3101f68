(** The bounded fuzz smoke run wired into `dune runtest` (and `dune build
    @fuzz`): replay every checked-in reproducer under test/corpus/, then
    run a fixed-seed differential fuzz campaign. OPENIVM_FUZZ_CASES
    overrides the case count for long local runs, e.g.

      OPENIVM_FUZZ_CASES=2000 dune build @fuzz

    Exits non-zero on any failure; every failure message carries the exact
    `openivm fuzz` command that reproduces it. *)

let () =
  let cases =
    match Sys.getenv_opt "OPENIVM_FUZZ_CASES" with
    | Some s ->
      (match int_of_string_opt s with
       | Some n when n > 0 -> n
       | _ ->
         prerr_endline ("fuzz: bad OPENIVM_FUZZ_CASES value " ^ s);
         exit 2)
    | None -> 100
  in
  let corpus_dir = "corpus" in
  let replayed = Openivm_fuzz.Corpus.replay ~dir:corpus_dir () in
  let corpus_failures =
    List.filter (fun r -> r.Openivm_fuzz.Corpus.error <> None) replayed
  in
  Printf.printf "fuzz: corpus replay: %d case(s), %d failure(s)\n%!"
    (List.length replayed)
    (List.length corpus_failures);
  List.iter
    (fun (r : Openivm_fuzz.Corpus.replay_result) ->
       match r.error with
       | Some msg -> Printf.printf "fuzz: corpus FAIL %s\n%s\n%!" r.file msg
       | None -> ())
    corpus_failures;
  let config =
    { Openivm_fuzz.Campaign.default with
      base_seed = 42; cases; max_steps = 20;
      log = (fun s -> Printf.printf "%s\n%!" s) }
  in
  let report = Openivm_fuzz.Campaign.run config in
  print_endline (Openivm_fuzz.Campaign.summary report);
  (* a short crash-replay pass: cases re-run through the durable store
     under seeded storage faults (kill + reopen at every injected death)
     must converge to their no-crash run — kept small, every case pays
     for a store per strategy *)
  let crash_config =
    { Openivm_fuzz.Campaign.default with
      base_seed = 4242; cases = 5; max_steps = 12; queries = 0;
      crash_seed = Some 99;
      log = (fun s -> Printf.printf "%s\n%!" s) }
  in
  let crash_report = Openivm_fuzz.Campaign.run crash_config in
  print_endline ("crash axis " ^ Openivm_fuzz.Campaign.summary crash_report);
  if corpus_failures <> []
     || report.Openivm_fuzz.Campaign.failures <> []
     || crash_report.Openivm_fuzz.Campaign.failures <> []
  then exit 1
