(** The fuzz loop: generate case [i] from [base_seed + i], run the
    differential oracle over the strategy × dialect matrix, shrink every
    failure to a minimal reproducer, and (optionally) write it into a
    corpus directory. Used by the [openivm fuzz] CLI and the [@fuzz]
    smoke alias alike. *)

module Flags = Openivm.Flags
module Dialect = Openivm_sql.Dialect

type config = {
  base_seed : int;
  cases : int;
  max_steps : int;
  queries : int;
  strategies : Flags.combine_strategy list;  (** [] = every strategy *)
  dialects : Dialect.t list;                 (** [] = duckdb and postgres *)
  corpus_dir : string option;  (** where to save shrunk reproducers *)
  shrink : bool;
  crash_seed : int option;
      (** arm the {!Durable} crash-replay axis: cases that pass the
          differential oracle are re-run through the durable store under
          storage faults seeded from [crash_seed + case seed] *)
  log : string -> unit;
}

let default =
  { base_seed = 42; cases = 100; max_steps = 30; queries = 4;
    strategies = []; dialects = []; corpus_dir = None;
    shrink = true; crash_seed = None; log = ignore }

type case_failure = {
  failure : Oracle.failure;
  minimized : Case.t;
  shrink_stats : Shrink.stats option;
  saved_to : string option;
}

type report = {
  cases_run : int;
  checks_run : int;
  failures : case_failure list;
  elapsed_seconds : float;
  shrink_seconds : float;
}

let throughput (r : report) : string =
  let rate =
    if r.elapsed_seconds > 0.0 then
      Printf.sprintf "%.1f cases/s" (float_of_int r.cases_run /. r.elapsed_seconds)
    else "n/a"
  in
  if r.shrink_seconds > 0.0 then
    Printf.sprintf "%s, %.2fs shrinking" rate r.shrink_seconds
  else rate

let summary (r : report) : string =
  if r.failures = [] then
    Printf.sprintf "fuzz: %d cases, %d checks, all green (%s)" r.cases_run
      r.checks_run (throughput r)
  else
    Printf.sprintf "fuzz: %d cases, %d checks (%s), %d FAILURE(S)\n%s"
      r.cases_run r.checks_run (throughput r)
      (List.length r.failures)
      (String.concat "\n"
         (List.map
            (fun f ->
               f.failure.Oracle.message
               ^
               match f.saved_to with
               | Some path -> Printf.sprintf "\n  saved reproducer: %s" path
               | None -> "")
            r.failures))

module Span = Openivm_obs.Span
module Metrics = Openivm_obs.Metrics
module Clock = Openivm_obs.Clock

let m_cases = Metrics.counter "fuzz_cases_total" ~help:"fuzz cases checked"
let m_checks = Metrics.counter "fuzz_checks_total" ~help:"oracle checks run"
let m_failures = Metrics.counter "fuzz_failures_total" ~help:"failing cases"

let m_case_seconds =
  Metrics.histogram "fuzz_case_seconds" ~help:"oracle wall-clock per case"

let m_shrink_seconds =
  Metrics.histogram "fuzz_shrink_seconds" ~help:"shrink wall-clock per failure"

let m_shrink_attempts =
  Metrics.counter "fuzz_shrink_attempts_total"
    ~help:"oracle evaluations spent shrinking"

let run (cfg : config) : report =
  let checks = ref 0 in
  let failures = ref [] in
  let t_start = Clock.now () in
  let shrink_time = ref 0.0 in
  let campaign_span = Span.enter "fuzz.campaign" in
  for i = 0 to cfg.cases - 1 do
    let seed = cfg.base_seed + i in
    let case =
      { (Gen.case ~max_steps:cfg.max_steps ~queries:cfg.queries ~seed ()) with
        Case.strategies = cfg.strategies;
        dialects = cfg.dialects }
    in
    let t_case = Clock.now () in
    let outcome =
      Span.with_span "fuzz.case" ~attrs:[ ("seed", Span.Int seed) ]
        (fun _ -> Oracle.run case)
    in
    Metrics.observe m_case_seconds (Clock.now () -. t_case);
    Metrics.incr m_cases;
    Metrics.add m_checks outcome.Oracle.checks;
    checks := !checks + outcome.Oracle.checks;
    (* the crash-replay axis only makes sense on a case the plain oracle
       accepts: a divergence under faults then implicates recovery *)
    let durability_failure =
      match outcome.Oracle.failure, cfg.crash_seed with
      | None, Some crash_seed ->
        let n, f =
          Span.with_span "fuzz.durable" ~attrs:[ ("seed", Span.Int seed) ]
            (fun _ -> Durable.check ~crash_seed case)
        in
        Metrics.add m_checks n;
        checks := !checks + n;
        f
      | _ -> None
    in
    (match outcome.Oracle.failure, durability_failure with
     | None, None ->
       if (i + 1) mod 50 = 0 then
         cfg.log (Printf.sprintf "fuzz: %d/%d cases green" (i + 1) cfg.cases)
     | None, Some failure ->
       (* a crash-replay divergence: the reproducer command already
          replays the fault schedule, and the shrinker's oracle knows
          nothing about crashes — keep the case as-is *)
       Metrics.incr m_failures;
       cfg.log (Printf.sprintf "fuzz: case seed=%d FAILED\n%s" seed
                  failure.Oracle.message);
       failures :=
         { failure; minimized = case; shrink_stats = None; saved_to = None }
         :: !failures
     | Some failure, _ ->
       Metrics.incr m_failures;
       cfg.log (Printf.sprintf "fuzz: case seed=%d FAILED\n%s" seed
                  failure.Oracle.message);
       let minimized, shrink_stats =
         if cfg.shrink then begin
           let t_shrink = Clock.now () in
           let m, st =
             Span.with_span "fuzz.shrink" ~attrs:[ ("seed", Span.Int seed) ]
               (fun _ -> Shrink.minimize ~oracle:Oracle.first_failure case)
           in
           let dt = Clock.now () -. t_shrink in
           shrink_time := !shrink_time +. dt;
           Metrics.observe m_shrink_seconds dt;
           Metrics.add m_shrink_attempts st.Shrink.attempts;
           cfg.log
             (Printf.sprintf
                "fuzz: shrunk to %d setup + %d workload statement(s) (%d \
                 oracle calls, %d reductions, %.2fs)"
                (List.length m.Case.setup)
                (List.length m.Case.workload)
                st.Shrink.attempts st.Shrink.kept dt);
           (m, Some st)
         end
         else (case, None)
       in
       let saved_to =
         Option.map
           (fun dir ->
              let path = Corpus.save ~dir minimized in
              cfg.log (Printf.sprintf "fuzz: reproducer saved to %s" path);
              path)
           cfg.corpus_dir
       in
       cfg.log ("fuzz: minimal reproducer:\n" ^ Case.to_string minimized);
       failures :=
         { failure; minimized; shrink_stats; saved_to } :: !failures)
  done;
  Span.finish campaign_span;
  { cases_run = cfg.cases; checks_run = !checks;
    failures = List.rev !failures;
    elapsed_seconds = Clock.now () -. t_start;
    shrink_seconds = !shrink_time }
