(** The fuzz loop: generate, check, shrink, save. Case [i] is generated
    from seed [base_seed + i], so any failure is re-creatable with
    [openivm fuzz --seed (base_seed + i) --cases 1]. *)

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

val default : config
(** seed 42, 100 cases, 30 steps, 4 queries, full matrix, no corpus, no
    crash axis. *)

type case_failure = {
  failure : Oracle.failure;
  minimized : Case.t;           (** = the original case when shrink is off *)
  shrink_stats : Shrink.stats option;
  saved_to : string option;     (** corpus file written, if any *)
}

type report = {
  cases_run : int;
  checks_run : int;
  failures : case_failure list;
  elapsed_seconds : float;  (** whole campaign, shrinking included *)
  shrink_seconds : float;   (** spent minimizing failures *)
}

val run : config -> report

val summary : report -> string
(** One-paragraph human summary with throughput (cases/sec, shrink time);
    includes every failure message (each of which embeds its reproducer
    command). *)
