(** The differential oracle: view ≡ full recompute after every refresh
    (per combine strategy × dialect × executor, with the recompute always
    on the row interpreter so the vectorized engine is judged against an
    independent executor), vectorized ≡ row for every generated SELECT,
    optimizer-on ≡ optimizer-off and print → parse → execute
    row-identity. *)

module Flags = Openivm.Flags
module Dialect = Openivm_sql.Dialect
module Exec = Openivm_engine.Exec

type point =
  | Install            (** compiling / installing the view *)
  | Initial            (** consistency right after the initial load *)
  | Step of int        (** consistency after workload step [i] (0-based) *)
  | Query of int       (** optimizer / roundtrip check of query [i] *)
  | Durability         (** crash-replay convergence (the {!Durable} axis) *)

type failure = {
  case : Case.t;
  strategy : Flags.combine_strategy option;
  dialect : Dialect.t option;
  engine : Exec.engine option;
  point : point;
  message : string;    (** human-readable, ends with the reproducer *)
}

type outcome = {
  checks : int;               (** individual assertions that ran *)
  failure : failure option;   (** the first violation, if any *)
}

val point_to_string : point -> string

val run : Case.t -> outcome
(** Check the case over its whole strategy × dialect matrix, queries
    first. Stops at the first violation. *)

val first_failure : Case.t -> string option
(** The shrinker's predicate: [Some message] when the case still fails. *)
