(** A fuzz case: one self-contained (schema, setup, view, workload,
    queries) scenario plus the strategy/dialect matrix it must hold under.
    Serializes to a line-oriented SQL text format for the replay corpus. *)

module Flags = Openivm.Flags
module Dialect = Openivm_sql.Dialect

type t = {
  seed : int;          (** generator seed, for provenance and replay *)
  max_steps : int;     (** workload length the generator was asked for *)
  note : string;       (** free-text provenance ("" = none) *)
  schema : string list;    (** CREATE TABLE statements *)
  setup : string list;     (** DML executed before the views are installed *)
  views : string list;     (** CREATE MATERIALIZED VIEW statements, installed
                               in order — later views may read earlier ones
                               (a cascade stack) *)
  workload : string list;  (** DML steps; refresh + check after each *)
  queries : string list;   (** SELECTs for the optimizer/roundtrip oracle *)
  strategies : Flags.combine_strategy list;  (** [] = every strategy *)
  dialects : Dialect.t list;                 (** [] = duckdb and postgres *)
}

val all_dialects : Dialect.t list
(** The dialect matrix an unrestricted case is checked under. *)

val strategies : t -> Flags.combine_strategy list
(** The effective strategy list ([Flags.all_strategies] when unset). *)

val dialects : t -> Dialect.t list
(** The effective dialect list ([all_dialects] when unset). *)

val empty : t

val command :
  ?strategy:Flags.combine_strategy -> ?dialect:Dialect.t ->
  ?crash_seed:int -> t -> string
(** The exact [openivm fuzz] CLI invocation that regenerates and re-checks
    this case — embedded in every failure message. [crash_seed] replays
    the {!Durable} crash-injection axis too. *)

val to_string : t -> string
(** Render in the corpus file format (headers + one statement per line). *)

val of_string : string -> (t, string) result
(** Parse the corpus file format back. Unknown [-- key: value] headers
    are ignored, so reproducers written with headers this version no longer
    reads (such as [-- engines:]) still load. *)
