(** Database snapshots: [schema.sql] (CREATE TABLE / CREATE INDEX) plus one
    CSV per table in a directory. A snapshot of an IVM-enabled database
    restores with its view tables, delta tables and OpenIVM metadata
    intact; re-install views through [Openivm.Runner] to re-arm capture
    triggers. *)

val save : Database.t -> dir:string -> int
(** Write the whole catalog under [dir] (created if missing); returns the
    number of tables saved. *)

val load : dir:string -> Database.t
(** Load a snapshot into a fresh database (indexes rebuilt). Raises
    {!Error.Sql_error} when the directory holds no snapshot. *)

(** {1 In-memory table capture}

    Read only by perfbench, whose traced replay times {!capture}
    standalone: it is the per-unit copy that rollback used to take before
    the undo journal ({!Database.atomically}) replaced it. No rollback
    path in the library uses it. *)

type mem

val capture : Database.t -> tables:string list -> mem
(** Deep-copy the current rows of [tables]. *)
