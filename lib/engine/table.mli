(** Heap table storage: rows in tombstoned slots of a growable vector, an
    optional ART primary-key index mapping encoded keys to slots, and
    secondary ART indexes. Compaction rebuilds storage and indexes when
    more than half the slots are dead.

    The tables of one database share its undo {!journal}: while a unit is
    open, every mutation records how to revert itself, and rolling back
    replays those records newest first, indexes included. *)

type journal
(** Owned by a {!Database.t}; every table it creates shares it. *)

type index = {
  index_name : string;
  key_positions : int array;
  unique : bool;
  mutable art : int list Art.t;  (** encoded key -> live slots *)
}

type t = {
  name : string;
  schema : Schema.t;
  primary_key : int array;  (** column positions; empty = no PK *)
  mutable slots : Row.t option Vec.t;
      (** replaced, not cleared, by a {!truncate} inside a unit *)
  mutable live : int;
  mutable pk_index : int Art.t option;
  mutable pk_stale : bool;
      (** set by bulk appends ({!insert_many}); [pk_index] lags the slots
          and is rebuilt in one sorted bulk pass before the next PK read *)
  mutable secondary : index list;
  journal : journal;
}

val create :
  journal:journal -> name:string -> schema:Schema.t -> primary_key:int array -> t

val arity : t -> int
val row_count : t -> int

val key_of_row : int array -> Row.t -> string
val pk_key : t -> Row.t -> string

val iter_rows : (Row.t -> unit) -> t -> unit
val iter_slots : (int -> Row.t -> unit) -> t -> unit
val to_rows : t -> Row.t list

val find_secondary : t -> string -> index option
val secondary_on : t -> int array -> index option
val create_index :
  t -> index_name:string -> key_positions:int array -> unique:bool -> index
val drop_index : t -> index_name:string -> unit

(** {1 The undo journal}

    A unit is opened by {!savepoint} and ended by exactly one of
    {!release} or {!rollback_to}. Units nest: an inner rollback reverts
    only what ran since its own savepoint, and an inner release keeps its
    records for the outer unit. While any unit is open, mutations record:
    - {!insert}, {!insert_many}: the slots appended;
    - {!delete_slot} (and so {!delete_where}, {!update_where}): the slot
      and its row;
    - {!upsert}: the slot and the row it overwrote;
    - {!truncate}: the old storage and index objects, kept, not copied.

    Compaction renumbers slots, so it waits until the outermost unit
    ends. Catalog changes (tables and indexes created or dropped) are not
    recorded. *)

type savepoint

val create_journal : unit -> journal

val savepoint : journal -> savepoint
(** Open a unit. *)

val release : journal -> savepoint -> unit
(** Keep the unit's changes. Ending the outermost unit drops the records
    and runs any compaction that waited. *)

val rollback_to : journal -> savepoint -> unit
(** Revert every mutation since [savepoint] and end the unit. Primary-key
    and secondary indexes are reverted with the rows. *)

val insert : t -> Row.t -> unit
(** Raises {!Error.Sql_error} on arity mismatch or PK violation. *)

val insert_many : ?distinct_keys:bool -> t -> Row.t list -> unit
(** Bulk append, semantically [List.iter (insert t)] (rows before a
    duplicate stay inserted; the duplicate raises). Into an empty keyed
    table the PK index is not maintained per row: duplicates are checked
    through a hashtable and the index is marked stale, rebuilt lazily in
    one sorted bulk pass on the next PK read.

    [~distinct_keys:true] (default false) promises that [rows] carry
    pairwise-distinct primary keys, skipping the duplicate check and its
    key encoding; the promise is verified by the sorted rebuild. *)

type upsert_outcome =
  | Inserted
  | Replaced of Row.t  (** the displaced row *)

val upsert : t -> Row.t -> upsert_outcome
(** INSERT OR REPLACE through the PK index; requires a primary key. *)

val insert_ignore : t -> Row.t -> bool
(** ON CONFLICT DO NOTHING; returns whether the row was inserted. *)

val delete_slot : t -> int -> Row.t option
val delete_where : t -> (Row.t -> bool) -> Row.t list
val update_where : t -> (Row.t -> bool) -> (Row.t -> Row.t) -> (Row.t * Row.t) list
val truncate : t -> int

val index_lookup : t -> index -> string -> Row.t list
val index_slots : t -> index -> string -> int list
val pk_slot : t -> string -> int option
val pk_lookup : t -> string -> Row.t option
