(** Heap table storage: rows in tombstoned slots of a growable vector, an
    optional ART primary-key index mapping encoded keys to slots, and
    secondary ART indexes. Compaction rebuilds storage and indexes when
    more than half the slots are dead.

    A row is found through {!probe} or {!iter_slots} and changed through
    {!overwrite_slot} or {!delete_slot}. Every write path refuses, before
    it mutates anything, a UNIQUE key another live row holds; as in
    PostgreSQL, a key with a NULL column never collides.

    The tables of one database share its undo {!journal}: while a unit is
    open, every mutation records how to revert itself, and rolling back
    replays those records newest first, indexes included. *)

type journal
(** Owned by a {!Database.t}; every table it creates shares it. *)

module Slots : Set.S with type elt = int

type index = {
  index_name : string;
  key_positions : int array;
  unique : bool;
  mutable art : Slots.t Art.t;  (** encoded key -> its live slots *)
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

val iter_rows : (Row.t -> unit) -> t -> unit
val iter_slots : (int -> Row.t -> unit) -> t -> unit
val to_rows : t -> Row.t list

val find_secondary : t -> string -> index option
val create_index :
  t -> index_name:string -> key_positions:int array -> unique:bool -> index
val drop_index : t -> index_name:string -> unit

(** {1 The undo journal}

    A unit is opened by {!savepoint} and ended by exactly one of
    {!release} or {!rollback_to}. Units nest: an inner rollback reverts
    only what ran since its own savepoint, and an inner release keeps its
    records for the outer unit. While any unit is open, mutations record:
    - {!insert}, {!insert_many}: the slots appended;
    - {!delete_slot}: the slot and its row;
    - {!overwrite_slot} (so UPDATE and {!upsert}): the slot and the row it
      replaced; its revert also moves the PK entry back when the key
      moved;
    - {!truncate}: the old storage and index objects, kept, not copied.

    Compaction renumbers slots, so it waits until the outermost unit
    ends; {!delete_slot} asks for one only inside a unit. Catalog changes
    (tables and indexes created or dropped) are not recorded. *)

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
(** Raises {!Error.Sql_error} on arity mismatch or a PK or UNIQUE
    violation. *)

val insert_many : ?distinct_keys:bool -> t -> Row.t list -> unit
(** Bulk append, semantically [List.iter (insert t)] (rows before a
    duplicate stay inserted; the duplicate raises). Into an empty keyed
    table the PK index is not maintained per row: duplicates are checked
    through a hashtable and the index is marked stale, rebuilt lazily in
    one sorted bulk pass on the next PK read.

    [~distinct_keys:true] (default false) promises that [rows] carry
    pairwise-distinct primary keys, skipping the duplicate check and its
    key encoding; the promise is verified by the sorted rebuild. *)

val overwrite_slot : t -> int -> Row.t -> unit
(** Replace the row in a live slot, in place. The PK index is re-keyed
    only when the primary key changes, and a secondary index only when
    its own key does. A new key another live row holds raises
    {!Error.Sql_error} before anything changes, so a statement moving
    keys is checked row by row, as a non-deferrable key is in
    PostgreSQL. *)

val upsert : t -> Row.t -> Row.t option
(** INSERT OR REPLACE through the PK index; requires a primary key and
    returns the row it displaced, if any. Only a PK conflict replaces (through
    {!overwrite_slot}); a UNIQUE secondary conflict raises. *)

val insert_ignore : t -> Row.t -> bool
(** ON CONFLICT DO NOTHING: skips a row whose primary or UNIQUE key is
    held; returns whether the row was inserted. *)

val delete_slot : t -> int -> Row.t option
(** Tombstone a slot; returns its row, or [None] if it was dead. *)

val truncate : t -> int

val probe : t -> index:index option -> Value.t array -> (int * Row.t) list
(** The live rows, with their slots in ascending order, whose key under
    [index] (the primary key when [None]) is [values], one value per key
    column in key order. Values match as under [IS NOT DISTINCT FROM]:
    numbers by value (see {!Value.encode_key}), and a NULL matches a
    NULL, so a caller applying SQL [=] must match nothing when a value is
    NULL. A table without a primary key answers [~index:None] with no
    row. *)

val index_lookup : t -> index -> string -> Row.t list
(** The rows under an encoded key ({!Value.encode_key}) in a secondary
    index, in slot order. *)

val pk_lookup : t -> string -> Row.t option
(** The row under an encoded primary key. *)
