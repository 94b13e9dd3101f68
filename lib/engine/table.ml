(** Heap table storage.

    Rows live in slots of a growable vector; DELETE tombstones a slot so
    indexes (which map encoded keys to slot numbers) stay valid. When more
    than half the slots are dead a compaction rebuilds storage and all
    indexes.

    Every table of a database shares that database's undo journal. While a
    unit is open on it, each mutation first records how to revert itself,
    so rolling a unit back costs the size of its own change, not of the
    tables it touched. *)

module Slots = Set.Make (Int)

type index = {
  index_name : string;
  key_positions : int array;
  unique : bool;
  (* key -> its live slots; a set, so moving one row in or out of a key
     shared by many rows costs O(log n), not a walk of them all *)
  mutable art : Slots.t Art.t;
}

type t = {
  name : string;
  schema : Schema.t;
  primary_key : int array;  (** column positions; empty = no PK *)
  mutable slots : Row.t option Vec.t;
  mutable live : int;
  mutable pk_index : int Art.t option;
  mutable pk_stale : bool;
      (** bulk appends skip per-row ART maintenance; when set, [pk_index]
          lags the slots and must be rebuilt (one sorted bulk pass) before
          any PK read — see {!ensure_pk} *)
  mutable secondary : index list;
  journal : journal;
}

and journal = {
  mutable undo : undo list;  (** newest first *)
  mutable depth : int;  (** open units, savepoints included; 0 = off *)
  mutable compact_later : t list;
      (** compaction renumbers the slots the records name, so it waits
          for the outermost unit to end *)
}

(* Each record reverts one mutation. Rollback pops them newest first, so
   a record always meets the table exactly as its mutation left it. *)
and undo =
  | Grown of t * int  (** the slots from this length on were appended *)
  | Deleted of t * int * Row.t  (** the slot was tombstoned; its row *)
  | Overwritten of t * int * Row.t
      (** the slot's row before {!overwrite_slot} *)
  | Truncated of t * storage  (** storage and indexes, kept, not copied *)

and storage = {
  old_slots : Row.t option Vec.t;
  old_live : int;
  old_pk : int Art.t option;
  old_pk_stale : bool;
  old_arts : (index * Slots.t Art.t) list;
}

let create_journal () = { undo = []; depth = 0; compact_later = [] }

let create ~journal ~name ~(schema : Schema.t) ~primary_key =
  let pk_index = if Array.length primary_key = 0 then None else Some (Art.create ()) in
  { name; schema; primary_key;
    slots = Vec.create ~dummy:None ();
    live = 0; pk_index; pk_stale = false; secondary = []; journal }

let arity t = Schema.arity t.schema
let row_count t = t.live

(* scratch for key encoding: never held across calls, so a single shared
   buffer is safe and saves an allocation per row on the DML hot path *)
let key_buf = Buffer.create 64

let key_of_row (positions : int array) (row : Row.t) : string =
  Buffer.clear key_buf;
  Array.iter (fun i -> Value.encode_into key_buf row.(i)) positions;
  Buffer.contents key_buf

let pk_key t row = key_of_row t.primary_key row

(* Does [fresh] carry [old]'s key under [positions]? The columns an
   UPDATE leaves alone are shared, not copied, which settles most calls
   without encoding a key. *)
let same_key positions (old : Row.t) (fresh : Row.t) =
  Array.for_all (fun i -> old.(i) == fresh.(i)) positions
  || String.equal (key_of_row positions old) (key_of_row positions fresh)

(* --- iteration --- *)

let iter_rows f t =
  Vec.iter (function Some row -> f row | None -> ()) t.slots

let iter_slots f t =
  Vec.iteri (fun i s -> match s with Some row -> f i row | None -> ()) t.slots

let to_rows t =
  let acc = ref [] in
  iter_rows (fun r -> acc := r :: !acc) t;
  List.rev !acc

(* --- index maintenance --- *)

let index_add_row (ix : index) slot row =
  let key = key_of_row ix.key_positions row in
  Art.insert_with ix.art
    ~combine:(fun old _ -> Slots.add slot old)
    key (Slots.singleton slot)

let index_remove_row (ix : index) slot row =
  let key = key_of_row ix.key_positions row in
  match Art.find ix.art key with
  | None -> ()
  | Some slots ->
    let remaining = Slots.remove slot slots in
    if Slots.is_empty remaining then ignore (Art.remove ix.art key)
    else Art.insert ix.art key remaining

(* Would [row] take a key a live slot already holds under UNIQUE index
   [ix]? As in PostgreSQL, a key with a NULL column never collides. *)
let unique_clash (ix : index) (row : Row.t) =
  ix.unique
  && (not (Array.exists (fun i -> Value.is_null row.(i)) ix.key_positions))
  && Art.mem ix.art (key_of_row ix.key_positions row)

(* Every write path runs this, per row, before it mutates anything. *)
let rec check_unique (indexes : index list) (row : Row.t) =
  match indexes with
  | [] -> ()
  | ix :: rest ->
    if unique_clash ix row then
      Error.fail "duplicate key in UNIQUE index %S: %s" ix.index_name
        (Row.to_string row);
    check_unique rest row

(* Store [fresh] in [slot] over [old], moving only the index entries
   whose key differs; [pk_moves] says whether the primary key's does. A
   stale PK index is left to its rebuild. *)
let rekey t slot ~pk_moves (old : Row.t) (fresh : Row.t) =
  (match t.pk_index with
   | Some pk when pk_moves && not t.pk_stale ->
     ignore (Art.remove pk (pk_key t old));
     Art.insert pk (pk_key t fresh) slot
   | _ -> ());
  List.iter
    (fun ix ->
       if not (same_key ix.key_positions old fresh) then begin
         index_remove_row ix slot old;
         index_add_row ix slot fresh
       end)
    t.secondary;
  Vec.set t.slots slot (Some fresh)

(* Push a row whose keys were checked; its PK entry is the caller's. *)
let append t (row : Row.t) : int =
  let slot = Vec.push t.slots (Some row) in
  t.live <- t.live + 1;
  List.iter (fun ix -> index_add_row ix slot row) t.secondary;
  slot

(* Rebuild a stale PK index in one sorted bulk pass. The bulk-append path
   duplicate-checks through a hashtable, so the slots hold distinct keys and
   [Art.of_sorted] accepts them. *)
let ensure_pk t =
  if t.pk_stale then begin
    t.pk_stale <- false;
    match t.pk_index with
    | None -> ()
    | Some _ ->
      let pairs = ref [] in
      iter_slots (fun slot row -> pairs := (pk_key t row, slot) :: !pairs) t;
      let arr = Array.of_list !pairs in
      Array.sort (fun (a, _) (b, _) -> String.compare a b) arr;
      (* bulk appends under [~distinct_keys:true] skipped the per-row
         duplicate check on the caller's promise; verify it here, where
         adjacency makes the check free *)
      for i = 1 to Array.length arr - 1 do
        if String.equal (fst arr.(i - 1)) (fst arr.(i)) then
          Error.fail "duplicate key in table %S" t.name
      done;
      t.pk_index <- Some (Art.of_sorted arr)
  end

let find_secondary t name =
  List.find_opt (fun ix -> String.equal ix.index_name name) t.secondary

let create_index t ~index_name ~key_positions ~unique =
  if find_secondary t index_name <> None then
    Error.fail "index %S already exists" index_name;
  let ix = { index_name; key_positions; unique; art = Art.create () } in
  iter_slots
    (fun slot row ->
       if unique_clash ix row then
         Error.fail "cannot create UNIQUE index %S: duplicate keys" index_name;
       index_add_row ix slot row)
    t;
  t.secondary <- ix :: t.secondary;
  ix

let drop_index t ~index_name =
  if find_secondary t index_name = None then
    Error.fail "index %S does not exist" index_name;
  t.secondary <-
    List.filter (fun ix -> not (String.equal ix.index_name index_name)) t.secondary

(* --- compaction --- *)

let compact t =
  let rows = to_rows t in
  Vec.clear t.slots;
  t.pk_stale <- false;
  (match t.pk_index with Some _ -> t.pk_index <- Some (Art.create ()) | None -> ());
  List.iter (fun ix -> ix.art <- Art.create ()) t.secondary;
  t.live <- 0;
  List.iter
    (fun row ->
       let slot = append t row in
       Option.iter (fun pk -> Art.insert pk (pk_key t row) slot) t.pk_index)
    rows

let maybe_compact t =
  let total = Vec.length t.slots in
  if total > 64 && t.live * 2 < total then begin
    let j = t.journal in
    if j.depth = 0 then compact t
    else if not (List.memq t j.compact_later) then
      j.compact_later <- t :: j.compact_later
  end

(* --- the undo journal --- *)

let journaling t = t.journal.depth > 0
let log t r = t.journal.undo <- r :: t.journal.undo

type savepoint = undo list

let savepoint j =
  j.depth <- j.depth + 1;
  j.undo

let end_unit j =
  j.depth <- j.depth - 1;
  if j.depth = 0 then begin
    j.undo <- [];
    let due = j.compact_later in
    j.compact_later <- [];
    List.iter maybe_compact due
  end

let release j (_ : savepoint) = end_unit j

(* A fresh PK index is kept in step with the slots a revert restores or
   removes. A stale one is left stale: the next PK reader rebuilds it from
   the restored slots ({!ensure_pk}). *)
let revert = function
  | Grown (t, len) ->
    for slot = Vec.length t.slots - 1 downto len do
      match Vec.get t.slots slot with
      | None -> ()
      | Some row ->
        t.live <- t.live - 1;
        (match t.pk_index with
         | Some pk when not t.pk_stale -> ignore (Art.remove pk (pk_key t row))
         | _ -> ());
        List.iter (fun ix -> index_remove_row ix slot row) t.secondary
    done;
    Vec.truncate t.slots len
  | Deleted (t, slot, row) ->
    Vec.set t.slots slot (Some row);
    t.live <- t.live + 1;
    (match t.pk_index with
     | Some pk when not t.pk_stale -> Art.insert pk (pk_key t row) slot
     | _ -> ());
    List.iter (fun ix -> index_add_row ix slot row) t.secondary
  | Overwritten (t, slot, old) ->
    (* live: a later delete of the slot was reverted before this *)
    let cur = Option.get (Vec.get t.slots slot) in
    rekey t slot ~pk_moves:(not (same_key t.primary_key cur old)) cur old
  | Truncated (t, s) ->
    t.slots <- s.old_slots;
    t.live <- s.old_live;
    t.pk_index <- s.old_pk;
    t.pk_stale <- s.old_pk_stale;
    List.iter (fun (ix, art) -> ix.art <- art) s.old_arts

let rollback_to j (sp : savepoint) =
  while j.undo != sp do
    match j.undo with
    | r :: rest ->
      j.undo <- rest;
      revert r
    | [] -> invalid_arg "Table.rollback_to: savepoint not in this journal"
  done;
  end_unit j

(* --- mutations --- *)

let check_arity t (row : Row.t) =
  if Array.length row <> arity t then
    Error.fail "table %S expects %d columns, got %d" t.name (arity t)
      (Array.length row)

let duplicate_key t (row : Row.t) =
  Error.fail "duplicate key in table %S: %s" t.name (Row.to_string row)

(* plain append without an undo record: callers log one [Grown] first *)
let insert_at t (row : Row.t) : unit =
  check_arity t row;
  ensure_pk t;
  let pk_entry =
    match t.pk_index with
    | None -> None
    | Some pk ->
      (* encode the key once for both the duplicate check and the insert *)
      let key = pk_key t row in
      if Art.mem pk key then duplicate_key t row;
      Some (pk, key)
  in
  check_unique t.secondary row;
  let slot = append t row in
  match pk_entry with Some (pk, key) -> Art.insert pk key slot | None -> ()

let log_growth t = if journaling t then log t (Grown (t, Vec.length t.slots))

(** Plain append; raises on a PK or UNIQUE violation. *)
let insert t (row : Row.t) : unit =
  log_growth t;
  insert_at t row

(** Bulk append. Semantically [List.iter (insert t)] — rows preceding a
    duplicate stay inserted and the duplicate raises — but into an empty
    keyed table the ART is not maintained per row: keys are duplicate-checked
    through a hashtable and the index is marked stale, rebuilt in one sorted
    bulk pass by the next PK reader ({!ensure_pk}). This is the propagation
    hot path: DELETE-all + INSERT ... SELECT swap cycles re-fill view tables
    from scratch every refresh, and the per-row index maintenance — not the
    query — dominated their cost.

    [~distinct_keys:true] is the caller's promise that [rows] carry
    pairwise-distinct primary keys (e.g. a GROUP BY output whose keys are
    the PK): the duplicate check — and with it all key encoding — is
    skipped, and the promise is verified for free by the sorted rebuild
    in {!ensure_pk} should a PK reader ever appear. *)
let insert_many ?(distinct_keys = false) t (rows : Row.t list) : unit =
  match t.pk_index with
  | Some _ when t.live = 0 && rows <> [] ->
    ensure_pk t;
    log_growth t;
    t.pk_stale <- true;
    if distinct_keys then
      List.iter
        (fun row ->
           check_arity t row;
           check_unique t.secondary row;
           ignore (append t row))
        rows
    else begin
      let seen = Hashtbl.create 1024 in
      List.iter
        (fun row ->
           check_arity t row;
           let key = pk_key t row in
           (* replace + length delta = membership test with a single hash *)
           let before = Hashtbl.length seen in
           Hashtbl.replace seen key ();
           if Hashtbl.length seen = before then duplicate_key t row;
           check_unique t.secondary row;
           ignore (append t row))
        rows
    end
  | _ ->
    log_growth t;
    List.iter (insert_at t) rows

let cons_live t slot acc =
  match Vec.get t.slots slot with Some row -> (slot, row) :: acc | None -> acc

(* The live rows under an encoded key, with their slots, ascending. *)
let find_key t (index : index option) (key : string) : (int * Row.t) list =
  match index with
  | Some ix ->
    (match Art.find ix.art key with
     | None -> []
     | Some slots -> List.rev (Slots.fold (cons_live t) slots []))
  | None ->
    ensure_pk t;
    (match t.pk_index with
     | None -> []
     | Some pk ->
       (match Art.find pk key with None -> [] | Some slot -> cons_live t slot []))

let probe t ~(index : index option) (values : Value.t array) :
  (int * Row.t) list =
  Buffer.clear key_buf;
  Array.iter (Value.encode_into key_buf) values;
  find_key t index (Buffer.contents key_buf)

let index_lookup t (ix : index) (key : string) : Row.t list =
  List.map snd (find_key t (Some ix) key)

let pk_lookup t (key : string) : Row.t option =
  Option.map snd (List.nth_opt (find_key t None key) 0)

(* The live slot holding [row]'s primary key, if any. *)
let pk_holder t (row : Row.t) : (int * Row.t) option =
  if Option.is_none t.pk_index then None
  else List.nth_opt (find_key t None (pk_key t row)) 0

(* [overwrite_slot] once the primary key is checked *)
let overwrite t slot ~pk_moves (old : Row.t) (fresh : Row.t) =
  check_unique
    (List.filter
       (fun ix -> ix.unique && not (same_key ix.key_positions old fresh))
       t.secondary)
    fresh;
  if journaling t then log t (Overwritten (t, slot, old));
  rekey t slot ~pk_moves old fresh

let overwrite_slot t slot (fresh : Row.t) : unit =
  check_arity t fresh;
  let old =
    match Vec.get t.slots slot with
    | Some old -> old
    | None -> invalid_arg "Table.overwrite_slot: dead slot"
  in
  let pk_moves = not (same_key t.primary_key old fresh) in
  (* refuse before anything changes; [pk_holder] also rebuilds a stale
     PK index, which [rekey] then edits *)
  if pk_moves && pk_holder t fresh <> None then duplicate_key t fresh;
  overwrite t slot ~pk_moves old fresh

let upsert t (row : Row.t) : Row.t option =
  check_arity t row;
  if Option.is_none t.pk_index then
    Error.fail "INSERT OR REPLACE on table %S without a primary key" t.name;
  match pk_holder t row with
  | Some (slot, old) ->
    overwrite t slot ~pk_moves:false old row;
    Some old
  | None ->
    insert t row;
    None

let insert_ignore t (row : Row.t) : bool =
  check_arity t row;
  if pk_holder t row <> None || List.exists (fun ix -> unique_clash ix row) t.secondary
  then false
  else begin
    insert t row;
    true
  end

let delete_slot t slot : Row.t option =
  match Vec.get t.slots slot with
  | None -> None
  | Some row ->
    if journaling t then log t (Deleted (t, slot, row));
    Vec.set t.slots slot None;
    t.live <- t.live - 1;
    (match t.pk_index with
     | Some pk when not t.pk_stale -> ignore (Art.remove pk (pk_key t row))
     | _ -> ());
    List.iter (fun ix -> index_remove_row ix slot row) t.secondary;
    (* compaction renumbers slots, so it waits for the end of the
       outermost unit rather than run under a caller still walking them *)
    if journaling t then maybe_compact t;
    Some row

let truncate t : int =
  let n = t.live in
  if journaling t then begin
    log t
      (Truncated
         ( t,
           { old_slots = t.slots; old_live = t.live; old_pk = t.pk_index;
             old_pk_stale = t.pk_stale;
             old_arts = List.map (fun ix -> (ix, ix.art)) t.secondary } ));
    (* the old storage is kept for the revert; size the fresh one by the
       old length, since the refill of a swap or a delta table is about
       as big (its capacity can be far larger: a delta table that once
       held a backfill) *)
    t.slots <- Vec.create ~capacity:(Vec.length t.slots) ~dummy:None ()
  end
  else Vec.clear t.slots;
  t.pk_stale <- false;
  (match t.pk_index with Some _ -> t.pk_index <- Some (Art.create ()) | None -> ());
  List.iter (fun ix -> ix.art <- Art.create ()) t.secondary;
  t.live <- 0;
  n
