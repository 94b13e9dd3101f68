(** Adaptive Radix Tree (Leis et al., ICDE 2013) — the index structure
    DuckDB uses for primary keys and that the paper builds over
    materialized aggregates to support INSERT OR REPLACE upserts.

    Keys are arbitrary byte strings (internally rewritten into a
    prefix-free, order-preserving form). Iteration is in ascending key
    order. Besides point operations the module provides bulk build from
    sorted input and structural merge — the primitives behind the paper's
    observation that building small per-chunk indexes and merging them
    beats per-row insertion. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val insert : 'a t -> string -> 'a -> unit
(** Insert or replace. *)

val insert_with : 'a t -> combine:('a -> 'a -> 'a) -> string -> 'a -> unit
(** Insert; on an existing key the stored value becomes
    [combine old fresh]. *)

val find : 'a t -> string -> 'a option
val mem : 'a t -> string -> bool

val remove : 'a t -> string -> bool
(** Returns whether the key was present. Single-child paths are collapsed
    and nodes shrink back. *)

val iter : (string -> 'a -> unit) -> 'a t -> unit
(** Ascending key order. *)

val fold : (string -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val to_list : 'a t -> (string * 'a) list
val min_binding : 'a t -> (string * 'a) option

val of_sorted : (string * 'a) array -> 'a t
(** Bulk build from strictly increasing keys; O(n) and cheaper than
    repeated {!insert}. Raises [Invalid_argument] if keys are not
    strictly increasing. *)

val merge : combine:('a -> 'a -> 'a) -> 'a t -> 'a t -> unit
(** [merge ~combine dst src] moves every binding of [src] into [dst]
    (emptying [src]); disjoint subtrees are linked without being visited.
    Duplicate keys resolve to [combine dst_value src_value]. *)

type stats = {
  leaves : int;
  inner4 : int;
  inner16 : int;
  inner48 : int;
  inner256 : int;
  max_depth : int;
}

val stats : 'a t -> stats
