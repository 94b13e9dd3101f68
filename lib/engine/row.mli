(** Rows are flat value arrays with structural equality/hash consistent
    with {!Value.equal}/{!Value.hash}, so rows can key hash tables (Z-sets,
    hash joins, aggregation). *)

type t = Value.t array

val equal : t -> t -> bool
val hash : t -> int
val compare : t -> t -> int
val to_string : t -> string

val concat : t -> t -> t

module Hash : Hashtbl.HashedType with type t = t
module Tbl : Hashtbl.S with type key = t
