(** Z-sets: multisets with (possibly negative) integer weights, the carrier
    of DBSP. A table snapshot is a Z-set with positive weights; a *delta*
    is a Z-set whose positive weights are insertions and negative weights
    deletions — what the paper's boolean multiplicity column encodes. The
    representation is canonical: rows never carry weight zero. *)

open Openivm_engine

type t

val create : ?size:int -> unit -> t

val weight : t -> Row.t -> int
val add : t -> Row.t -> int -> unit
(** Adjust a row's weight (adding 0 is a no-op; weights reaching 0 drop
    the row). *)

val cardinality : t -> int
(** Number of distinct rows with non-zero weight. *)

val is_empty : t -> bool

val iter : (Row.t -> int -> unit) -> t -> unit
val fold : (Row.t -> int -> 'acc -> 'acc) -> t -> 'acc -> 'acc
val to_list : t -> (Row.t * int) list
(** Sorted by row, for deterministic output. *)

val of_list : (Row.t * int) list -> t
val of_rows : Row.t list -> t
(** Each row with weight +1; duplicates accumulate. *)

val copy : t -> t
val equal : t -> t -> bool

val plus : t -> t -> t
val negate : t -> t
val minus : t -> t -> t
val accumulate : into:t -> t -> unit
(** [accumulate ~into delta] is single-step integration: [into += delta]. *)

val map : (Row.t -> Row.t) -> t -> t
(** Weight-linear; rows mapping to the same image merge their weights. *)

val filter : (Row.t -> bool) -> t -> t

val distinct : t -> t
(** DBSP distinct: weight 1 for every row with positive weight. *)

val positive : t -> t
val negative : t -> t
(** Positive / negative parts ([t = positive t - negative t]), used when
    lowering to the boolean-multiplicity encoding. *)

val join :
  left_key:(Row.t -> Row.t) ->
  right_key:(Row.t -> Row.t) ->
  output:(Row.t -> Row.t -> Row.t) ->
  t -> t -> t
(** Bilinear join: weights multiply; the smaller side is hashed. *)

val to_rows_exn : t -> Row.t list
(** Expand to a bag (weight-many copies per row). Raises
    {!Openivm_engine.Error.Sql_error} on negative weights. *)

val to_string : t -> string
